"""The shared base of the immutable records.

A node is a tuple of its field values.  ``class Var(Node, fields="atom")``
names the fields, and each is read through the C-level getter that
``collections.namedtuple`` uses; a field cannot be set.  A node hashes as
its tuple of values and equals only a node of its own class with equal
values, never a plain tuple.  A subclass states ``__slots__ = ()`` unless
it keeps a ``__dict__`` (as one with a ``functools.cached_property``
must).  It is built from exactly its field values, positionally; a
subclass writes its own ``__new__`` only for checks or defaults, ending
in ``tuple.__new__(cls, values)``.  Every node is truthy, also one
without fields.

A reference names the string that keys it, given once per class as
``key=``, a function of the field values: ``class LevelVar(Node,
fields="owner", key=...)``.  The generated ``__new__`` stores the key
after the fields, read as ``name``.  It is a function of the fields, so
equality, hashing and order mean what they did, and repr, copy and pickle
see only the fields.
"""

from __future__ import annotations

from _collections import _tuplegetter

_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__
_tuple_new = tuple.__new__


def _positional_new(count: int, key):
    """A ``__new__`` taking exactly ``count`` positional field values, and
    storing ``key(*values)`` after them unless ``key`` is None."""
    def __new__(cls, *values):
        if len(values) != count:
            raise TypeError(f"{cls.__qualname__}() takes {count} field values, "
                            f"{len(values)} given")
        return _tuple_new(cls, values if key is None else (*values, key(*values)))
    return staticmethod(__new__)


class Node(tuple):
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, fields: str = "", key=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(fields.split())
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(i, None))
        if key is not None:
            cls.name = _tuplegetter(len(cls._fields), "the key")
        if "__new__" not in vars(cls):
            cls.__new__ = _positional_new(len(cls._fields), key)

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(other) is type(self) and _tuple_eq(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or _tuple_ne(self, other)

    def __bool__(self):
        return True

    def __getnewargs__(self):
        return self[:len(self._fields)]  # copy and pickle call ``__new__`` with the fields

    def __repr__(self):
        values = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({values})"
