"""The shared base of the immutable records.

A node is a tuple of its field values.  ``class Var(Node, fields="atom")``
names the fields, and each is read through the C-level getter that
``collections.namedtuple`` uses; a field cannot be set.  A node hashes as
its tuple of values and equals only a node of its own class with equal
values, never a plain tuple.  A subclass states ``__slots__ = ()`` unless
it keeps a ``__dict__`` (as one with a ``functools.cached_property``
must).  Every node is truthy, also one without fields.

A node is built from exactly its field values, positionally.  Each class
gets its own ``__new__`` when it is created, generated the way
``collections.namedtuple`` generates its constructors: one source
template, filled in with the class's name and fields (``def Var(_cls,
atom): return _tuple_new(_cls, (atom,))``) and compiled once.  Python
then checks the count itself, so a wrong one raises the interpreter's
``TypeError``, which names the class (``Var() missing 1 required
positional argument: 'atom'``; the count it gives of too many includes
the class argument).  A subclass writes its own ``__new__`` only for
checks or defaults, ending in ``tuple.__new__(cls, values)``; nothing is
generated for it.

A reference names the string that keys it, given once per class as
``key=``, a function of the field values: ``class LevelVar(Node,
fields="owner", key=...)``.  The generated ``__new__`` stores
``_key(*fields)`` after the fields, read as ``name``.  It is a function
of the fields, so equality, hashing and order mean what they did, and
repr, copy and pickle see only the fields.
"""

from __future__ import annotations

from _collections import _tuplegetter

_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__
_tuple_new = tuple.__new__

_NEW_TEMPLATE = "def {name}(_cls, {fields}): return _tuple_new(_cls, ({values}))"


def _generated_new(cls, key):
    """``cls``'s ``__new__``, compiled from the one template: its fields
    as named positional parameters, stored as they are and followed by
    ``key`` of them unless ``key`` is None."""
    fields = "".join(f"{field}, " for field in cls._fields)
    values = fields if key is None else f"{fields}_key({fields}), "
    namespace = {"_tuple_new": _tuple_new, "_key": key, "__builtins__": {}}
    exec(_NEW_TEMPLATE.format(name=cls.__name__, fields=fields, values=values), namespace)
    new = namespace[cls.__name__]
    new.__qualname__ = cls.__qualname__
    return staticmethod(new)


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
            cls.__new__ = _generated_new(cls, key)

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
