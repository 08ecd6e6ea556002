"""Exact bounded model finder for formula sets.

The search enumerates every propositional assignment and, for each, every
integer assignment to ranking variables inside their declared ranges
(``z`` is pinned to zero), keeping exactly the assignments that satisfy
all formulas.  It is one ordered search: the base atoms by name, then the
auxiliary atoms that have no definition by symbol, then the ranking
variables by owner.

An auxiliary atom's first formula ``Iff(Var(aux), body)`` is its
definition once every auxiliary atom ``body`` reads is itself defined;
the translation introduces each of its auxiliary atoms that way.  A
defined atom is computed from its body, never branched on, and its
definition is not checked again since it holds by construction; atoms in
a definition cycle stay undefined and are searched.  Each definition is
computed, and each other formula checked, as soon as the last searched
variable it depends on (through definitions, transitively) is assigned,
so failed branches are cut early; what depends on nothing runs once,
before the search.  Soundness can be re-established for any returned
model through the naive evaluator in :mod:`asptoc.formulas`.
"""

from __future__ import annotations

from . import formulas as F
from .formulas import Aux, FormulaSet, Iff, LevelVar, Var, Z, eval_formula
from .node import Node
from .program import ResourceError


class DLModel(Node, fields="props ints"):
    """Propositional assignment plus ranking-variable values, keyed by
    each reference's ``name`` (a base atom by its plain name): ``props``
    holds sorted ``(name, bool)`` pairs, ``ints`` sorted ``(name, int)``
    pairs."""

    __slots__ = ()

    @property
    def prop_map(self) -> dict:
        return dict(self.props)

    @property
    def int_map(self) -> dict:
        return dict(self.ints)

    def true_atoms(self) -> frozenset:
        return frozenset(n for n, v in self.props if v)


def enumerate_dl_models(fs: FormulaSet, max_atoms: int = 22) -> list[DLModel]:
    """All satisfying assignments over the declared vocabulary, in
    enumeration order."""
    # one walk per formula: the atoms and integer variables it reads, and
    # for a candidate definition those of its body alone
    walked = []
    first: dict = {}  # aux -> index of its first candidate definition
    for i, (_, f) in enumerate(fs.formulas):
        atoms: set = set()
        ints: set = set()
        head = f.left.atom if type(f) is Iff and type(f.left) is Var else None
        if type(head) is Aux and head not in first:
            first[head] = i
            F._collect(f.right, atoms, ints)
        else:
            F._collect(f, atoms, ints)
        walked.append((f, atoms, ints))

    fs.validate()
    atom_count = len(fs.base_atoms) + len(fs.aux_atoms)
    if atom_count > max_atoms:
        raise ResourceError(f"{atom_count} atoms exceed the cap of {max_atoms}")

    # definitions in dependency order: each round adds those whose body
    # reads only atoms defined in an earlier round; a cycle never gets ready
    defined: dict = {}  # aux -> index of its definition
    pending = dict(first)
    while ready := [a for a, i in pending.items()
                    if all(r in defined for r in walked[i][1] if type(r) is Aux)]:
        for a in ready:
            defined[a] = pending.pop(a)
    for a, i in pending.items():  # an undefined atom's first Iff is a check
        walked[i][1].add(a)

    # the searched variables in order, and each one's position
    levels = [(LevelVar(o).name, range(lo, hi + 1))
              for o, (lo, hi) in sorted(fs.level_bounds.items())]
    searched = [(n, (False, True)) for n in sorted(fs.base_atoms)]
    searched += sorted((sym, (False, True)) for a, sym in fs.aux_atoms.items()
                       if a not in defined)
    searched += levels
    position = {name: p for p, (name, _) in enumerate(searched)}
    position[Z.name] = -1  # pinned

    def last(atoms, ints):
        return max([position[r.name] for r in (*atoms, *ints)], default=-1)

    # work[p + 1] runs once the variable at position p is assigned: each
    # step is (symbol, body) for a definition or (None, formula) for a
    # check.  Definitions come first, in dependency order, so each step
    # reads only values computed for the current assignment.
    work: list[list] = [[] for _ in range(len(searched) + 1)]
    for a, i in defined.items():
        f, atoms, ints = walked[i]
        sym = a.name
        position[sym] = p = last(atoms, ints)
        work[p + 1].append((sym, f.right))
    definitions = set(defined.values())
    for i, (f, atoms, ints) in enumerate(walked):
        if i not in definitions:
            work[last(atoms, ints) + 1].append((None, f))

    def run(steps) -> bool:
        for sym, f in steps:
            if sym is None:
                if not eval_formula(f, env, env):
                    return False
            else:
                env[sym] = eval_formula(f, env, env)
        return True

    # models share one (name, value) pair per atom and value, so each
    # model allocates its tuples and nothing else
    prop_pairs = {n: ((n, False), (n, True))
                  for n in sorted([*fs.base_atoms, *fs.aux_atoms.values()])}
    # z is pinned to 0, and a model carries it only where the set ranks
    pinned = {Z.name: 0} if fs.level_bounds else {}
    int_names = sorted([*pinned, *(n for n, _ in levels)])
    env: dict = dict(pinned)
    models: list[DLModel] = []

    def rec(p):
        if p == len(searched):
            models.append(DLModel(tuple(pair[env[n]] for n, pair in prop_pairs.items()),
                                  tuple((n, env[n]) for n in int_names)))
            return
        name, domain = searched[p]
        for value in domain:
            env[name] = value
            if run(work[p + 1]):
                rec(p + 1)

    if run(work[0]):
        rec(0)
    del rec  # a closure that calls itself is a cycle; free it now, not at the next GC
    return models

