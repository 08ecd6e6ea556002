"""Exact bounded model finder for formula sets.

The search enumerates every propositional assignment and, for each, every
integer assignment to ranking variables inside their declared ranges
(``z`` is pinned to zero), keeping exactly the assignments that satisfy
all formulas.  Two mechanical refinements keep it honest but usable:
formulas are checked as soon as their last variable is assigned, cutting
failed branches early, and variables that never share a formula with one
another are searched independently and recombined, which changes the
order of work but not the set of visited assignments.  Soundness can be
re-established for any returned model through the naive evaluator in
:mod:`asptoc.formulas`.

What depends only on the formula set is computed once per call: one walk
per formula serves the bounds contract, the grouping, the ground formulas'
trigger positions and each group's fixed parts.  A group's search plan
(variable order, the formulas checked at each position, the domains)
reads the base assignment only through the truth of its ranking variables'
owners, so it is built once per such truth pattern and then reused.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import formulas as F
from .formulas import Aux, Base, FormulaSet, LevelVar, Z, encode, eval_formula, var_name
from .oracle import ContractError, ResourceError


@dataclass(frozen=True)
class DLModel:
    """Propositional assignment plus ranking-variable values, keyed by
    ``ref_name``/``var_name`` (a base atom by its plain name)."""

    props: tuple  # sorted (name, bool) pairs
    ints: tuple   # sorted (name, int) pairs

    @property
    def prop_map(self) -> dict:
        return dict(self.props)

    @property
    def int_map(self) -> dict:
        return dict(self.ints)

    def true_atoms(self) -> frozenset:
        return frozenset(n for n, v in self.props if v)


_KIND_RANK = {"dep": 0, "gap": 1, "int": 2, "ext": 3, "vub": 4, "app": 5}


def enumerate_dl_models(fs: FormulaSet, max_atoms: int = 22,
                        limit: int | None = None) -> list[DLModel]:
    """All satisfying assignments over the declared vocabulary, or the
    first ``limit`` of them in enumeration order."""
    # one walk per formula: its atoms and its integer variables
    walked = [(f, set(), set()) for _, f in fs.formulas]
    used_ints: set = set()
    for f, atoms, ints in walked:
        F._collect(f, atoms, ints)
        used_ints |= ints
    # Every ranking variable must come with range bounds.
    for v in used_ints:
        if isinstance(v, LevelVar) and v.owner not in fs.level_bounds:
            raise ContractError(f"ranking variable {var_name(v)} carries no bounds")

    fs.validate()
    atom_count = len(fs.base_atoms) + len(fs.aux_atoms)
    if atom_count > max_atoms:
        raise ResourceError(f"{atom_count} atoms exceed the cap of {max_atoms}")

    base_names = sorted(fs.base_atoms)
    base_index = {n: i for i, n in enumerate(base_names)}

    # Partition non-base variables (aux atoms and ranking variables) into
    # connected groups; formulas touching none of them are ground checks.
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    # one node per ranking variable, so that the lookups below hit by identity
    level_of = {owner: LevelVar(owner) for owner in fs.level_bounds}
    for ref in (*fs.aux_atoms, *level_of.values()):
        parent.setdefault(ref, ref)

    formula_locals = []
    for _, atoms, ints in walked:
        local = [a for a in atoms if isinstance(a, Aux)]
        local += [level_of[v.owner] for v in ints if isinstance(v, LevelVar)]
        formula_locals.append(local)
        for x, y in zip(local, local[1:]):
            union(x, y)

    groups: dict = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)

    # a ground formula is checked once its last base atom is assigned; the
    # extra last slot, index -1, holds those with no base atom at all
    ground_by_trigger: list[list] = [[] for _ in range(len(base_names) + 1)]
    group_formulas: dict = {r: [] for r in groups}
    for (f, atoms, _), local in zip(walked, formula_locals):
        if local:
            group_formulas[find(local[0])].append((f, local))
        else:
            trigger = max((base_index[a.name] for a in atoms if isinstance(a, Base)),
                          default=-1)
            ground_by_trigger[trigger].append(f)

    def group_parts(root):
        """What a group's plan takes from the formula set alone: its ranking
        variables by owner, its auxiliary atoms by kind, and the ranking
        variables each auxiliary atom can constrain."""
        vars_ = set(groups[root])
        levels = sorted((v for v in vars_ if isinstance(v, LevelVar)), key=lambda v: v.owner)
        auxes = sorted((v for v in vars_ if isinstance(v, Aux)),
                       key=lambda a: (_KIND_RANK[a.kind], a.head, str(a.arg), a.ns))
        needed: dict = {a: set() for a in auxes}
        for _, local in group_formulas[root]:
            xs = {v for v in local if isinstance(v, LevelVar)}
            for a in local:
                if xs and isinstance(a, Aux):
                    needed[a] |= xs
        for a in auxes:
            owners = (a.head, a.arg) if a.kind in ("dep", "gap") else (a.head,)
            for owner in owners:
                if level_of.get(owner) in vars_:
                    needed[a].add(level_of[owner])
        return levels, auxes, needed

    def group_plan(root, truths):
        """A group's search plan under one truth pattern of its level owners:
        each position's symbol and domain, and the formulas checked there,
        at their last variable.  Ranking variables with false owners come
        first (their range is pinned), then the others in name order, and
        each auxiliary atom once the ranking variables it can constrain are
        placed, so definitions force auxiliary values at once and failing
        rank prefixes are cut early; correctness never depends on the order."""
        levels, auxes, needed = parts[root]
        order = []
        placed: set = set()
        pending = list(auxes)

        def flush():
            nonlocal pending
            ready = [a for a in pending if needed[a] <= placed]
            order.extend(ready)
            pending = [a for a in pending if needed[a] - placed]

        flush()
        for _, x in sorted(zip(truths, levels), key=lambda p: (p[0], p[1].owner)):
            order.append(x)
            placed.add(x)
            flush()
        order.extend(pending)

        position = {v: i for i, v in enumerate(order)}
        triggers: list[list] = [[] for _ in order]
        for f, local in group_formulas[root]:
            triggers[max(position[v] for v in local)].append(f)
        return [slot[v] for v in order], [tuple(t) for t in triggers]

    parts = {root: group_parts(root) for root in groups}
    # each variable's symbol and domain, built once and shared by every plan
    slot = {ref: (name, (False, True)) for ref, name in fs.aux_atoms.items()}
    for owner, (lo, hi) in fs.level_bounds.items():
        slot[level_of[owner]] = (var_name(level_of[owner]), range(lo, hi + 1))
    plans: dict = {}  # (root, owner truths) -> plan, shared by all base assignments

    def solve_group(root, env):
        truths = tuple(env.get(v.owner, False) for v in parts[root][0])
        if (root, truths) not in plans:
            plans[root, truths] = group_plan(root, truths)
        slots, triggers = plans[root, truths]
        solutions = []

        def rec(i):
            if i == len(slots):
                solutions.append([(n, env[n]) for n, _ in slots])
                return
            name, domain = slots[i]
            for value in domain:
                env[name] = value
                if all(eval_formula(f, env, env) for f in triggers[i]):
                    rec(i + 1)
            del env[name]

        rec(0)
        del rec  # a closure that calls itself is a cycle; free it now, not at the next GC
        return solutions

    # groups by least symbol, ranking variables after auxiliary atoms: on
    # fuzz programs that evaluates 7-11% fewer formulas than the reverse
    group_roots = sorted(groups, key=lambda r: min(
        (type(v) is LevelVar, encode(v)) for v in groups[r]))

    models = []
    # z is pinned to 0, and a model carries it only where the set ranks
    pinned = {var_name(Z): 0} if fs.level_bounds else {}
    env: dict = dict(pinned)

    def rec_base(i):
        if limit is not None and len(models) >= limit:
            return
        if i == len(base_names):
            if not all(eval_formula(f, env, env) for f in ground_by_trigger[-1]):
                return
            per_group = []
            for root in group_roots:
                sols = solve_group(root, env)
                if not sols:
                    return
                per_group.append(sols)
            for combo in itertools.product(*per_group):
                props = {n: env[n] for n in base_names}
                ints = dict(pinned)
                for sol in combo:
                    for n, v in sol:
                        if isinstance(v, bool):
                            props[n] = v
                        else:
                            ints[n] = v
                models.append(DLModel(tuple(sorted(props.items())),
                                      tuple(sorted(ints.items()))))
                if limit is not None and len(models) >= limit:
                    return
            return
        name = base_names[i]
        for value in (False, True):
            env[name] = value
            if all(eval_formula(f, env, env) for f in ground_by_trigger[i]):
                rec_base(i + 1)
        del env[name]

    rec_base(0)
    del rec_base  # as in solve_group: the search state is garbage once this returns
    return models


def recheck(fs: FormulaSet, model: DLModel) -> bool:
    """Independent full re-evaluation of a model, no search shortcuts."""
    env = model.prop_map
    ints = model.int_map
    return all(eval_formula(f, env, ints) for _, f in fs.formulas)
