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


def _formula_vars(formula) -> tuple[set, set]:
    atoms: set = set()
    ints: set = set()
    F._collect(formula, atoms, ints)
    return atoms, ints


_KIND_RANK = {"dep": 0, "gap": 1, "int": 2, "ext": 3, "vub": 4, "app": 5}


def _aux_key(ref: Aux):
    return (_KIND_RANK[ref.kind], ref.head, str(ref.arg), ref.ns)


def enumerate_dl_models(fs: FormulaSet, max_atoms: int = 22,
                        limit: int | None = None) -> list[DLModel]:
    """All satisfying assignments over the declared vocabulary, or the
    first ``limit`` of them in enumeration order."""
    # Every ranking variable must come with range bounds.
    used_ints: set = set()
    for _, f in fs.formulas:
        used_ints |= _formula_vars(f)[1]
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

    for ref in fs.aux_atoms:
        parent.setdefault(ref, ref)
    for owner in fs.level_bounds:
        parent.setdefault(LevelVar(owner), LevelVar(owner))

    formula_locals = []
    for name, f in fs.formulas:
        atoms, ints = _formula_vars(f)
        local = [a for a in atoms if isinstance(a, Aux)]
        local += [v for v in ints if isinstance(v, LevelVar)]
        formula_locals.append(local)
        for x, y in zip(local, local[1:]):
            union(x, y)

    groups: dict = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)

    ground_formulas = []  # (formula, trigger index in base order)
    group_formulas: dict = {r: [] for r in groups}
    for (name, f), local in zip(fs.formulas, formula_locals):
        if local:
            group_formulas[find(local[0])].append(f)
        else:
            atoms, _ = _formula_vars(f)
            trigger = max((base_index[a.name] for a in atoms if isinstance(a, Base)),
                          default=-1)
            ground_formulas.append((f, trigger))

    def group_order(root, env):
        """Rank variables with false owners first (their range is pinned),
        every other rank variable in name order, and each auxiliary atom as
        soon as the rank variables it can constrain are all placed.  That
        lets definitions force auxiliary values immediately and cuts failing
        rank prefixes early; correctness never depends on the order."""
        vars_ = set(groups[root])
        levels = sorted((v for v in vars_ if isinstance(v, LevelVar)),
                        key=lambda v: (env.get(v.owner, False), v.owner))
        auxes = sorted((v for v in vars_ if isinstance(v, Aux)), key=_aux_key)
        needed: dict = {a: set() for a in auxes}
        for f in group_formulas[root]:
            atoms, ints = _formula_vars(f)
            xs = {v for v in ints if isinstance(v, LevelVar) and v in vars_}
            if not xs:
                continue
            for a in atoms:
                if a in needed:
                    needed[a] |= xs
        for a in auxes:
            owners = (a.head, a.arg) if a.kind in ("dep", "gap") else (a.head,)
            for owner in owners:
                if LevelVar(owner) in vars_:
                    needed[a].add(LevelVar(owner))

        order = []
        placed: set = set()
        pending = list(auxes)

        def flush():
            nonlocal pending
            ready = [a for a in pending if needed[a] <= placed]
            order.extend(ready)
            pending = [a for a in pending if needed[a] - placed]

        flush()
        for x in levels:
            order.append(x)
            placed.add(x)
            flush()
        order.extend(pending)
        return order

    def solve_group(root, env):
        order = group_order(root, env)
        names = [encode(v) for v in order]
        position = {n: i for i, n in enumerate(names)}
        triggers: list[list] = [[] for _ in order]
        for f in group_formulas[root]:
            atoms, ints = _formula_vars(f)
            idx = -1
            for v in (*atoms, *ints):
                if type(v) is Aux or type(v) is LevelVar:
                    idx = max(idx, position[encode(v)])
            triggers[max(idx, 0)].append(f)

        solutions = []

        def rec(i):
            if i == len(order):
                solutions.append([(n, env[n]) for n in names])
                return
            v = order[i]
            name = names[i]
            if isinstance(v, LevelVar):
                lo, hi = fs.level_bounds[v.owner]
                domain = range(lo, hi + 1)
            else:
                domain = (False, True)
            for value in domain:
                env[name] = value
                if all(eval_formula(f, env, env) for f in triggers[i]):
                    rec(i + 1)
            del env[name]

        rec(0)
        return solutions

    # groups by least symbol, ranking variables after auxiliary atoms: on
    # fuzz programs that evaluates 7-11% fewer formulas than the reverse
    group_roots = sorted(groups, key=lambda r: min(
        (type(v) is LevelVar, encode(v)) for v in groups[r]))

    ground_by_trigger: list[list] = [[] for _ in base_names]
    late_ground = []
    for f, trig in ground_formulas:
        if trig >= 0:
            ground_by_trigger[trig].append(f)
        else:
            late_ground.append(f)

    models = []
    # z is pinned to 0, and a model carries it only where the set ranks
    pinned = {var_name(Z): 0} if fs.level_bounds else {}
    env: dict = dict(pinned)

    def rec_base(i):
        if limit is not None and len(models) >= limit:
            return
        if i == len(base_names):
            if not all(eval_formula(f, env, env) for f in late_ground):
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
    return models


def recheck(fs: FormulaSet, model: DLModel) -> bool:
    """Independent full re-evaluation of a model, no search shortcuts."""
    env = model.prop_map
    ints = model.int_map
    return all(eval_formula(f, env, ints) for _, f in fs.formulas)
