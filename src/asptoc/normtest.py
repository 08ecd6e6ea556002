"""Alternative completion forms, checked against the weight path.

The translator emits one form per rule, the canonical weight form.  This
module keeps two other forms of the same completion for the tests and
the proposition checks: the subset normalization, one positive rule per
bound-reaching subset of the body, and the extensional form of
:func:`toc_abstract`, which feeds the translator's support skeleton with
a family of accepted body subsets instead of a weighted sum.

For a positive in-scope rule, the completion can be written with one
applicability atom per bound-reaching subset of the body, or with a
single applicability atom over a weighted sum of ``dep`` atoms.  A
connecting formula ties the subset atoms' disjunction to the aggregated
atom; the two formula sets must then constrain the shared vocabulary
identically.

The check enumerates the shared vocabulary exactly.  Ranking variables
enter the formulas only through ``dep``/``gap`` atoms and the range
bounds, so assignments are enumerated as realizability classes: a body
atom that is false fixes both atoms false; a true one admits
(dep, gap) in {(F,F), (T,F), (T,T)} gated by the head rank (the (T,F)
case needs rank at least two, (T,T) at least three).  Every realizable
combination is covered, and so are a few that the range bounds exclude
(they rank a true atom at most the scope size); a superset can only add
disagreements, and a test cross-checks the verdicts against full
enumeration on small bodies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .formulas import (
    FALSE,
    TRUE,
    Aux,
    Base,
    FormulaSet,
    Iff,
    LevelVar,
    Not,
    Var,
    conj,
    disj,
    eval_formula,
    ref_name,
)
from .program import Origin, Polarity, Program, ResourceError, Rule, normal_rule, program_of
from .toc import emit_support, toc_module


class ConvexityError(Exception):
    pass


@dataclass(frozen=True)
class Verdict:
    passed: bool
    instances_checked: int
    subset_rules: int
    subset_formula_count: int
    aggregate_formula_count: int
    counterexample: dict | None = None


def _check_subset_input(rule: Rule, cap: int = 6):
    if rule.head is None:
        raise ValueError("constraints cannot be subset-normalized")
    if rule.literals(Polarity.NEGATIVE, Polarity.DOUBLE_NEGATED):
        raise ValueError("subset normalization expects a positive rule")
    if rule.upper is not None:
        raise ValueError("subset normalization expects a lower bound only")
    if len(rule.body) > cap:
        raise ResourceError(f"{len(rule.body)} body atoms exceed the cap of {cap}")


def _minimal(family: set) -> list:
    return sorted((s for s in family if not any(t < s for t in family)),
                  key=lambda s: (len(s), tuple(sorted(s))))


def normalize_subsets(rule: Rule) -> Program:
    """One positive rule per inclusion-minimal bound-reaching subset of the
    body, smallest first, then by name."""
    _check_subset_input(rule)
    atoms = sorted(rule.pos_atoms())
    weights = {wl.atom: wl.weight for wl in rule.body}
    satisfying = {frozenset(combo)
                  for k in range(len(atoms) + 1)
                  for combo in itertools.combinations(atoms, k)
                  if sum(weights[a] for a in combo) >= rule.lower}
    rules = [normal_rule(rule.head, sorted(s)) for s in _minimal(satisfying)]
    return program_of(rules, extra_atoms=[rule.head, *atoms])


def _validate(rule: Rule, variant: int) -> None:
    if variant not in (1, 2, 3):
        raise ValueError(f"unknown proposition variant {variant}")
    if rule.head is None or rule.literals(Polarity.NEGATIVE, Polarity.DOUBLE_NEGATED):
        raise ValueError("proposition checks expect a positive headed rule")
    if rule.upper is not None:
        raise ValueError("proposition checks expect lower bounds only")
    if not rule.body or len(rule.body) > 5:
        raise ValueError("proposition checks cover 1 to 5 body atoms")
    if rule.lower < 1:
        raise ValueError("proposition checks expect a positive bound")
    unit = all(wl.weight == 1 for wl in rule.body)
    if variant == 1 and not (unit and rule.lower == 1):
        raise ValueError("variant 1 expects a cardinality rule with bound 1")
    if variant == 2 and not unit:
        raise ValueError("variant 2 expects a cardinality rule")
    if variant == 3 and unit and rule.origin is Origin.CARDINALITY:
        raise ValueError("variant 3 expects a weight rule")


def proposition_sides(rule: Rule):
    """Subset-form set, aggregated set, connecting formula, subset count."""
    head = rule.head
    scope = frozenset({head, *rule.pos_atoms()})
    normalized = normalize_subsets(rule)
    side_a = toc_module(normalized, scope, aux_ns="n")
    side_b = toc_module(program_of([rule], extra_atoms=[head, *rule.pos_atoms()]), scope)
    k = len(normalized.rules)
    if k == 0:
        # an unreachable bound normalizes to no rules at all; the head then
        # keeps its empty completion instead of becoming an input atom
        side_a.add(f"def:{head}", Iff(Var(Base(head)), FALSE))
    connecting = Iff(disj(*(Var(Aux("app", head, i, "n")) for i in range(1, k + 1))),
                     Var(Aux("app", head, 1)))
    return side_a, side_b, connecting, k


def _shared_assignments(head: str, body: list[str], scope_size: int):
    """All realizable valuations of bases plus dep/gap atoms."""
    for head_true in (False, True):
        # Only the thresholds 2 and 3 on the head rank matter; a false
        # head pins the rank to the maximum, which sits in the top class.
        rank_classes = (1, 2, 3) if head_true else (scope_size + 1,)
        for head_rank in rank_classes:
            per_atom = []
            for b in body:
                cases = [(False, False, False)]  # atom false
                cases.append((True, False, False))
                if head_rank >= 2:
                    cases.append((True, True, False))
                if head_rank >= 3:
                    cases.append((True, True, True))
                per_atom.append(cases)
            for combo in itertools.product(*per_atom):
                env = {head: head_true}
                for b, (value, dep, gap) in zip(body, combo):
                    env[b] = value
                    env[ref_name(Aux("dep", head, b))] = dep
                    env[ref_name(Aux("gap", head, b))] = gap
                yield env


def _derive_and_check(fs: FormulaSet, env: dict) -> bool:
    """Derive applicability atoms from their definitions, then evaluate the
    completion and strong formulas; range and dep/gap definitions hold by
    construction of the assignment stream."""
    ok = True
    for name, formula in fs.formulas:
        if name.startswith(("bounds:", "dep:", "gap:", "reset:")):
            continue
        if name.startswith("app:"):
            assert isinstance(formula, Iff) and isinstance(formula.left, Var)
            env[ref_name(formula.left.atom)] = eval_formula(formula.right, env, {})
            continue
        if not eval_formula(formula, env, {}):
            ok = False
    return ok


def check_proposition(rule: Rule, variant: int, *,
                      drop_strong_side: str | None = None) -> Verdict:
    """PASS when the subset and aggregated formula sets agree on every
    realizable shared assignment, linked by the connecting formula.

    ``drop_strong_side`` removes the strong formulas from one side; the
    harness self-test uses it to confirm they are not vacuous.
    """
    _validate(rule, variant)
    side_a, side_b, connecting, k = proposition_sides(rule)
    if drop_strong_side == "a":
        side_a = side_a.without("strong:")
    elif drop_strong_side == "b":
        side_b = side_b.without("strong:")

    head = rule.head
    body = sorted(rule.pos_atoms())
    scope_size = len(body) + 1
    checked = 0
    for env in _shared_assignments(head, body, scope_size):
        checked += 1
        env_a = dict(env)
        env_b = dict(env)
        sat_a = _derive_and_check(side_a, env_a)
        sat_b = _derive_and_check(side_b, env_b)
        joint = {**env_a, **env_b}
        link = eval_formula(connecting, joint, {})
        if sat_a != sat_b or (sat_a and sat_b and not link):
            shared = dict(env)
            return Verdict(False, checked, k,
                           len(side_a.formulas), len(side_b.formulas),
                           counterexample={"assignment": shared,
                                           "subset_sat": sat_a,
                                           "aggregate_sat": sat_b,
                                           "connecting": link})
    return Verdict(True, checked, k,
                   len(side_a.formulas), len(side_b.formulas))


# ---------------------------------------------------------------------------
# extensional convex aggregates

def _upward_closure(family: set, universe: frozenset) -> set:
    closed = set()
    for sat in family:
        for rest in itertools.chain.from_iterable(
                itertools.combinations(sorted(universe - sat), k)
                for k in range(len(universe - sat) + 1)):
            closed.add(sat | frozenset(rest))
    return closed


def _check_convex(family: set, universe: frozenset):
    fam = set(family)
    for small in fam:
        for large in fam:
            if small < large:
                extra = sorted(large - small)
                for k in range(1, len(extra)):
                    for mid in itertools.combinations(extra, k):
                        if small | frozenset(mid) not in fam:
                            raise ConvexityError(
                                f"family not convex between {sorted(small)} "
                                f"and {sorted(large)}")


def toc_abstract(rule: Rule, scope: frozenset, *,
                 family: set | None = None, strong: bool = True) -> FormulaSet:
    """Ordered completion of one rule with its aggregate kept extensional.

    Internal support substitutes in-scope positive atoms by their ``dep``
    atoms inside the disjunction over inclusion-minimal satisfiers (the
    upward closure); the strong condition negates the same disjunction
    with ``gap`` substitutions; external support substitutes in-scope
    positives by falsity.  Non-monotone aggregates additionally conjoin
    the exact aggregate over unsubstituted atoms into both supports, so
    applicability is judged at the candidate model.
    """
    if rule.head is None:
        raise ValueError("constraints have no completion")
    slots = list(rule.body)
    if len(slots) > 6:
        raise ResourceError("extensional aggregates are capped at 6 body atoms")
    universe = frozenset(range(len(slots)))
    if family is None:
        def accepted(js: frozenset) -> bool:
            total = sum(slots[j].weight for j in js)
            return total >= rule.lower and (rule.upper is None or total <= rule.upper)

        family = {frozenset(js)
                  for k in range(len(slots) + 1)
                  for js in itertools.combinations(sorted(universe), k)
                  if accepted(frozenset(js))}
    else:
        family = {frozenset(s) for s in family}
        _check_convex(family, universe)
    minimal = _minimal(family)
    monotone = family == _upward_closure(family, universe)
    head = rule.head

    def in_scope_pos(j: int) -> bool:
        lit = slots[j]
        return lit.polarity is Polarity.POSITIVE and lit.atom in scope

    def plain(j: int):
        lit = slots[j]
        if lit.polarity is Polarity.NEGATIVE:
            return Not(Var(Base(lit.atom)))
        return Var(Base(lit.atom))

    def ordered(j: int, kind: str):
        if in_scope_pos(j):
            return Var(Aux(kind, head, slots[j].atom))
        return plain(j)

    exact = disj(*(conj(*(plain(j) if j in sat else Not(plain(j))
                          for j in sorted(universe)))
                   for sat in sorted(family, key=lambda s: tuple(sorted(s)))))
    bound_check = TRUE if monotone else exact

    weak = conj(disj(*(conj(*(ordered(j, "dep") for j in sorted(sat)))
                       for sat in minimal)), bound_check)
    deny = Not(disj(*(conj(*(ordered(j, "gap") for j in sorted(sat)))
                      for sat in minimal))) if strong else None
    ext_minimal = [sat for sat in minimal if not any(in_scope_pos(j) for j in sat)]
    ext_def = conj(disj(*(conj(*(plain(j) for j in sorted(sat)))
                          for sat in ext_minimal)), bound_check)

    fs = FormulaSet()
    fs.declare_base(*sorted({wl.atom for wl in slots} | {head}))
    kinds = ("dep", "gap") if strong else ("dep",)
    for j in sorted(universe):
        if in_scope_pos(j):
            fs.declare_aux(*(Aux(kind, head, slots[j].atom) for kind in kinds))
    emit_support(fs, LevelVar(head), 1, "", weak, ext_def, deny,
                 has_in=any(in_scope_pos(j) for j in universe),
                 ext_possible=bool(ext_minimal))
    return fs
