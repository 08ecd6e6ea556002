"""The subset normalization, checked against the weight path.

The translator emits one form per rule, the canonical weight form.  For
a positive in-scope rule, the completion can also be written with one
applicability atom per bound-reaching subset of the body: the subset
normalization, one positive rule per inclusion-minimal satisfier.  The
proposition checks of ``asptoc fuzz --props`` translate both programs
and compare the two formula sets: they must constrain the shared
vocabulary identically, and wherever both hold, some subset rule must
apply exactly when the aggregated rule does.  Each side is evaluated in
its own environment, so the two sides' applicability atoms, named
alike, stay apart.

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

from .formulas import FALSE, Aux, Base, FormulaSet, Iff, Var, eval_formula, ref_name
from .program import Origin, Polarity, Program, ResourceError, Rule, normal_rule, program_of
from .toc import toc_module


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
    """Subset-form set, aggregated set, subset count."""
    head = rule.head
    scope = frozenset({head, *rule.pos_atoms()})
    normalized = normalize_subsets(rule)
    side_a = toc_module(normalized, scope)
    side_b = toc_module(program_of([rule], extra_atoms=[head, *rule.pos_atoms()]), scope)
    k = len(normalized.rules)
    if k == 0:
        # an unreachable bound normalizes to no rules at all; the head then
        # keeps its empty completion instead of becoming an input atom
        side_a.add(f"def:{head}", Iff(Var(Base(head)), FALSE))
    return side_a, side_b, k


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


def compare_sides(rule: Rule, side_a: FormulaSet, side_b: FormulaSet, k: int) -> Verdict:
    """PASS when the subset side ``side_a`` of ``k`` rules and the
    aggregated side ``side_b`` agree on every realizable shared assignment,
    and wherever both hold some subset rule applies exactly when the
    aggregated rule does."""
    head = rule.head
    body = sorted(rule.pos_atoms())
    subset_apps = [ref_name(Aux("app", head, i)) for i in range(1, k + 1)]
    aggregate_app = ref_name(Aux("app", head, 1))
    checked = 0
    for env in _shared_assignments(head, body, len(body) + 1):
        checked += 1
        env_a = dict(env)
        env_b = dict(env)
        sat_a = _derive_and_check(side_a, env_a)
        sat_b = _derive_and_check(side_b, env_b)
        link = any(env_a[name] for name in subset_apps) == env_b[aggregate_app]
        if sat_a != sat_b or (sat_a and sat_b and not link):
            return Verdict(False, checked, k,
                           len(side_a.formulas), len(side_b.formulas),
                           counterexample={"assignment": env,
                                           "subset_sat": sat_a,
                                           "aggregate_sat": sat_b,
                                           "connecting": link})
    return Verdict(True, checked, k,
                   len(side_a.formulas), len(side_b.formulas))


def check_proposition(rule: Rule, variant: int) -> Verdict:
    """The proposition check of ``variant`` on ``rule``: its subset and
    aggregated sides compared."""
    _validate(rule, variant)
    return compare_sides(rule, *proposition_sides(rule))
