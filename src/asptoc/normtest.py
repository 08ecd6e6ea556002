"""The subset normalization, checked against the weight path.

The translator emits one form per rule, the canonical weight form.  For
a positive in-scope rule, the completion can also be written through the
subset normalization: one positive rule per inclusion-minimal
bound-reaching subset of the body.  The proposition checks of ``asptoc
fuzz --props`` translate both programs and compare the two formula sets:
they must constrain the shared vocabulary identically.  The head is
shared and each side keeps its completion, so some subset rule then
applies exactly when the aggregated rule does.  Each side is enumerated
on its own, so the two sides' applicability atoms, named alike, stay
apart.

Ranking variables enter both sides only through the range bounds, the
``dep``/``gap`` definitions and the rank resets, so the check drops
every formula that reads one and abstracts the ranks to
``gap -> dep -> atom`` for each body atom: an atom derived two stages
before the head was derived before it, and one derived before it holds.
Each side then goes through the model finder, and the projections of
its models onto the shared vocabulary (the base atoms and the dep/gap
atoms of every body atom) must be the same set on both sides.

The abstraction admits (atom, dep, gap) in {FFF, TFF, TTF, TTT} per body
atom under either head value, 2 * 4^n shared assignments.  That covers
every valuation ranks can realize, and a few they cannot: a false head
ranks above every true atom, which is then always a dependency, and
with a single body atom a true head ranks at most two, too low for a
gap.  A superset can only add disagreements; a test cross-checks the
verdicts against full enumeration on small bodies.
"""

from __future__ import annotations

import itertools

from .dlcheck import enumerate_dl_models
from .formulas import FALSE, Aux, Base, FormulaSet, Iff, Implies, Var, _collect
from .node import Node
from .program import Polarity, Program, ResourceError, Rule, normal_rule, program_of
from .toc import toc_module


class Verdict(Node, fields="passed instances_checked subset_rules subset_formula_count "
                           "aggregate_formula_count counterexample"):
    """A proposition check's outcome and sizes; ``counterexample`` is
    ``None`` on a pass."""

    __slots__ = ()


def _minimal(family: set) -> list:
    return sorted((s for s in family if not any(t < s for t in family)),
                  key=lambda s: (len(s), tuple(sorted(s))))


def normalize_subsets(rule: Rule) -> Program:
    """One positive rule per inclusion-minimal bound-reaching subset of the
    body, smallest first, then by name."""
    if rule.head is None:
        raise ValueError("constraints cannot be subset-normalized")
    if rule.literals(Polarity.NEGATIVE, Polarity.DOUBLE_NEGATED):
        raise ValueError("subset normalization expects a positive rule")
    if rule.upper is not None:
        raise ValueError("subset normalization expects a lower bound only")
    if len(rule.body) > 6:
        raise ResourceError(f"{len(rule.body)} body atoms exceed the cap of 6")
    atoms = sorted(rule.pos_atoms())
    weights = {wl.atom: wl.weight for wl in rule.body}
    satisfying = {frozenset(combo)
                  for k in range(len(atoms) + 1)
                  for combo in itertools.combinations(atoms, k)
                  if sum(weights[a] for a in combo) >= rule.lower}
    rules = [normal_rule(rule.head, sorted(s)) for s in _minimal(satisfying)]
    return program_of(rules, extra_atoms=[rule.head, *atoms])


def _validate(rule: Rule, variant: int) -> None:
    """The variant's demands on ``rule``: variant 1 takes unit weights and
    bound 1, variant 2 unit weights, variant 3 every weight rule, unit
    weights included; ``normalize_subsets`` rejects a rule that is not
    positive, headed and bounded from below only."""
    if variant not in (1, 2, 3):
        raise ValueError(f"unknown proposition variant {variant}")
    if not rule.body or len(rule.body) > 5:
        raise ValueError("proposition checks cover 1 to 5 body atoms")
    if rule.lower < 1:
        raise ValueError("proposition checks expect a positive bound")
    unit = all(wl.weight == 1 for wl in rule.body)
    if variant == 1 and not (unit and rule.lower == 1):
        raise ValueError("variant 1 expects a cardinality rule with bound 1")
    if variant == 2 and not unit:
        raise ValueError("variant 2 expects a cardinality rule")


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


def _holding(side: FormulaSet, head: str, body: list[str], shared: list[str]) -> set:
    """The assignments to the ``shared`` atoms that ``side`` holds on: its
    rank-free formulas with ``gap -> dep -> atom`` for every body atom,
    through the model finder.  An assignment is the bytes of the shared
    atoms' values in name order, which keeps the garbage of a check
    small.  The head's value, part of it, says whether the side's rule
    applies: ``def:<head>`` reads no ranking variable and stays."""
    fs = FormulaSet(base_atoms=dict(side.base_atoms), aux_atoms=dict(side.aux_atoms))
    for name, formula in side.formulas:
        ints: set = set()
        _collect(formula, set(), ints)
        if not ints:
            fs.add(name, formula)
    for b in body:
        dep, gap = Var(Aux("dep", head, b)), Var(Aux("gap", head, b))
        fs.declare_aux(dep.atom, gap.atom)
        fs.add(f"order:{head}:{b}:gap", Implies(gap, dep))
        fs.add(f"order:{head}:{b}:dep", Implies(dep, Var(Base(b))))
    keep = set(shared)
    return {bytes(v for n, v in model.props if n in keep)
            for model in enumerate_dl_models(fs, max_atoms=len(fs.base_atoms)
                                             + len(fs.aux_atoms))}


def compare_sides(rule: Rule, side_a: FormulaSet, side_b: FormulaSet, k: int) -> Verdict:
    """PASS when the subset side ``side_a`` of ``k`` rules and the
    aggregated side ``side_b`` hold on the same shared assignments; the
    head, shared, then holds exactly where some subset rule applies and
    exactly where the aggregated rule does.  A failing verdict's
    counterexample is the first assignment, in sorted order, that only
    one side holds on; it never connects."""
    head = rule.head
    body = sorted(rule.pos_atoms())
    shared = sorted({head, *body, *(Aux(kind, head, b).name
                                    for b in body for kind in ("dep", "gap"))})
    holds_a = _holding(side_a, head, body, shared)
    holds_b = _holding(side_b, head, body, shared)
    counts = (2 * 4 ** len(body), k, len(side_a.formulas), len(side_b.formulas))
    differ = holds_a ^ holds_b
    if differ:
        key = min(differ)
        return Verdict(False, *counts, {"assignment": dict(zip(shared, map(bool, key))),
                                        "subset_sat": key in holds_a,
                                        "aggregate_sat": key in holds_b,
                                        "connecting": False})
    return Verdict(True, *counts, None)


def check_proposition(rule: Rule, variant: int) -> Verdict:
    """The proposition check of ``variant`` on ``rule``: its subset and
    aggregated sides compared."""
    _validate(rule, variant)
    return compare_sides(rule, *proposition_sides(rule))
