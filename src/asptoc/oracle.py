"""Ground-truth semantics by brute force.

Stable models are found by guess-and-check over all interpretations: a
candidate is stable when it equals the least model of its reduct, seeded
with the candidate's input atoms (atoms without defining rules vary
freely, as if defined by choice rules).  No solver shortcuts are taken;
this module is the oracle everything else is measured against.

Reduct construction follows the standard definition, the same for
every rule whatever its source spelling (see ``reduct``).  Rules with both
bounds are kept only when the candidate satisfies the whole body, and
their reduct body is the monotone upward closure of the aggregate with
the negative part frozen: an interpretation satisfies it when some
subset of its true body atoms has a weight sum inside the original
window.  That subset-sum reading keeps satisfaction monotone.

Module ranks are read off the same reduct.  For a scope S and a stable
model M, take the rules of ``reduct(P, M)`` whose heads lie in S and seed
their least model with the atoms of M that no rule of S defines.  An
atom of S true in M ranks at the stage it enters that least model (0 if
it is a seed), a false one at infinity: these are the values the
translation's ranking variables must take.

The oracle reads programs only and imports nothing of the translation.
"""

from __future__ import annotations

import itertools

from .node import Node
from .program import (
    INFINITY,
    Polarity,
    Program,
    ResourceError,  # re-exported: it lives in program so the CLI skips the oracle
    Rule,
    weight_sum,
)


class PositiveRule(Node, fields="head terms lower window"):
    """Reduct rule over ``(atom, weight)`` terms: plain weight body
    reaching ``lower`` (``window`` None) or upward-closure body with a
    fixed subset-sum window (``lower`` 0)."""

    __slots__ = ()

    def body_satisfied(self, interp: frozenset) -> bool:
        if self.window is None:
            return sum(w for a, w in self.terms if a in interp) >= self.lower
        lo, hi = self.window
        lo = max(lo, 0)
        if hi < lo:
            return False
        sums = 1
        for a, w in self.terms:
            if a in interp:
                sums |= sums << w
        mask = ((1 << (hi - lo + 1)) - 1) << lo
        return bool(sums & mask)


def aggregate_reduct(rule: Rule, interp: frozenset) -> PositiveRule:
    """Closure form of a both-bounds rule whose body ``interp`` satisfies."""
    if rule.upper is None:
        raise ValueError("rule carries no upper bound")
    if not rule.body_satisfied(interp):
        raise ValueError("body not satisfied; the rule is omitted from the reduct")
    fixed = weight_sum(interp, rule.literals(Polarity.NEGATIVE, Polarity.DOUBLE_NEGATED))
    terms = tuple((wl.atom, wl.weight) for wl in rule.literals(Polarity.POSITIVE))
    return PositiveRule(rule.head, terms, 0, (rule.lower - fixed, rule.upper - fixed))


def reduct(program: Program, interp: frozenset) -> list[PositiveRule]:
    """Positive program relative to ``interp``; constraints are dropped and
    checked separately.

    A rule without an upper bound is kept exactly when its positive
    weights can still reach ``lower`` minus the weight of its satisfied
    negative and double-negated literals, and its reduct body asks for
    that remainder.  With unit weights and ``lower`` equal to the body
    size, this is the conjunctive reading: the rule is deleted unless
    every negative and double-negated condition holds."""
    out = []
    for rule in program.rules:
        if rule.head is None:
            continue
        if rule.upper is not None:
            if rule.body_satisfied(interp):
                out.append(aggregate_reduct(rule, interp))
            continue
        fixed = weight_sum(interp, rule.literals(Polarity.NEGATIVE, Polarity.DOUBLE_NEGATED))
        terms = tuple((wl.atom, wl.weight)
                      for wl in rule.literals(Polarity.POSITIVE))
        if sum(w for _, w in terms) + fixed >= rule.lower:
            out.append(PositiveRule(rule.head, terms, max(0, rule.lower - fixed), None))
    return out


def tp_step(rules: list[PositiveRule], interp: frozenset) -> frozenset:
    """Heads of reduct rules immediately applicable under ``interp``."""
    return frozenset(r.head for r in rules if r.body_satisfied(interp))


def least_model(rules: list[PositiveRule], input_atoms: frozenset = frozenset()):
    """Least fixed point of reduct rules seeded with the input atoms, plus
    the stage each atom first appeared at (inputs get stage 0)."""
    heads = {r.head for r in rules}
    clash = set(input_atoms) & heads
    if clash:
        raise ValueError(f"input atoms with defining rules: {sorted(clash)}")
    current = frozenset(input_atoms)
    ranks = {a: 0 for a in input_atoms}
    stage = 0
    while True:
        stage += 1
        new = tp_step(rules, current) - current
        if not new:
            break
        for a in new:
            ranks[a] = stage
        current |= new
    return current, ranks


def _interpretations(atoms: tuple[str, ...]):
    order = sorted(atoms)
    for k in range(len(order) + 1):
        for combo in itertools.combinations(order, k):
            yield frozenset(combo)


def _check_cap(program: Program, cap: int):
    if len(program.atom_names) > cap:
        raise ResourceError(
            f"signature has {len(program.atom_names)} atoms, cap is {cap}")


def stable_models(program: Program, cap: int = 20):
    """All stable models, each paired with the stages ``least_model`` gives
    its atoms (a false atom has none), sorted by atom set."""
    _check_cap(program, cap)
    inputs = program.input_atoms()
    found = []
    for candidate in _interpretations(program.atom_names):
        if not all(c.satisfied(candidate) for c in program.constraints()):
            continue
        lm, ranks = least_model(reduct(program, candidate), candidate & inputs)
        if lm == candidate:
            found.append((candidate, ranks))
    found.sort(key=lambda pair: tuple(sorted(pair[0])))
    return found


def module_ranking(program: Program, scope: frozenset, model: frozenset) -> dict:
    """Module-local derivation stages of the scope atoms under ``model``,
    infinity for false ones (see the module docstring); ``ValueError``
    if the model is not stable for the module."""
    defined = scope & program.heads()
    lm, ranks = least_model([r for r in reduct(program, model) if r.head in scope],
                            model - defined)
    if lm != model:
        raise ValueError("model is not stable for the module")
    return {atom: ranks[atom] if atom in model else INFINITY for atom in scope}
