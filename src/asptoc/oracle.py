"""Ground-truth semantics by brute force.

A candidate interpretation I is stable when it equals the least model of
its reduct, seeded with its input atoms (atoms without defining rules
vary freely, as if defined by choice rules), and satisfies every
constraint.  No solver shortcuts are taken; this module is the oracle
everything else is measured against.

Stable models are found by guess-and-check (Gelfond & Lifschitz 1988)
over the guess set G: the input atoms, every atom a headed rule reads
under ``not`` or ``not not``, and every body atom of a headed rule with
an upper bound.  ``reduct`` reads I only through G.  For a rule without
an upper bound, whether it is kept and the bound its reduct body asks
for follow from the weight of the ``not``/``not not`` literals I
satisfies; its positive terms are copied without being read.  A rule
with an upper bound is kept when I satisfies its whole body, which lies
in G, and its window is shifted by that same weight.  Constraints are
dropped from the reduct.  The seed I & inputs lies in G too.  So the
least model L(g) of the reduct of g = I & G, seeded with g & inputs, is
the very computation the definition makes for I, and I is stable
exactly when I = L(g) and I satisfies every constraint.  Hence
``stable_models`` takes each subset g of G, computes L = L(g), and keeps
L exactly when L & G = g (then L has the reduct and the seed of g, so L
is its own least model) and L satisfies every constraint.  Each stable
model M arises from exactly one g, M & G, with the stages the definition
gives it.

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


def _rule_data(rule: Rule) -> tuple:
    """What the reduct reads of a headed rule: the rule, its positive
    ``(atom, weight)`` terms, their total, and its negative and
    double-negated literals as ``(atom, negated, weight)``."""
    terms = tuple((wl.atom, wl.weight) for wl in rule.literals(Polarity.POSITIVE))
    conditions = tuple((wl.atom, wl.polarity is Polarity.NEGATIVE, wl.weight)
                       for wl in rule.literals(Polarity.NEGATIVE, Polarity.DOUBLE_NEGATED))
    return rule, terms, sum(w for _, w in terms), conditions


def _reduct(data: list[tuple], interp: frozenset) -> list[PositiveRule]:
    out = []
    for rule, terms, total, conditions in data:
        fixed = sum(w for a, negated, w in conditions if (a in interp) is not negated)
        if rule.upper is None:
            if total + fixed >= rule.lower:
                out.append(PositiveRule(rule.head, terms, max(0, rule.lower - fixed), None))
        elif rule.lower <= fixed + sum(w for a, w in terms if a in interp) <= rule.upper:
            out.append(PositiveRule(rule.head, terms, 0,
                                    (rule.lower - fixed, rule.upper - fixed)))
    return out


def aggregate_reduct(rule: Rule, interp: frozenset) -> PositiveRule:
    """Closure form of a both-bounds rule whose body ``interp`` satisfies."""
    if rule.upper is None:
        raise ValueError("rule carries no upper bound")
    if not rule.body_satisfied(interp):
        raise ValueError("body not satisfied; the rule is omitted from the reduct")
    return _reduct([_rule_data(rule)], interp)[0]


def reduct(program: Program, interp: frozenset) -> list[PositiveRule]:
    """Positive program relative to ``interp``; constraints are dropped and
    checked separately.

    A rule with an upper bound is kept exactly when ``interp`` satisfies
    its body, with the closure body of ``aggregate_reduct``.  A rule
    without one is kept exactly when its positive weights can still reach
    ``lower`` minus the weight of its satisfied negative and
    double-negated literals, and its reduct body asks for that remainder.
    With unit weights and ``lower`` equal to the body size, this is the
    conjunctive reading: the rule is deleted unless every negative and
    double-negated condition holds."""
    return _reduct([_rule_data(r) for r in program.rules if r.head is not None], interp)


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


def _interpretations(atoms):
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
    its atoms (a false atom has none), sorted by atom set.  Only the
    atoms the reduct reads are guessed (see the module docstring)."""
    _check_cap(program, cap)
    inputs = program.input_atoms()
    data = [_rule_data(r) for r in program.rules if r.head is not None]
    guessed = set(inputs)
    for rule, terms, _, conditions in data:
        guessed.update(a for a, _, _ in conditions)
        if rule.upper is not None:
            guessed.update(a for a, _ in terms)
    constraints = program.constraints()
    found = []
    for guess in _interpretations(guessed):
        lm, ranks = least_model(_reduct(data, guess), guess & inputs)
        if lm & guessed == guess and all(c.satisfied(lm) for c in constraints):
            found.append((lm, ranks))
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
