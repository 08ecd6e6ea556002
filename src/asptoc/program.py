"""Core data model for ground programs.

Every rule is kept in one canonical shape, a generalized weight rule:
an optional head, a weighted body (positive, negative and double-negated
literals), a lower bound and an optional upper bound.  Plain conjunctive
rules are weight rules with unit weights whose lower bound equals the
body size; a choice head turns into an extra double-negated literal on
the head atom with the bound raised accordingly.  This single shape lets
the dependency graph, the semantics oracle and the translator share one
satisfaction test: ``lower <= weight_sum(I, body) (<= upper)``.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Iterable, Optional

from .node import Node

INFINITY = float("inf")


class ResourceError(Exception):
    """A program or formula set exceeds a size cap of the exhaustive
    checkers."""


class Polarity(enum.Enum):
    POSITIVE = "pos"
    NEGATIVE = "neg"
    DOUBLE_NEGATED = "dneg"

    def __repr__(self) -> str:
        return self.value


_PREFIX = {Polarity.POSITIVE: "", Polarity.NEGATIVE: "not ",
           Polarity.DOUBLE_NEGATED: "not not "}


class WeightedLiteral(Node, fields="atom polarity weight"):
    """One body literal: an atom, its polarity and its weight."""

    __slots__ = ()

    def __new__(cls, atom: str, polarity: Polarity = Polarity.POSITIVE, weight: int = 1):
        if weight < 0:
            raise ValueError(f"negative weight {weight} on {_PREFIX[polarity]}{atom}")
        return tuple.__new__(cls, (atom, polarity, weight))

    def satisfied(self, interp: frozenset) -> bool:
        if self.polarity is Polarity.NEGATIVE:
            return self.atom not in interp
        return self.atom in interp


class Rule(Node, fields="head body lower upper"):
    """Canonical generalized weight rule.

    Invariants: bounds and weights are non-negative; ``head is None``
    marks a constraint.  The rule keeps no source spelling: ``a :- b, c.``
    and ``a :- 2 <= { b, c }.`` are one rule, and a choice rule is the rule
    whose body ends in the double-negated head literal.  ``lower <= upper``
    is not required (such rules are legal and never applicable).
    """

    __slots__ = ()

    def __new__(cls, head: Optional[str], body: tuple[WeightedLiteral, ...], lower: int,
                upper: Optional[int] = None):
        if lower < 0:
            raise ValueError("lower bound must be non-negative")
        if upper is not None and upper < 0:
            raise ValueError("upper bound must be non-negative")
        return tuple.__new__(cls, (head, body, lower, upper))

    def literals(self, *polarities: Polarity) -> tuple[WeightedLiteral, ...]:
        wanted = polarities or tuple(Polarity)
        return tuple(wl for wl in self.body if wl.polarity in wanted)

    def pos_atoms(self) -> tuple[str, ...]:
        return tuple(wl.atom for wl in self.literals(Polarity.POSITIVE))

    def body_satisfied(self, interp: frozenset) -> bool:
        total = weight_sum(interp, self.body)
        if total < self.lower:
            return False
        return self.upper is None or total <= self.upper

    def satisfied(self, interp: frozenset) -> bool:
        """Classical satisfaction; the canonical choice body makes choice
        rules vacuously satisfied, so no special case is needed."""
        if not self.body_satisfied(interp):
            return True
        if self.head is None:
            return False
        return self.head in interp


class Program(Node, fields="rules atom_names hidden"):
    """Rules over the atoms ``atom_names``; ``hidden`` names the atoms that
    model projection leaves out."""

    def __new__(cls, rules: tuple[Rule, ...], atom_names: tuple[str, ...],
                hidden: Iterable[str]):
        known = set(atom_names)
        if len(known) != len(atom_names):
            raise ValueError("duplicate atom in atom_names")
        missing = _mentioned(rules) - known
        if missing:
            raise ValueError(f"atoms missing from atom_names: {sorted(missing)}")
        return tuple.__new__(cls, (rules, atom_names, _checked_hidden(known, hidden)))

    @cached_property
    def head_index(self) -> dict[str, list[Rule]]:
        """Each head's defining rules in program order; read-only.  Built
        once, on first use, into the program's ``__dict__``; the fields
        cannot be set, so it never goes stale."""
        index: dict[str, list[Rule]] = {}
        for rule in self.rules:
            if rule.head is not None:
                index.setdefault(rule.head, []).append(rule)
        return index

    @property
    def visible_atoms(self) -> frozenset:
        return frozenset(self.atom_names) - self.hidden

    def heads(self) -> frozenset:
        return frozenset(self.head_index)

    def input_atoms(self) -> frozenset:
        """Atoms without defining rules; they vary freely like choice atoms."""
        return frozenset(self.atom_names).difference(self.head_index)

    def constraints(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.head is None)


def program_of(rules: Iterable[Rule], extra_atoms: Iterable[str] = (),
               hidden: Iterable[str] = ()) -> Program:
    """Build a program over the atoms its rules mention and ``extra_atoms``,
    in name order.  The rules' atoms are among them by construction, so
    only the checks on the names from outside the rules are made."""
    rules = tuple(rules)
    names = _mentioned(rules)
    names.update(extra_atoms)
    return tuple.__new__(Program, (rules, tuple(sorted(names)), _checked_hidden(names, hidden)))


def _mentioned(rules: tuple[Rule, ...]) -> set[str]:
    names = {wl.atom for rule in rules for wl in rule.body}
    names.update(rule.head for rule in rules)
    names.discard(None)
    return names


def _checked_hidden(known: set[str], hidden: Iterable[str]) -> frozenset:
    """``hidden`` as a set, once no known name is empty and each hidden one is known."""
    if "" in known:
        raise ValueError("atom name must be non-empty")
    hidden = frozenset(hidden)
    if not hidden <= known:
        raise ValueError(f"hidden atoms missing from atom_names: {sorted(hidden - known)}")
    return hidden


def weight_sum(interp: frozenset, body: Iterable[WeightedLiteral]) -> int:
    """Total weight of the body literals satisfied by ``interp``."""
    return sum(wl.weight for wl in body if wl.satisfied(interp))


def normal_rule(head: str, pos: Iterable[str] = (), neg: Iterable[str] = ()) -> Rule:
    """Convenience constructor used throughout the test suite."""
    body = [WeightedLiteral(a) for a in pos]
    body += [WeightedLiteral(a, Polarity.NEGATIVE) for a in neg]
    return Rule(head, tuple(body), lower=len(body))
