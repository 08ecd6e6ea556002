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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

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


@dataclass(frozen=True, order=True, slots=True)
class Atom:
    """A named propositional atom; ``visible`` drives model projection."""

    name: str
    visible: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("atom name must be non-empty")


@dataclass(frozen=True, order=True, slots=True)
class Literal:
    atom: str
    polarity: Polarity = Polarity.POSITIVE

    def satisfied(self, interp: frozenset) -> bool:
        if self.polarity is Polarity.NEGATIVE:
            return self.atom not in interp
        return self.atom in interp

    def __str__(self) -> str:
        prefix = {
            Polarity.POSITIVE: "",
            Polarity.NEGATIVE: "not ",
            Polarity.DOUBLE_NEGATED: "not not ",
        }[self.polarity]
        return prefix + self.atom


@dataclass(frozen=True, order=True, slots=True)
class WeightedLiteral:
    literal: Literal
    weight: int = 1

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"negative weight {self.weight} on {self.literal}")


class Origin(enum.Enum):
    NORMAL = "normal"
    CHOICE = "choice"
    CARDINALITY = "cardinality"
    WEIGHT = "weight"
    CONVEX = "convex"
    CONSTRAINT = "constraint"
    FACT = "fact"


@dataclass(frozen=True, slots=True)
class Rule:
    """Canonical generalized weight rule.

    Invariants: ``head is None`` exactly for constraints; ``choice`` implies
    the body carries the double-negated head literal; normal/choice rules
    have unit weights and ``lower`` equal to the total body weight.  An
    upper bound marks a convex rule; ``lower <= upper`` is not required
    (such rules are legal and never applicable).
    """

    head: Optional[str]
    body: tuple[WeightedLiteral, ...]
    lower: int
    upper: Optional[int] = None
    choice: bool = False
    origin: Origin = Origin.NORMAL

    def __post_init__(self) -> None:
        if (self.head is None) != (self.origin is Origin.CONSTRAINT):
            raise ValueError("headless rules must have constraint origin")
        if self.choice and self.origin is not Origin.CHOICE:
            raise ValueError("choice flag requires choice origin")
        if self.lower < 0:
            raise ValueError("lower bound must be non-negative")
        if self.upper is not None and self.upper < 0:
            raise ValueError("upper bound must be non-negative")
        if self.upper is not None and self.origin not in (Origin.CONVEX, Origin.CONSTRAINT):
            raise ValueError("upper bound requires convex origin")

    def literals(self, *polarities: Polarity) -> tuple[WeightedLiteral, ...]:
        wanted = polarities or tuple(Polarity)
        return tuple(wl for wl in self.body if wl.literal.polarity in wanted)

    def pos_atoms(self) -> tuple[str, ...]:
        return tuple(wl.literal.atom for wl in self.literals(Polarity.POSITIVE))

    def body_atoms(self) -> tuple[str, ...]:
        return tuple(wl.literal.atom for wl in self.body)

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


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...]
    signature: tuple[Atom, ...] = field(default=())

    def __post_init__(self) -> None:
        known = {a.name for a in self.signature}
        if len(known) != len(self.signature):
            raise ValueError("duplicate atom in signature")
        mentioned = {wl.literal.atom for rule in self.rules for wl in rule.body}
        mentioned.update(rule.head for rule in self.rules)
        mentioned.discard(None)
        missing = mentioned - known
        if missing:
            raise ValueError(f"atoms missing from signature: {sorted(missing)}")

    # The indexes below are built once, on first use; the dataclass is
    # frozen, so they never go stale.

    @cached_property
    def atom_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.signature)

    @cached_property
    def atom_set(self) -> frozenset:
        return frozenset(self.atom_names)

    @cached_property
    def head_index(self) -> dict[str, list[Rule]]:
        """Each head's defining rules in program order; read-only."""
        index: dict[str, list[Rule]] = {}
        for rule in self.rules:
            if rule.head is not None:
                index.setdefault(rule.head, []).append(rule)
        return index

    @property
    def visible_atoms(self) -> frozenset:
        return frozenset(a.name for a in self.signature if a.visible)

    def heads(self) -> frozenset:
        return frozenset(self.head_index)

    def input_atoms(self) -> frozenset:
        """Atoms without defining rules; they vary freely like choice atoms."""
        return self.atom_set - self.heads()

    def constraints(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.head is None)


def program_of(rules: Iterable[Rule], extra_atoms: Iterable[str] = (),
               hidden: Iterable[str] = ()) -> Program:
    """Build a program, deriving the signature from the rules."""
    rules = tuple(rules)
    names = {wl.literal.atom for rule in rules for wl in rule.body}
    names.update(rule.head for rule in rules)
    names.discard(None)
    names.update(extra_atoms)
    hidden = set(hidden)
    signature = tuple(Atom(n, visible=n not in hidden) for n in sorted(names))
    return Program(rules, signature)


def def_of(atom: str, program: Program) -> list[Rule]:
    """Defining rules of ``atom`` in program order, read from the program's
    head index (built once, so each call costs only its result)."""
    if atom not in program.atom_set:
        raise KeyError(f"unknown atom {atom!r}")
    return list(program.head_index.get(atom, ()))


def weight_sum(interp: frozenset, body: Iterable[WeightedLiteral]) -> int:
    """Total weight of the body literals satisfied by ``interp``."""
    return sum(wl.weight for wl in body if wl.literal.satisfied(interp))


def normal_rule(head: str, pos: Iterable[str] = (), neg: Iterable[str] = ()) -> Rule:
    """Convenience constructor used throughout the test suite."""
    body = [WeightedLiteral(Literal(a)) for a in pos]
    body += [WeightedLiteral(Literal(a, Polarity.NEGATIVE)) for a in neg]
    origin = Origin.NORMAL if body else Origin.FACT
    return Rule(head, tuple(body), lower=len(body), origin=origin)
