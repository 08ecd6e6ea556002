"""Seeded program generators for the benchmark workloads.

Each generator takes a ``random.Random`` and returns the program text with
what the output checks need: for the translate workloads a stable model
known by construction (the witness) and the positively recursive
components the program was built with.  Atom names come from
:func:`atom_names`, which draws from the parser's whole identifier
alphabet ``[a-z][A-Za-z0-9_]*``: a seeded share of names carries an inner
``__`` and a seeded share is an SMT-LIB reserved word, because real inputs
have both.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

# SMT-LIB 2.6 reserved words and Core/Ints theory symbols that are legal
# atom names ("not" is the parser's negation keyword and cannot be one).
RESERVED = ("true", "false", "and", "or", "xor", "ite", "let", "assert",
            "distinct", "par", "exists", "forall", "match", "as", "div",
            "mod", "abs")
_FIRST = string.ascii_lowercase
_REST = string.ascii_letters + string.digits + "_"


def _word(rng: random.Random, length: int) -> str:
    return rng.choice(_FIRST) + "".join(rng.choice(_REST) for _ in range(length - 1))


def atom_names(rng: random.Random, count: int, *, inner_share: float = 0.1,
               reserved_share: float = 0.05) -> list[str]:
    """``count`` distinct atom names in seeded order."""
    names: list[str] = []
    seen: set = {"not"}
    reserved = list(RESERVED)
    rng.shuffle(reserved)
    while len(names) < count:
        roll = rng.random()
        if roll < reserved_share and reserved:
            name = reserved.pop()
        elif roll < reserved_share + inner_share:
            name = f"{_word(rng, rng.randint(1, 4))}__{_word(rng, rng.randint(1, 4))}"
        else:
            name = _word(rng, rng.randint(1, 8))
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


@dataclass(frozen=True)
class Generated:
    """A generated program with the facts its output check needs."""

    source: str
    rules: int
    witness: frozenset | None = None  # a stable model, when known by construction
    scopes: tuple = ()                # positively recursive components


def _deck(rng: random.Random, n: int, share: float):
    """``n`` seeded coin flips of which exactly ``round(n * share)`` are
    heads, so that the mix of rule forms, and with it the cost of a
    program, does not drift from seed to seed."""
    heads = round(n * share)
    flips = [True] * heads + [False] * (n - heads)
    rng.shuffle(flips)
    return iter(flips)


def _cycle(rng: random.Random, n: int, choices) -> list:
    """``n`` picks from ``choices`` in equal numbers, in seeded order."""
    picks = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(picks)
    return picks


def _lit(atom: str, positive: bool) -> str:
    return atom if positive else f"not {atom}"


class _Builder:
    """Emits rules whose bodies hold or fail in the witness ``true`` as the
    caller asks, so the witness stays a stable model."""

    def __init__(self, rng: random.Random, true: set):
        self.rng = rng
        self.true = true
        self.lines: list[str] = []
        self.rules = 0

    def holds(self, lit: str) -> bool:
        atom = lit.removeprefix("not ")
        return (atom in self.true) != (atom != lit)

    def lit(self, atom: str, value: bool) -> str:
        """The literal over ``atom`` that evaluates to ``value``."""
        return atom if (atom in self.true) == value else f"not {atom}"

    def rule(self, head: str | None, body: list[str], choice: bool = False) -> None:
        text = f"{{{head}}}" if choice else (head or "")
        if body:
            text += (" :- " if head else ":- ") + ", ".join(body)
        self.lines.append(text + ".")
        self.rules += 1

    def aggregate(self, head: str | None, lits: list[str], holds: bool,
                  convex: bool, weighted: bool = True) -> None:
        """Weight, cardinality or convex rule over ``lits`` whose body holds
        in the witness exactly when ``holds``."""
        rng = self.rng
        weights = [rng.randint(1, 5) if weighted else 1 for _ in lits]
        value = sum(w for l, w in zip(lits, weights) if self.holds(l))
        if not holds and value == sum(weights) and not (convex and value):
            # every literal holds: add a failing one so a lower bound can
            # exceed the witness value
            atom = lits[0].removeprefix("not ")
            lits = lits + [self.lit(atom, False)]
            weights.append(1)
        total = sum(weights)
        if holds:
            lower = rng.randint(0 if weighted else 1, value) if value else 0
            upper = rng.randint(value, total)
        elif convex and value and (value == total or rng.random() < 0.5):
            lower = rng.randint(0, value - 1)
            upper = rng.randint(lower, value - 1)
        else:
            lower = rng.randint(value + 1, total)
            upper = rng.randint(lower, total)
        if weighted:
            items = ", ".join(f"{l}={w}" for l, w in zip(lits, weights))
        else:
            items = ", ".join(lits)
        text = f"{lower} <= {{ {items} }}" + (f" <= {upper}" if convex else "")
        self.lines.append(f"{head} :- {text}." if head else f":- {text}.")
        self.rules += 1

    def conj(self, atoms: list[str], holds: bool) -> list[str]:
        """Literals over ``atoms`` with mixed polarity whose conjunction
        holds in the witness exactly when ``holds``."""
        body = [self.lit(a, True) for a in atoms]
        if not holds:
            i = self.rng.randrange(len(body))
            body[i] = self.lit(atoms[i], False)
        return body

    def hide(self, atoms: list[str]) -> None:
        self.lines.append(f"#hide {', '.join(atoms)}.")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


_FORMS = ("normal", "normal", "choice", "cardinality", "weight", "convex")


def _stratified_rule(b: _Builder, head: str, earlier: list[str], holds: bool,
                     form: str) -> None:
    """A rule for ``head`` over atoms strictly earlier in a stratified
    order; its body holds in the witness exactly when ``holds``."""
    rng = b.rng
    atoms = rng.sample(earlier, min(rng.randint(1, 4), len(earlier)))
    if form in ("normal", "choice"):
        b.rule(head, b.conj(atoms, holds), choice=form == "choice")
        return
    lits = [b.lit(a, rng.random() < 0.6) for a in atoms]
    b.aggregate(head, lits, holds, form == "convex", weighted=form != "cardinality")


def tight_program(rng: random.Random, n_rules: int) -> Generated:
    """A program whose positive dependency graph is acyclic.  It mixes
    facts, normal, choice, cardinality, weight and convex rules, negation
    and integrity constraints.  Every body refers only to atoms earlier in
    a fixed order, so the witness follows rule by rule: a head is true when
    a non-choice body holds, or a choice body holds and a seeded coin
    says so."""
    n_inputs = max(3, n_rules // 8)
    n_derived = max(2, n_rules * 3 // 5)
    names = atom_names(rng, n_inputs + n_derived)
    inputs, derived = names[:n_inputs], names[n_inputs:]
    true = {a for a, v in zip(inputs, _deck(rng, n_inputs, 0.5)) if v}
    b = _Builder(rng, true)
    n_constraints = max(1, n_rules // 20)
    counts = [1] * n_derived
    for _ in range(max(0, n_rules - n_derived - n_constraints)):
        counts[rng.randrange(n_derived)] += 1
    total = sum(counts)
    forms = iter(_cycle(rng, total, _FORMS))
    holds_deck, fact_deck, pick_deck = (_deck(rng, total, share) for share in (0.5, 0.05, 0.5))
    order = list(inputs)
    for head, count in zip(derived, counts):
        value = False
        for _ in range(count):
            form, holds, pick = next(forms), next(holds_deck), next(pick_deck)
            if next(fact_deck):
                b.rule(head, [])
                holds, form = True, "normal"
            else:
                _stratified_rule(b, head, order, holds, form)
            value = value or (holds and (form != "choice" or pick))
        if value:
            true.add(head)
        order.append(head)
    for _ in range(n_constraints):
        atoms = rng.sample(order, 2)
        if rng.random() < 0.5:
            b.rule(None, b.conj(atoms, False))
        else:
            b.aggregate(None, [b.lit(a, rng.random() < 0.5) for a in atoms], False,
                        convex=False)
    if rng.random() < 0.5:
        b.hide(rng.sample(order, max(1, len(order) // 40)))
    return Generated(b.source(), b.rules, frozenset(true))


RINGS = 3


def ranked_program(rng: random.Random, n_rules: int) -> Generated:
    """A program whose positive dependency graph has ``RINGS`` large
    strongly connected components, each a cycle ``c_i :- c_{i+1}`` with
    weight and convex chords inside it.  Later rings also depend
    positively on earlier ones.

    The witness is planned first: each ring atom is true or false, and a
    true atom is derived either through the cycle from its true successor
    or, every few positions and wherever its successor is false, by an
    entry rule over atoms outside the ring.  Bodies of false heads fail in
    the witness; chords of true heads are unconstrained.
    """
    n_atoms = max(RINGS * 3, n_rules * 10 // 19)
    n_inputs = max(3, n_atoms // 10)
    names = atom_names(rng, n_inputs + n_atoms)
    inputs = names[:n_inputs]
    true = {a for a, v in zip(inputs, _deck(rng, n_inputs, 0.6)) if v}
    b = _Builder(rng, true)
    outside = list(inputs)
    scopes = []
    size = n_atoms // RINGS
    for r in range(RINGS):
        ring = names[n_inputs + r * size: n_inputs + (r + 1) * size]
        m = len(ring)
        value = list(_deck(rng, m, 0.8))
        true.update(a for a, v in zip(ring, value) if v)
        extras, blocks, chords, convex, holding = (
            _deck(rng, m, share) for share in (0.3, 0.2, 0.45, 0.5, 0.5))
        entry_forms = iter(_cycle(rng, m, ("normal", "choice", "weight", "convex")))
        run = 0
        for i in reversed(range(m)):
            head, succ = ring[i], ring[(i + 1) % m]
            run = run + 1 if value[i] else 0
            entry = value[i] and run % 6 == 1  # also every run's first atom
            extra = [b.lit(rng.choice(outside), value[i] and not entry)] \
                if next(extras) else []
            if not value[i] and value[(i + 1) % m]:
                extra = [b.lit(rng.choice(outside), False)]
            b.rule(head, [succ] + extra)  # the cycle edge
            block = next(blocks)
            if entry:
                _stratified_rule(b, head, outside, True, next(entry_forms))
            elif not value[i] and block:
                _stratified_rule(b, head, outside, False,
                                 rng.choice(("normal", "choice")))
            chord, is_convex, holds = next(chords), next(convex), next(holding)
            if chord:
                # two or three other ring atoms plus two outside literals
                others = [o for o in rng.sample(ring, min(4, m)) if o != head]
                lits = others[:rng.randint(2, 3)]
                lits += [b.lit(a, rng.random() < 0.5)
                         for a in rng.sample(outside, min(2, len(outside)))]
                b.aggregate(head, lits, holds and value[i], convex=is_convex)
        scopes.append(frozenset(ring))
        outside.extend(ring)
    while b.rules < n_rules:
        atoms = rng.sample(outside, 2)
        b.rule(None, b.conj(atoms, False))
    if rng.random() < 0.5:
        b.hide(rng.sample(outside, max(1, len(outside) // 40)))
    return Generated(b.source(), b.rules, frozenset(true), tuple(scopes))


def solve_program(rng: random.Random, kind: str) -> Generated:
    """A small program for ``solve --all`` with a stable-model count fixed
    by its kind, so that every seed asks the solver equally often.

    ``random`` and ``hidden``: two freely chosen atoms and three atoms
    derived from them by a normal, a weight and a convex rule, two of them
    also through a positive loop; negation and upper bounds refer only to
    the free atoms.  ``random``
    adds a constraint over the free atoms and has three stable models,
    ``hidden`` hides one atom and has four.  ``collision`` has two loops
    whose atom names share an inner ``__`` (``x__y :- z. z :- x__y.
    x :- y__z. y__z :- x.``) and four stable models; ``reserved`` makes an
    SMT-LIB reserved word a choice atom and has two.
    """
    if kind == "collision":
        x, y, z = atom_names(rng, 3, inner_share=0.0, reserved_share=0.0)
        a, b = f"{x}__{y}", f"{y}__{z}"
        text = f"{a} :- {z}.\n{z} :- {a}.\n{x} :- {b}.\n{b} :- {x}.\n{{{z}}}.\n{{{x}}}.\n"
        return Generated(text, 6)
    if kind == "reserved":
        word = rng.choice(RESERVED)
        (other,) = atom_names(rng, 1, reserved_share=0.0)
        return Generated(f"{{{word}}}.\n{other} :- {word}.\n", 2)
    names = atom_names(rng, 5)
    free, derived = names[:2], names[2:]
    b = _Builder(rng, set())
    for atom in free:
        if rng.random() < 0.7:
            b.rule(atom, [], choice=True)
        else:
            b.lines.append(f"#atom {atom}.")  # an input atom, free as well
    earlier = list(free)
    for atom, form in zip(derived, _cycle(rng, 3, ("normal", "weight", "convex"))):
        # an upper bound over derived atoms would act like negation
        pos = rng.sample(free if form == "convex" else earlier, 2)
        lits = pos + [f"not {n}" for n in rng.sample(free, 1) if n not in pos]
        if form == "normal":
            b.rule(atom, lits)
        else:
            weights = [rng.randint(1, 3) for _ in lits]
            lower = rng.randint(1, sum(weights))
            items = ", ".join(f"{l}={w}" for l, w in zip(lits, weights))
            upper = f" <= {rng.randint(lower, sum(weights))}" if form == "convex" else ""
            b.lines.append(f"{atom} :- {lower} <= {{ {items} }}{upper}.")
            b.rules += 1
        earlier.append(atom)
    d1, d2 = rng.sample(derived, 2)
    b.rule(d1, [d2])  # with d2's own rule this closes a positive loop
    b.rule(d2, [d1])
    if kind == "random":
        b.rule(None, [_lit(free[0], rng.random() < 0.5), _lit(free[1], rng.random() < 0.5)])
    else:
        b.hide(rng.sample(names, 1))
    return Generated(b.source(), b.rules)
