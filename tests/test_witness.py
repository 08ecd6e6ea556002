"""A witness check past the model finder's reach.

The finder enumerates the models of programs of a few atoms; this check
takes a ranked program of about 2,000 rules whose stable model is known
by construction and evaluates that one model on the translation.
"""

import random

import pytest

from asptoc.formulas import Aux, Iff, LevelVar, Var, Z, eval_formula
from asptoc.fuzz import ranked_scopes
from asptoc.oracle import least_model, module_ranking, reduct
from asptoc.parser import parse_program
from asptoc.program import INFINITY
from asptoc.toc import toc_program

from test_cli import MODES, mode_id, mode_options

RINGS = 4


def _lit(atom: str, positive: bool) -> str:
    return atom if positive else f"not {atom}"


def witness_program(rng: random.Random, n_rules: int):
    """The source of a program of ``n_rules`` rules and a stable model of
    it, planned before the rules are drawn.

    Choice atoms ``i<k>`` are the inputs.  ``RINGS`` rings of atoms
    ``r<r>_<k>`` follow, each a cycle ``r_k :- r_<k+1>`` whose edges carry
    an extra literal over the atoms before the ring; each ring reads the
    rings before it.  A true ring atom is derived through the cycle from
    its true successor, or, where its successor is false and at random
    elsewhere, by an entry rule over the atoms before the ring: normal,
    weight or convex.  Every body of a false head fails in the model:
    its edge when the successor is true carries a false extra literal,
    and its weight and convex chords over the ring and the atoms before
    it miss their window.  Chords of true heads are drawn freely.
    Constraints that the model satisfies fill up the count.
    """
    n_ring = n_rules // 10
    inputs = [f"i{k}" for k in range(max(8, n_rules // 20))]
    true = {a for a in inputs if rng.random() < 0.6}
    rules = [f"{{{a}}}." for a in inputs]
    outside = list(inputs)

    def literal(value: bool) -> str:
        """A literal over the atoms before the ring that is ``value`` in
        the model."""
        atom = rng.choice(outside)
        positive = rng.random() < 0.5
        if (atom in true) != (positive == value):
            positive = not positive
        return _lit(atom, positive)

    def aggregate(head: str, atoms: list, value: bool):
        """A weight or convex rule for ``head`` over ``atoms``, each read
        positively or negated, whose body is ``value`` in the model."""
        items, total = [], 0
        for atom in atoms:
            positive, weight = rng.random() < 0.7, rng.randint(1, 3)
            items.append(f"{_lit(atom, positive)}={weight}")
            total += weight * ((atom in true) == positive)
        convex = rng.random() < 0.5
        if value:
            lower = rng.randint(1, total) if total else 0
            upper = total + rng.randint(0, 2) if convex else None
        elif convex and total:
            lower, upper = 0, rng.randint(0, total - 1)
        else:
            lower, upper = total + rng.randint(1, 3), None
        body = f"{lower} <= {{ {', '.join(items)} }}"
        rules.append(f"{head} :- {body}." if upper is None else f"{head} :- {body} <= {upper}.")

    for r in range(RINGS):
        ring = [f"r{r}_{k}" for k in range(n_ring)]
        value = [rng.random() < 0.75 for _ in ring]
        true.update(a for a, v in zip(ring, value) if v)
        for k, head in enumerate(ring):
            succ = (k + 1) % n_ring
            entry = value[k] and (not value[succ] or rng.random() < 0.2)
            # a true head with no entry rule is derived through its edge
            edge = [ring[succ]] + [literal(value[k] and not entry)] * (rng.random() < 0.5)
            if not value[k] and value[succ]:
                edge = [ring[succ], literal(False)]
            rules.append(f"{head} :- {', '.join(edge)}.")
            if entry:
                if rng.randrange(3) == 0:
                    rules.append(f"{head} :- {literal(True)}, {literal(True)}.")
                else:
                    aggregate(head, rng.sample(outside, 3), True)
            if rng.random() < 0.5:
                others = rng.sample([a for a in ring if a != head], 2)
                aggregate(head, others + rng.sample(outside, 2), value[k] and rng.random() < 0.5)
            if not value[k] and rng.random() < 0.2:
                rules.append(f"{head} :- {literal(False)}, {literal(True)}.")
        outside += ring
    while len(rules) < n_rules:
        rules.append(f":- {literal(False)}, {literal(True)}.")
    return "\n".join(rules), frozenset(true)


def aux_values(formulas, bools: dict, ints: dict):
    """Give every auxiliary atom the value of its ``Iff`` definition,
    evaluated once the atoms it reads have values."""
    pending = [(f.left.atom.name, f.right) for _, f in formulas
               if type(f) is Iff and type(f.left) is Var and type(f.left.atom) is Aux]
    while pending:
        waiting = []
        for name, body in pending:
            try:
                bools[name] = eval_formula(body, bools, ints)
            except KeyError:
                waiting.append((name, body))
        assert len(waiting) < len(pending), "auxiliary definitions read each other in a cycle"
        pending = waiting


@pytest.fixture(scope="module")
def witnessed():
    source, model = witness_program(random.Random(5), 2000)
    program = parse_program(source)
    stable, _ = least_model(reduct(program, model), model & program.input_atoms())
    assert stable == model and all(c.satisfied(model) for c in program.constraints())
    return program, model


def test_witness_program_is_ranked_and_large(witnessed):
    program, model = witnessed
    assert len(program.rules) == 2000
    assert len(ranked_scopes(program)) == RINGS
    assert 0 < len(model) < len(program.atom_names)


@pytest.mark.parametrize("flags", MODES, ids=mode_id)
def test_known_stable_model_satisfies_the_translation(witnessed, flags):
    """The stable model built into a 2,000-rule ranked program, extended
    with the oracle's module ranks (a false atom at its scope's size plus
    one) and each auxiliary atom's value from its definition, satisfies
    every formula of ``toc_program``'s list set.  This checks only that
    no stable model is lost, not that no other model is added."""
    program, model = witnessed
    options = mode_options(flags)
    fs = toc_program(program, **options)
    ints = {Z.name: 0}
    for scope in ranked_scopes(program, options["scope_mode"]):
        ranks = module_ranking(program, scope, model)
        for atom in scope:
            ints[LevelVar(atom).name] = len(scope) + 1 if ranks[atom] == INFINITY else ranks[atom]
    bools = {atom: atom in model for atom in fs.base_atoms}
    aux_values(fs.formulas, bools, ints)
    failed = [name for name, f in fs.formulas if not eval_formula(f, bools, ints)]
    assert failed == []
