"""Reference semantics only the tests use: supported models, level
numberings, modules as stand-alone programs, model projections and a
brute-force model finder.

They check the oracle and the model finder from a second angle, and no
command of asptoc needs them, so they live beside the tests.  The module
program gives the oracle's module ranks a second derivation: the least
model of the module's own reduct, where the oracle reads the scope's
rules off the whole program's reduct.
"""

import itertools
from dataclasses import dataclass, field

from asptoc.dlcheck import DLModel
from asptoc.formulas import FormulaSet, LevelVar, Z, eval_formula, ref_name, var_name
from asptoc.oracle import (
    PositiveRule,
    _check_cap,
    _interpretations,
    aggregate_reduct,
    least_model,
    reduct,
    tp_step,
)
from asptoc.program import INFINITY, Polarity, Program, program_of, weight_sum


def supported_models(program: Program, cap: int = 20):
    """Fixed points of the one-step operator on the reduct; a superset of
    the stable models."""
    _check_cap(program, cap)
    inputs = program.input_atoms()
    found = []
    for candidate in _interpretations(program.atom_names):
        if not all(c.satisfied(candidate) for c in program.constraints()):
            continue
        step = tp_step(reduct(program, candidate), candidate) | (candidate & inputs)
        if step == candidate:
            found.append(candidate)
    found.sort(key=lambda m: tuple(sorted(m)))
    return found


@dataclass(frozen=True)
class LevelNumbering:
    atoms: dict
    rules: dict = field(default_factory=dict)  # program rule index -> level


def _stages(reduct_rules, input_atoms):
    stages = [frozenset(input_atoms)]
    while True:
        nxt = stages[-1] | tp_step(reduct_rules, stages[-1])
        if nxt == stages[-1]:
            return stages
        stages.append(nxt)


def level_numbering(program: Program, model: frozenset) -> LevelNumbering:
    """Levels of atoms and rules under a stable model.

    A supporting rule's level is one past the first stage at which its
    reduct body holds, which reduces to max over positive body levels
    plus one for plain conjunctive rules.
    """
    inputs = program.input_atoms()
    red = reduct(program, model)
    lm, ranks = least_model(red, model & inputs)
    if lm != model:
        raise ValueError("interpretation is not a stable model")
    atom_levels = {a: ranks.get(a, INFINITY) for a in program.atom_names}

    stages = _stages(red, model & inputs)
    rule_levels = {}
    for idx, rule in enumerate(program.rules):
        if rule.head is None:
            continue
        if not rule.body_satisfied(model):
            rule_levels[idx] = INFINITY
            continue
        if rule.upper is not None:
            positive = aggregate_reduct(rule, model)
        else:
            fixed = weight_sum(model, rule.literals(Polarity.NEGATIVE,
                                                    Polarity.DOUBLE_NEGATED))
            terms = tuple((wl.atom, wl.weight)
                          for wl in rule.literals(Polarity.POSITIVE))
            positive = PositiveRule(rule.head, terms, lower=max(0, rule.lower - fixed))
        level = INFINITY
        for j, stage in enumerate(stages):
            if positive.body_satisfied(stage):
                level = j + 1
                break
        rule_levels[idx] = level
    return LevelNumbering(atom_levels, rule_levels)


def module_program(program: Program, scope: frozenset) -> Program:
    """The module as a stand-alone program: atoms outside the scope keep no
    defining rules and therefore vary freely as inputs."""
    rules = tuple(r for r in program.rules if r.head in scope)
    names = set(scope)
    for rule in rules:
        names.update(rule.body_atoms())
    return program_of(rules, extra_atoms=names)


def module_least_model_ranks(program: Program, scope: frozenset, model: frozenset) -> dict:
    """Module ranks through ``module_program``: the least model of the
    module's own reduct, seeded with its input atoms that ``model`` makes
    true; ``ValueError`` if that least model is not ``model`` on the
    module's atoms."""
    sub = module_program(program, scope)
    restricted = model & sub.atom_set
    lm, ranks = least_model(reduct(sub, restricted), restricted & sub.input_atoms())
    if lm != restricted:
        raise ValueError("model is not stable for the module")
    return {atom: ranks[atom] if atom in restricted else INFINITY for atom in scope}


def project_models(models, visible) -> list[frozenset]:
    """Projections of finder models to the visible atoms, duplicates
    preserved."""
    visible = frozenset(visible)
    return [frozenset(n for n, v in m.props if v and n in visible) for m in models]


def brute_force_models(fs: FormulaSet) -> list[DLModel]:
    """Every assignment over the declared vocabulary, each ranking variable
    at every value of its ``level_bounds`` range and ``z`` at 0, on which
    ``eval_formula`` holds for every formula: no grouping, no variable
    order, no early cut."""
    names = sorted([*fs.base_atoms, *map(ref_name, fs.aux_atoms)])
    owners = sorted(fs.level_bounds)
    ranges = [range(lo, hi + 1) for lo, hi in map(fs.level_bounds.get, owners)]
    found = []
    for bits in itertools.product((False, True), repeat=len(names)):
        bools = dict(zip(names, bits))
        for ranks in itertools.product(*ranges):
            ints = {var_name(LevelVar(o)): r for o, r in zip(owners, ranks)}
            if owners:
                ints[var_name(Z)] = 0
            if all(eval_formula(f, bools, ints) for _, f in fs.formulas):
                found.append(DLModel(tuple(sorted(bools.items())),
                                     tuple(sorted(ints.items()))))
    return found
