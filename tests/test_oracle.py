"""Semantics oracle: reduct, fixpoints, stable/supported models, levels."""

import itertools
import random

import pytest

from asptoc.fuzz import fuzz_corpus, ranked_scopes
from asptoc.oracle import (
    PositiveRule,
    ResourceError,
    least_model,
    module_ranking,
    reduct,
    stable_models,
    tp_step,
)
from asptoc.parser import parse_program
from asptoc.program import (
    INFINITY,
    Polarity,
    Rule,
    WeightedLiteral,
    normal_rule,
    program_of,
)
from references import (
    aggregate_reduct,
    level_numbering,
    module_least_model_ranks,
    naive_stable_models,
    supported_models,
)

EXAMPLE6 = """\
b5. b4 :- b5. b3 :- b4. b2 :- b3. b1 :- b2.
a :- 7 <= { b1=7, b2=5, b3=3, b4=2, b5=1 }.
"""


def interps(atoms):
    for k in range(len(atoms) + 1):
        for combo in itertools.combinations(sorted(atoms), k):
            yield frozenset(combo)


class TestReduct:
    def test_negative_condition_satisfied(self):
        p = parse_program("a :- not b. #atom b.")
        (rule,) = reduct(p, frozenset())
        assert rule.head == "a" and rule.body_satisfied(frozenset())

    def test_rule_deleted(self):
        p = parse_program("a :- not b. #atom b.")
        assert reduct(p, frozenset({"b"})) == []

    def test_choice_rule_needs_chosen_head(self):
        p = parse_program("{a} :- b.")
        kept = reduct(p, frozenset({"a", "b"}))
        assert len(kept) == 1 and kept[0].body_satisfied(frozenset({"b"}))
        assert reduct(p, frozenset({"b"})) == []

    def test_unreachable_bound_deleted(self):
        # with c true only b=1 counts, which can never reach 3
        p = parse_program("a :- 3 <= { b=1, not c=2 }.")
        assert reduct(p, frozenset({"b", "c"})) == []

    def test_weight_bound_adjustment(self):
        p = parse_program("a :- 7 <= { b1=7, b2=5, b3=3, b4=2, b5=1, not c=4 }.")
        (with_c,) = reduct(p, frozenset({"c"}))
        (without_c,) = reduct(p, frozenset())
        assert with_c.lower == 7
        assert without_c.lower == 3
        # cross-check satisfaction against the definition on every subset
        weights = {"b1": 7, "b2": 5, "b3": 3, "b4": 2, "b5": 1}
        for interp in interps(weights):
            total = sum(w for a, w in weights.items() if a in interp)
            assert with_c.body_satisfied(interp) == (total >= 7)
            assert without_c.body_satisfied(interp) == (total >= 3)

    def test_cardinality_bound_adjustment(self):
        p = parse_program("a :- 2 <= { b, not c, not d }.")
        (rule,) = reduct(p, frozenset({"c"}))
        assert rule.lower == 1

    def test_constraints_dropped(self):
        p = parse_program(":- a. a :- a.")
        assert len(reduct(p, frozenset())) == 1


class TestAggregateReduct:
    def test_upward_closure_by_enumeration(self):
        p = parse_program("a :- 2 <= { b1, b2, b3, b4 } <= 3.")
        closure = aggregate_reduct(p.rules[0], frozenset({"a", "b1", "b2", "b3"}))
        body_atoms = {"b1", "b2", "b3", "b4"}
        for interp in interps(body_atoms):
            expected = any(2 <= len(sub) <= 3
                           for sub in interps(interp & body_atoms))
            assert closure.body_satisfied(interp) == expected
        # the upper bound is gone: all four atoms satisfy the closure
        assert closure.body_satisfied(frozenset(body_atoms))

    def test_violated_upper_bound_omits_rule(self):
        p = parse_program("a :- 2 <= { b1, b2, b3, b4 } <= 3.")
        all_true = frozenset({"a", "b1", "b2", "b3", "b4"})
        with pytest.raises(ValueError):
            aggregate_reduct(p.rules[0], all_true)
        assert reduct(p, all_true) == []

    def test_negative_only_body_closure_is_constant(self):
        p = parse_program("a :- 1 <= { not c=2 } <= 2.")
        closure = aggregate_reduct(p.rules[0], frozenset())
        assert closure.body_satisfied(frozenset())
        assert closure.body_satisfied(frozenset({"x"}))

    def test_subset_sum_window(self):
        # weight 5 cannot hit the window [1, 4] with any subset
        p = parse_program("a :- 1 <= { b=5, c=1 } <= 4.")
        closure = aggregate_reduct(p.rules[0], frozenset({"c"}))
        assert closure.body_satisfied(frozenset({"c"}))
        assert not closure.body_satisfied(frozenset({"b"}))
        assert closure.body_satisfied(frozenset({"b", "c"}))


class TestTpAndLeastModel:
    def test_fact_fires(self):
        p = parse_program("a.")
        assert tp_step(reduct(p, frozenset()), frozenset()) == {"a"}

    def test_chain_first_step(self):
        p = parse_program(EXAMPLE6)
        assert tp_step(reduct(p, frozenset()), frozenset()) == {"b5"}

    def test_aggregate_step(self):
        p = parse_program("a :- 1 <= { b1, b2 }.")
        assert tp_step(reduct(p, frozenset({"b2"})), frozenset({"b2"})) == {"a"}

    def test_example6_needs_five_applications(self):
        p = parse_program(EXAMPLE6)
        model = frozenset({"a", "b1", "b2", "b3", "b4", "b5"})
        lm, ranks = least_model(reduct(p, model))
        assert lm == model
        assert ranks["a"] == 5

    def test_empty_program(self):
        assert least_model([], frozenset()) == (frozenset(), {})

    def test_two_stage_chain(self):
        p = parse_program("a :- b. b.")
        _, ranks = least_model(reduct(p, frozenset({"a", "b"})))
        assert ranks == {"b": 1, "a": 2}

    def test_input_overlap_rejected(self):
        with pytest.raises(ValueError):
            least_model([PositiveRule("a", (), 0, None)], frozenset({"a"}))


class TestStableModels:
    def test_example1_counts(self):
        for n in (1, 2, 3):
            src = " ".join(f"{{b{i}}}." for i in range(1, n + 1))
            src += f" a :- 1 <= {{ {', '.join(f'b{i}' for i in range(1, n + 1))} }}."
            models = [m for m, _ in stable_models(parse_program(src))]
            assert len(models) == 2 ** n
            assert frozenset() in models
            nonempty = [m for m in models if m]
            assert len(nonempty) == 2 ** n - 1
            assert all("a" in m for m in nonempty)

    def test_example1_exact_models_n2(self):
        p = parse_program("{b1}. {b2}. a :- 1 <= { b1, b2 }.")
        assert [sorted(m) for m, _ in stable_models(p)] == [
            [], ["a", "b1"], ["a", "b1", "b2"], ["a", "b2"]]

    def test_self_loop_only_empty(self):
        models = stable_models(parse_program("a :- a."))
        assert [m for m, _ in models] == [frozenset()]

    def test_negative_loop_has_no_model(self):
        # both candidates fail the fixpoint test
        p = parse_program("a :- not a.")
        for candidate in interps({"a"}):
            lm, _ = least_model(reduct(p, candidate))
            assert lm != candidate
        assert stable_models(p) == []

    def test_constraint_filters(self):
        p = parse_program("{a}. :- a.")
        assert [m for m, _ in stable_models(p)] == [frozenset()]

    def test_input_atoms_vary_freely(self):
        p = parse_program("a :- q. #atom q.")
        assert [sorted(m) for m, _ in stable_models(p)] == [[], ["a", "q"]]

    def test_cap(self):
        src = " ".join(f"{{a{i}}}." for i in range(6))
        with pytest.raises(ResourceError):
            stable_models(parse_program(src), cap=5)

    def test_ranking_infinite_iff_false(self):
        p = parse_program("{b}. a :- b.")
        for model, ranks in stable_models(p):
            for atom in p.atom_names:
                assert (ranks.get(atom, INFINITY) == INFINITY) == (atom not in model)


class TestGuessAndCheck:
    """``stable_models`` guesses only the atoms the reduct reads; each
    case below makes one class of guessed atom decide a model, and every
    result equals the 2^n enumeration of ``naive_stable_models``."""

    @pytest.mark.parametrize("src, expected", [
        # an input atom read only positively
        ("a :- q. b :- a. #atom q.", [[], ["a", "b", "q"]]),
        # a convex rule whose positive body atoms are derived
        ("a :- 1 <= { b, c } <= 1. b :- p. c :- q. #atom p. #atom q.",
         [[], ["a", "b", "p"], ["a", "c", "q"], ["b", "c", "p", "q"]]),
        ("{a}.", [[], ["a"]]),
        # a constraint with an upper bound over derived atoms
        ("{p}. {q}. a :- p. b :- q. :- 1 <= { a, b } <= 1.",
         [[], ["a", "b", "p", "q"]]),
        # a choice rule with a body reads its head under not not
        ("{p}. a :- p. {b} :- a.", [[], ["a", "b", "p"], ["a", "p"]]),
        # atoms under not
        ("a :- not b. b :- not a.", [["a"], ["b"]]),
    ])
    def test_hand_cases(self, src, expected):
        program = parse_program(src)
        found = stable_models(program)
        assert [sorted(m) for m, _ in found] == expected
        assert found == naive_stable_models(program)

    def test_derived_atom_under_not_not(self):
        # b :- not not a, which the parser spells only as a choice head
        program = program_of([Rule("p", (WeightedLiteral("p", Polarity.DOUBLE_NEGATED),), 1),
                              normal_rule("a", ["p"]),
                              Rule("b", (WeightedLiteral("a", Polarity.DOUBLE_NEGATED),), 1)])
        found = stable_models(program)
        assert [sorted(m) for m, _ in found] == [[], ["a", "b", "p"]]
        assert found == naive_stable_models(program)

    def test_agrees_with_naive_on_wide_corpus(self):
        seen = {"upper": 0, "input": 0, "models": 0}
        for i, _, program in fuzz_corpus(11, 250, max_atoms=11, max_rules=14):
            found = stable_models(program)
            assert found == naive_stable_models(program), f"program {i}"
            seen["upper"] += any(r.head is not None and r.upper is not None
                                 for r in program.rules)
            seen["input"] += bool(program.input_atoms())
            seen["models"] += len(found)
        assert min(seen.values()) > 50, seen


class TestSupportedModels:
    def test_self_loop_supported(self):
        p = parse_program("a :- a.")
        assert supported_models(p) == [frozenset(), frozenset({"a"})]

    def test_fact(self):
        assert supported_models(parse_program("a.")) == [frozenset({"a"})]

    def test_tight_program_supported_equals_stable(self):
        p = parse_program("{b1}. {b2}. a :- 1 <= { b1, b2 }.")
        assert supported_models(p) == [m for m, _ in stable_models(p)]

    def test_stable_subset_of_supported(self):
        for _, _, program in fuzz_corpus(seed=5, count=20):
            stable = {m for m, _ in stable_models(program)}
            assert stable <= set(supported_models(program))


class TestLevelNumbering:
    def test_example6_levels(self):
        p = parse_program(EXAMPLE6)
        ((model, _),) = stable_models(p)
        numbering = level_numbering(p, model)
        assert numbering.atoms == {"b5": 1, "b4": 2, "b3": 3, "b2": 4,
                                   "b1": 5, "a": 5}
        # the weight rule becomes applicable one stage after b2
        assert numbering.rules[5] == 5

    def test_facts_get_level_one(self):
        p = parse_program("a. b :- a.")
        numbering = level_numbering(p, frozenset({"a", "b"}))
        assert numbering.atoms["a"] == 1 and numbering.rules[0] == 1

    def test_example5_level_three(self):
        p = parse_program(
            "b3. b1 :- b3. b4 :- b3. a :- 2 <= { b1, b2, b3, b4 }. #atom b2.")
        model = next(m for m, _ in stable_models(p) if "b2" not in m)
        numbering = level_numbering(p, model)
        assert numbering.atoms["a"] == 3
        assert numbering.atoms["b2"] == INFINITY

    def test_unsupporting_rule_is_infinite(self):
        p = parse_program("a. b :- a, c. #atom c.")
        numbering = level_numbering(p, frozenset({"a"}))
        assert numbering.rules[1] == INFINITY

    def test_non_stable_model_rejected(self):
        p = parse_program("a :- a.")
        with pytest.raises(ValueError):
            level_numbering(p, frozenset({"a"}))

    def test_atom_level_is_min_over_supporting_rules(self):
        for _, _, program in fuzz_corpus(seed=31, count=20, max_atoms=5):
            for model, _ in stable_models(program):
                numbering = level_numbering(program, model)
                inputs = program.input_atoms()
                for atom in model:
                    if atom in inputs:
                        continue
                    rule_levels = [numbering.rules[i]
                                   for i, r in enumerate(program.rules)
                                   if r.head == atom]
                    assert numbering.atoms[atom] == min(rule_levels)

    def test_numbering_unique_among_candidates(self):
        # exhaustive search over alternative stage assignments
        for _, _, program in fuzz_corpus(seed=77, count=12, max_atoms=5,
                                         max_rules=6):
            inputs = program.input_atoms()
            for model, _ in stable_models(program):
                numbering = level_numbering(program, model)
                derived = sorted(model - inputs)
                if len(derived) > 4:
                    continue
                solutions = []
                for stages in itertools.product(
                        range(1, len(derived) + 1), repeat=len(derived)):
                    candidate = dict(zip(derived, stages))
                    for atom in inputs & model:
                        candidate[atom] = 0
                    if _satisfies_equations(program, model, candidate):
                        solutions.append(dict(candidate))
                expected = {a: numbering.atoms[a] for a in derived}
                assert [
                    {k: v for k, v in s.items() if k in expected}
                    for s in solutions
                ] == [expected]


def _satisfies_equations(program, model, candidate):
    """Defining equations: each derived atom's stage is the minimum over its
    supporting rules of (first stage whose prefix satisfies the reduct body)
    plus one."""
    red = reduct(program, model)
    inputs = program.input_atoms()
    by_head = {}
    for rule in red:
        by_head.setdefault(rule.head, []).append(rule)
    horizon = len(candidate) + 1
    for atom, stage in candidate.items():
        if atom in inputs:
            continue
        best = None
        for rule in by_head.get(atom, []):
            for j in range(horizon + 1):
                prefix = frozenset(a for a, s in candidate.items() if s <= j)
                if rule.body_satisfied(prefix):
                    level = j + 1
                    best = level if best is None else min(best, level)
                    break
        if best is None or best != stage:
            return False
    return True


class TestModuleRanking:
    def test_externally_supported_scope_restarts(self):
        p = parse_program("b. c :- b. a :- c. a :- a.")
        ((model, _),) = stable_models(p)
        ranks = module_ranking(p, frozenset({"a"}), model)
        assert ranks == {"a": 1}

    def test_false_atoms_infinite(self):
        p = parse_program("a :- b. b :- a.")
        ranks = module_ranking(p, frozenset({"a", "b"}), frozenset())
        assert ranks == {"a": INFINITY, "b": INFINITY}

    @pytest.mark.parametrize("scope_mode", ["scc", "global"])
    def test_agrees_with_module_program_on_stable_models(self, scope_mode):
        pairs = 0
        for i, _, program in fuzz_corpus(1, 200):
            scopes = ranked_scopes(program, scope_mode)
            for model, _ in stable_models(program):
                for scope in scopes:
                    assert module_ranking(program, scope, model) == \
                        module_least_model_ranks(program, scope, model), f"program {i}"
                    pairs += 1
        assert pairs > 500

    @pytest.mark.parametrize("scope_mode", ["scc", "global"])
    def test_agrees_with_module_program_on_any_interpretation(self, scope_mode):
        # both raise, or both give the same ranks
        rng = random.Random(7)
        outcomes = {"raised": 0, "ranked": 0}
        for i, _, program in fuzz_corpus(2, 60):
            for scope in ranked_scopes(program, scope_mode):
                for _ in range(8):
                    interp = frozenset(a for a in program.atom_names if rng.random() < 0.5)
                    try:
                        expected = module_least_model_ranks(program, scope, interp)
                    except ValueError:
                        with pytest.raises(ValueError):
                            module_ranking(program, scope, interp)
                        outcomes["raised"] += 1
                        continue
                    assert module_ranking(program, scope, interp) == expected, f"program {i}"
                    outcomes["ranked"] += 1
        assert min(outcomes.values()) > 50, outcomes
