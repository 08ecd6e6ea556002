"""Subset-normalization vs aggregation equisatisfiability checks."""

import json
import math

import pytest

from asptoc.dlcheck import enumerate_dl_models
from asptoc.normtest import check_proposition, compare_sides, proposition_sides
from asptoc.parser import parse_program
from references import drop_formulas


def rule_of(src):
    return parse_program(src).rules[0]


class TestPropositionPass:
    def test_variant1_three_atoms(self):
        verdict = check_proposition(rule_of("a :- 1 <= { b1, b2, b3 }."), 1)
        assert verdict.passed and verdict.subset_rules == 3
        # either head value times (atom, dep, gap) in {FFF, TFF, TTF, TTT}
        assert verdict.instances_checked == 2 * 4 ** 3

    def test_variant2_two_of_four(self):
        verdict = check_proposition(rule_of("a :- 2 <= { b1, b2, b3, b4 }."), 2)
        assert verdict.passed and verdict.subset_rules == math.comb(4, 2)

    def test_variant3_minimal_weighted_subsets(self):
        rule = rule_of("a :- 7 <= { b1=7, b2=5, b3=3, b4=2, b5=1 }.")
        verdict = check_proposition(rule, 3)
        assert verdict.passed and verdict.subset_rules == 3

    def test_variant3_takes_unit_weights(self):
        # variant 3 goes by the rule's weights, not by how it was written
        rule = rule_of("a :- 2 <= { b1, b2, b3 }.")
        verdict = check_proposition(rule, 3)
        assert verdict.passed and verdict == check_proposition(rule, 2)

    def test_unreachable_bound_still_agrees(self):
        verdict = check_proposition(rule_of("a :- 19 <= { b1=2, b2=3 }."), 3)
        assert verdict.passed and verdict.subset_rules == 0


class TestValidation:
    def test_variant1_requires_bound_one(self):
        with pytest.raises(ValueError):
            check_proposition(rule_of("a :- 2 <= { b1, b2 }."), 1)

    def test_variant2_rejects_weights(self):
        with pytest.raises(ValueError):
            check_proposition(rule_of("a :- 2 <= { b1=2, b2=3 }."), 2)

    def test_negative_body_rejected(self):
        with pytest.raises(ValueError):
            check_proposition(rule_of("a :- 1 <= { b1, not b2 }."), 2)

    def test_body_cap(self):
        with pytest.raises(ValueError):
            check_proposition(
                rule_of("a :- 1 <= { b1, b2, b3, b4, b5, b6 }."), 2)


def side_variants(rule):
    """The rule's sides in full, then with side A's strong formulas
    dropped, then with side B's."""
    side_a, side_b, k = proposition_sides(rule)
    return [(side_a, side_b, k),
            (drop_formulas(side_a, "strong:"), side_b, k),
            (side_a, drop_formulas(side_b, "strong:"), k)]


class TestStrongConstraintsMatter:
    def test_dropping_one_side_breaks_agreement(self):
        rule = rule_of("a :- 2 <= { b1, b2, b3 }.")
        full, *dropped = side_variants(rule)
        assert compare_sides(rule, *full).passed
        assert not any(compare_sides(rule, *sides).passed for sides in dropped)

    def test_counterexample_reports_as_json(self):
        # the CLI prints a failing verdict's counterexample with json.dumps
        rule = rule_of("a :- 2 <= { b1, b2, b3 }.")
        for sides in side_variants(rule)[1:]:
            found = json.loads(json.dumps(compare_sides(rule, *sides).counterexample))
            assert set(found) == {"assignment", "subset_sat", "aggregate_sat", "connecting"}
            assert found["subset_sat"] != found["aggregate_sat"] or not found["connecting"]
            assert len(found["assignment"]) == 1 + 3 * 3  # head, then atom, dep, gap


class TestSizes:
    def test_subset_count_binomial_aggregate_linear(self):
        for n in (3, 4, 5):
            rule = rule_of(
                f"a :- {n // 2} <= {{ {', '.join(f'b{i}' for i in range(1, n + 1))} }}.")
            verdict = check_proposition(rule, 2)
            assert verdict.subset_rules == math.comb(n, n // 2)
            # aggregated side: bounds, dep/gap pairs, one app/strong/def
            assert verdict.aggregate_formula_count == 3 * (n + 1) + 2 * n + 3


def sides_agree(side_a, side_b):
    """Reference check by full enumeration.  The join pairs a model of each
    side that agree on the shared vocabulary (base atoms, dep/gap atoms and
    ranks; each side's app atoms are its own).  The head is shared, so
    paired models agree on whether some subset rule of side A applies and
    whether side B's one rule does.  Each side's projection of the join
    must be all of its models."""
    def models(fs):
        return set(enumerate_dl_models(fs, max_atoms=len(fs.base_atoms) + len(fs.aux_atoms)))

    def shared(m):
        return tuple(p for p in m.props if not p[0].startswith("|app:")), m.ints

    models_a, models_b = models(side_a), models(side_b)
    join = [(ma, mb) for ma in models_a for mb in models_b if shared(ma) == shared(mb)]
    return ({ma for ma, _ in join} == models_a
            and {mb for _, mb in join} == models_b)


UNIT_BODIES = [f"a :- {k} <= {{ {', '.join(f'b{i}' for i in range(1, n + 1))} }}."
               for n in (2, 3) for k in range(1, n + 1)]


class TestCrossValidation:
    @pytest.mark.parametrize("src", [*UNIT_BODIES, "a :- 3 <= { b1=2, b2=2, b3=1 }."])
    def test_classed_enumeration_matches_full(self, src):
        rule = rule_of(src)
        for side_a, side_b, k in side_variants(rule):
            assert compare_sides(rule, side_a, side_b, k).passed == sides_agree(side_a, side_b)

    def test_full_check_detects_missing_strong(self):
        side_a, side_b, _ = proposition_sides(rule_of("a :- 1 <= { b1, b2 }."))
        assert sides_agree(side_a, side_b)
        assert not sides_agree(drop_formulas(side_a, "strong:"), side_b)

    def test_one_atom_without_strong_is_a_false_alarm(self):
        # With one body atom the scope has two atoms, so a true head ranks
        # at most two and its body atom is never gapped.  The check still
        # admits that assignment, and there the side that keeps its strong
        # formula fails while the other holds: a superset of what ranks
        # realize, which full enumeration does not share.
        rule = rule_of("a :- 1 <= { b1 }.")
        gapped = {"a": True, "b1": True, "|dep:a:b1|": True, "|gap:a:b1|": True}
        for side_a, side_b, k in side_variants(rule)[1:]:
            verdict = compare_sides(rule, side_a, side_b, k)
            assert not verdict.passed and verdict.counterexample["assignment"] == gapped
            assert sides_agree(side_a, side_b)

    @pytest.mark.parametrize("src", ["a :- 2 <= { b1 }.", "a :- 3 <= { b1, b2 }.",
                                     "a :- 4 <= { b1, b2, b3 }."])
    def test_unreachable_bound_has_nothing_to_join(self, src):
        # k = 0: side A has no rules, so no dep/gap atoms for sides_agree
        # to join side B's models on; the check declares them on both sides
        rule = rule_of(src)
        for side_a, side_b, k in side_variants(rule):
            assert k == 0 and not any(aux.kind in ("dep", "gap") for aux in side_a.aux_atoms)
            assert compare_sides(rule, side_a, side_b, k).passed
            assert not sides_agree(side_a, side_b)
