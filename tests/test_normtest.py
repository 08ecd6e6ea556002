"""Subset-normalization vs aggregation equisatisfiability checks."""

import math

import pytest

from asptoc.dlcheck import enumerate_dl_models
from asptoc.normtest import check_proposition, compare_sides, proposition_sides
from asptoc.parser import parse_program


def rule_of(src):
    return parse_program(src).rules[0]


class TestPropositionPass:
    def test_variant1_three_atoms(self):
        verdict = check_proposition(rule_of("a :- 1 <= { b1, b2, b3 }."), 1)
        assert verdict.passed and verdict.subset_rules == 3

    def test_variant2_two_of_four(self):
        verdict = check_proposition(rule_of("a :- 2 <= { b1, b2, b3, b4 }."), 2)
        assert verdict.passed and verdict.subset_rules == math.comb(4, 2)

    def test_variant3_minimal_weighted_subsets(self):
        rule = rule_of("a :- 7 <= { b1=7, b2=5, b3=3, b4=2, b5=1 }.")
        verdict = check_proposition(rule, 3)
        assert verdict.passed and verdict.subset_rules == 3

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


class TestStrongConstraintsMatter:
    def test_dropping_one_side_breaks_agreement(self):
        rule = rule_of("a :- 2 <= { b1, b2, b3 }.")
        side_a, side_b, k = proposition_sides(rule)
        assert compare_sides(rule, side_a, side_b, k).passed
        assert not compare_sides(rule, side_a.without("strong:"), side_b, k).passed
        assert not compare_sides(rule, side_a, side_b.without("strong:"), k).passed


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
    ranks; each side's app atoms are its own) and satisfy the link: some
    subset rule of side A applies exactly when side B's one rule does.
    Each side's projection of the join must be all of its models."""
    def models(fs):
        return set(enumerate_dl_models(fs, max_atoms=len(fs.base_atoms) + len(fs.aux_atoms)))

    def shared(m):
        return tuple(p for p in m.props if not p[0].startswith("|app:")), m.ints

    def applies(m):
        return any(v for n, v in m.props if n.startswith("|app:"))

    models_a, models_b = models(side_a), models(side_b)
    join = [(ma, mb) for ma in models_a for mb in models_b
            if shared(ma) == shared(mb) and applies(ma) == applies(mb)]
    return ({ma for ma, _ in join} == models_a
            and {mb for _, mb in join} == models_b)


class TestCrossValidation:
    @pytest.mark.parametrize("src,variant", [
        ("a :- 1 <= { b1, b2 }.", 1),
        ("a :- 2 <= { b1, b2, b3 }.", 2),
        ("a :- 3 <= { b1=2, b2=2, b3=1 }.", 3),
    ])
    def test_classed_enumeration_matches_full(self, src, variant):
        rule = rule_of(src)
        side_a, side_b, _ = proposition_sides(rule)
        assert check_proposition(rule, variant).passed == sides_agree(side_a, side_b)

    def test_full_check_detects_missing_strong(self):
        side_a, side_b, _ = proposition_sides(rule_of("a :- 1 <= { b1, b2 }."))
        assert sides_agree(side_a, side_b)
        assert not sides_agree(side_a.without("strong:"), side_b)
