"""Core data model: canonical rules, weight sums, defining rules."""

import pytest

from asptoc.parser import parse_program
from asptoc.program import (
    Polarity,
    Program,
    Rule,
    WeightedLiteral,
    normal_rule,
    weight_sum,
)
from references import def_of


def wl(atom, weight=1, polarity=Polarity.POSITIVE):
    return WeightedLiteral(atom, polarity, weight)


EXAMPLE6_BODY = tuple(wl(f"b{i}", w) for i, w in
                      zip(range(1, 6), (7, 5, 3, 2, 1)))


class TestWeightSum:
    def test_partial_body(self):
        assert weight_sum(frozenset({"b1", "b3", "b4"}), EXAMPLE6_BODY) == 12

    def test_empty_interp(self):
        assert weight_sum(frozenset(), EXAMPLE6_BODY) == 0

    def test_negative_literal_satisfied_by_absence(self):
        body = (wl("c", 4, Polarity.NEGATIVE),)
        assert weight_sum(frozenset(), body) == 4
        assert weight_sum(frozenset({"c"}), body) == 0

    def test_double_negation_counts_truth(self):
        body = (wl("a", 2, Polarity.DOUBLE_NEGATED),)
        assert weight_sum(frozenset({"a"}), body) == 2
        assert weight_sum(frozenset(), body) == 0


class TestDefOf:
    def test_filters_by_head(self):
        p = parse_program("a :- b. a :- c. b :- a.")
        assert [r.pos_atoms() for r in def_of("a", p)] == [("b",), ("c",)]

    def test_no_defining_rules(self):
        p = parse_program("b :- a.")
        assert def_of("a", p) == []

    def test_unit_rule_expansion(self):
        # n defining rules a <- b_i, in program order
        n = 5
        src = "".join(f"a :- b{i}.\n" for i in range(n)) \
            + "".join(f"b{i} :- a.\n" for i in range(n))
        p = parse_program(src)
        assert len(def_of("a", p)) == n

    def test_unknown_atom(self):
        p = parse_program("a.")
        with pytest.raises(KeyError):
            def_of("zz", p)
        # a body atom is known even though it heads no rule
        assert def_of("b", parse_program("a :- b.")) == []
        with pytest.raises(KeyError):
            def_of("zz", parse_program("a :- b."))

    def test_interleaved_heads_keep_program_order(self):
        src = "a :- b. c :- a. a :- c. {b}. a :- 1 <= { b, c }. c :- not b. a."
        p = parse_program(src)
        for atom in p.atom_names:
            assert def_of(atom, p) == [r for r in p.rules if r.head == atom]
        assert [(r.body, r.lower) for r in def_of("a", p)] == [
            ((wl("b"),), 1), ((wl("c"),), 1), ((wl("b"), wl("c")), 1), ((), 0)]

    def test_result_is_a_fresh_list(self):
        p = parse_program("a :- b. a :- c.")
        def_of("a", p).clear()
        assert len(def_of("a", p)) == 2

    def test_partitions_non_constraint_rules(self):
        p = parse_program("a :- b. {b}. c :- 1 <= { a, b }. :- a, b.")
        total = sum(len(def_of(atom, p)) for atom in p.atom_names)
        assert total == len([r for r in p.rules if r.head is not None])


def section2_satisfied(kind, interp, pos, neg, lower=None, upper=None,
                       weights=None, head=None):
    """Textbook body satisfaction, kept independent of the canonical form."""
    if kind in ("normal", "choice"):
        return set(pos) <= set(interp) and not (set(neg) & set(interp))
    if kind == "cardinality":
        count = len(set(pos) & set(interp)) + len(set(neg) - set(interp))
        return lower <= count and (upper is None or count <= upper)
    total = sum(weights[a] for a in pos if a in interp) \
        + sum(weights[a] for a in neg if a not in interp)
    return lower <= total and (upper is None or total <= upper)


class TestCanonicalSatisfaction:
    """Parsed rules keep textbook body satisfaction."""

    def all_interps(self, atoms):
        import itertools
        for k in range(len(atoms) + 1):
            for c in itertools.combinations(sorted(atoms), k):
                yield frozenset(c)

    def test_normal(self):
        p = parse_program("a :- b, c, not d.")
        rule = p.rules[0]
        for interp in self.all_interps({"a", "b", "c", "d"}):
            assert rule.body_satisfied(interp) == section2_satisfied(
                "normal", interp, ["b", "c"], ["d"])

    def test_choice_body_embeds_head(self):
        p = parse_program("{a} :- b, not c.")
        rule = p.rules[0]
        for interp in self.all_interps({"a", "b", "c"}):
            plain = section2_satisfied("choice", interp, ["b"], ["c"])
            assert rule.body_satisfied(interp) == (plain and "a" in interp)
            # canonical choice rules are never classically violated
            assert rule.satisfied(interp)

    def test_cardinality(self):
        p = parse_program("a :- 2 <= { b, c, not d }.")
        rule = p.rules[0]
        for interp in self.all_interps({"a", "b", "c", "d"}):
            assert rule.body_satisfied(interp) == section2_satisfied(
                "cardinality", interp, ["b", "c"], ["d"], lower=2)

    def test_weight_with_bounds(self):
        p = parse_program("a :- 3 <= { b=2, c=3, not d=4 } <= 6.")
        rule = p.rules[0]
        weights = {"b": 2, "c": 3, "d": 4}
        for interp in self.all_interps({"a", "b", "c", "d"}):
            assert rule.body_satisfied(interp) == section2_satisfied(
                "weight", interp, ["b", "c"], ["d"], lower=3, upper=6,
                weights=weights)


class TestInvariants:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            wl("a", -1)

    @pytest.mark.parametrize("kwargs", [
        dict(head="a", body=(), lower=-1),
        dict(head="a", body=(), lower=0, upper=-1),
    ], ids=["negative-lower", "negative-upper"])
    def test_rule_checks_run_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            Rule(**kwargs)

    def test_atom_name_required(self):
        with pytest.raises(ValueError, match="non-empty"):
            Program((), ("",), ())

    def test_empty_satisfier_window_is_legal(self):
        rule = Rule("a", (wl("b"),), 2, upper=1)
        for interp in (frozenset(), frozenset({"b"})):
            assert not rule.body_satisfied(interp)

    def test_signature_closure(self):
        with pytest.raises(ValueError, match="missing"):
            Program((normal_rule("a", ["b"]),), ("a",), ())

    def test_duplicate_signature_atom(self):
        with pytest.raises(ValueError, match="duplicate"):
            Program((), ("a", "a"), ("a",))

    def test_hidden_atoms_are_known(self):
        with pytest.raises(ValueError, match="hidden"):
            Program((), ("a",), ("b",))
        program = Program((), ("a", "b"), ("b",))
        assert program.hidden == frozenset({"b"})
        assert program.visible_atoms == frozenset({"a"})
