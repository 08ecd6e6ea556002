"""Formula IR: ranking scaffolding, validation, constant folding."""

import pytest

from asptoc.formulas import (
    Aux,
    Base,
    Diff,
    FalseF,
    FormulaSet,
    LevelVar,
    PB,
    PBTerm,
    TrueF,
    ValidationError,
    Var,
    Z,
    eval_formula,
    make_pb,
    mk_bounds,
    mk_dep_gap,
    ref_name,
    var_name,
)


def eval_pairs(pairs, bools, ints):
    ints = dict(ints)
    ints.setdefault("__z", 0)
    return all(eval_formula(f, bools, ints) for _, f in pairs)


class TestBounds:
    def test_self_loop_scope_range(self):
        pairs = mk_bounds("a", 1)
        # 1 <= x_a <= 2 once a is false the lower end is excluded
        for x in range(-1, 5):
            feasible = eval_pairs(pairs, {"a": True}, {"__x_a": x})
            assert feasible == (1 <= x <= 2)

    def test_false_atom_forces_top_rank(self):
        pairs = mk_bounds("a", 1)
        admitted = [x for x in range(0, 4)
                    if eval_pairs(pairs, {"a": False}, {"__x_a": x})]
        assert admitted == [2]

    def test_example5_default_rank_six(self):
        pairs = mk_bounds("b2", 5)
        admitted = [x for x in range(0, 8)
                    if eval_pairs(pairs, {"b2": False}, {"__x_b2": x})]
        assert admitted == [6]


class TestDepGap:
    def all_envs(self):
        for b in (False, True):
            for xa in range(1, 4):
                for xb in range(1, 4):
                    yield {"b": b}, {"__x_a": xa, "__x_b": xb, "__z": 0}

    def consistent_values(self, bools, ints):
        pairs = mk_dep_gap("a", "b")
        for dep in (False, True):
            for gap in (False, True):
                env = dict(bools, __dep_a__b=dep, __gap_a__b=gap)
                if all(eval_formula(f, env, ints) for _, f in pairs):
                    yield dep, gap

    def test_gap_implies_dep(self):
        for bools, ints in self.all_envs():
            for dep, gap in self.consistent_values(bools, ints):
                assert not gap or dep

    def test_dep_without_gap_means_derived_right_after(self):
        for bools, ints in self.all_envs():
            for dep, gap in self.consistent_values(bools, ints):
                if dep and not gap and bools["b"]:
                    assert ints["__x_a"] == ints["__x_b"] + 1

    def test_false_body_atom_forces_both_false(self):
        for bools, ints in self.all_envs():
            if not bools["b"]:
                assert list(self.consistent_values(bools, ints)) == [(False, False)]


class TestPB:
    def test_empty_sum_folds(self):
        assert make_pb([], lower=0) == TrueF()
        assert make_pb([], lower=1) == FalseF()
        assert make_pb([], upper=0) == TrueF()
        assert make_pb([], lower=0, upper=-1) == FalseF()

    def test_non_empty_not_folded(self):
        f = make_pb([PBTerm(1, Base("a"))], lower=5)
        assert isinstance(f, PB)

    def test_needs_a_bound(self):
        with pytest.raises(ValueError):
            PB((PBTerm(1, Base("a")),))

    def test_positive_coefficients_only(self):
        with pytest.raises(ValueError):
            PBTerm(0, Base("a"))

    def test_negated_term_counts_absence(self):
        f = PB((PBTerm(3, Base("c"), negated=True),), lower=3)
        assert eval_formula(f, {"c": False}, {})
        assert not eval_formula(f, {"c": True}, {})


class TestNaming:
    def test_contract(self):
        assert ref_name(Base("p")) == "p"
        assert ref_name(Aux("app", "a", 1)) == "__app_a_1"
        assert ref_name(Aux("dep", "a", "b")) == "__dep_a__b"
        assert ref_name(Aux("gap", "a", "b")) == "__gap_a__b"
        assert ref_name(Aux("int", "a", 2)) == "__int_a_2"
        assert ref_name(Aux("ext", "a", 2)) == "__ext_a_2"
        assert ref_name(Aux("vub", "a", 1)) == "__vub_a_1"
        assert var_name(LevelVar("a")) == "__x_a"
        assert var_name(Z) == "__z"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Aux("foo", "a", 1)


class TestValidation:
    def test_undeclared_atom_rejected(self):
        fs = FormulaSet()
        fs.add("f", Var(Base("a")))
        with pytest.raises(ValidationError):
            fs.validate()

    def test_undeclared_level_var_rejected(self):
        fs = FormulaSet()
        fs.declare_base("a")
        fs.add("f", Diff(LevelVar("a"), Z, 1))
        with pytest.raises(ValidationError):
            fs.validate()

    def test_complete_set_passes(self):
        fs = FormulaSet()
        fs.declare_base("a")
        fs.declare_level("a", 1, 2)
        fs.extend(mk_bounds("a", 1))
        fs.validate()

    def test_colliding_symbols_rejected(self):
        # atom names may contain "__", so two dep atoms can share a symbol
        fs = FormulaSet()
        fs.declare_aux(Aux("dep", "a__b", "c"), Aux("dep", "a", "b__c"))
        with pytest.raises(ValidationError, match=r"colliding symbols: \['__dep_a__b__c'\]"):
            fs.validate()

    def test_without_drops_by_prefix(self):
        fs = FormulaSet()
        fs.declare_base("a")
        fs.add("strong:a:1", TrueF())
        fs.add("def:a", Var(Base("a")))
        kept = fs.without("strong:")
        assert [n for n, _ in kept.formulas] == ["def:a"]


class TestDeclarationOrder:
    def test_declare_keeps_first_seen_order(self):
        fs = FormulaSet()
        fs.declare_base("c", "a")
        fs.declare_base("b", "a", "c", "d")
        fs.declare_aux(Aux("app", "c", 1), Aux("dep", "a", "b"))
        fs.declare_aux(Aux("dep", "a", "b"), Aux("app", "a", 1), Aux("app", "c", 1))
        assert list(fs.base_atoms) == ["c", "a", "b", "d"]
        assert list(fs.aux_atoms) == [Aux("app", "c", 1), Aux("dep", "a", "b"),
                                      Aux("app", "a", 1)]
        assert fs.atom_refs() == [Base("c"), Base("a"), Base("b"), Base("d"),
                                  Aux("app", "c", 1), Aux("dep", "a", "b"),
                                  Aux("app", "a", 1)]

    def test_merge_appends_only_unseen(self):
        left, right = FormulaSet(), FormulaSet()
        left.declare_base("b", "a")
        left.declare_aux(Aux("app", "b", 1))
        right.declare_base("c", "a", "d", "b")
        right.declare_aux(Aux("app", "a", 1), Aux("app", "b", 1))
        left.merge(right)
        assert list(left.base_atoms) == ["b", "a", "c", "d"]
        assert list(left.aux_atoms) == [Aux("app", "b", 1), Aux("app", "a", 1)]
        assert list(right.base_atoms) == ["c", "a", "d", "b"]

    def test_without_copies_the_vocabulary(self):
        fs = FormulaSet()
        fs.declare_base("b", "a")
        fs.declare_aux(Aux("gap", "b", "a"), Aux("app", "b", 1))
        fs.add("strong:b:1", TrueF())
        kept = fs.without("strong:")
        assert list(kept.base_atoms) == ["b", "a"]
        assert list(kept.aux_atoms) == [Aux("gap", "b", "a"), Aux("app", "b", 1)]
        kept.declare_base("z")
        assert "z" not in fs.base_atoms

    def test_symbol_table_follows_declarations(self):
        left, right = FormulaSet(), FormulaSet()
        left.declare_base("b", "a")
        left.declare_aux(Aux("gap", "b", "a"), Aux("app", "b", 1, "x"))
        right.declare_base("c", "b")
        right.declare_aux(Aux("app", "a", 2), Aux("gap", "b", "a"))
        left.merge(right)
        kept = left.without("strong:")
        for fs in (left, kept):
            assert list(fs.base_atoms.items()) == [("b", "b"), ("a", "a"), ("c", "c")]
            assert list(fs.aux_atoms) == [Aux("gap", "b", "a"), Aux("app", "b", 1, "x"),
                                          Aux("app", "a", 2)]
            assert all(sym == ref_name(ref) for ref, sym in fs.aux_atoms.items())
        kept.declare_level("b", 1, 3)
        assert kept.symbols() == {"b": "b", "a": "a", "c": "c",
                                  Aux("gap", "b", "a"): "__gap_b__a",
                                  Aux("app", "b", 1, "x"): "__x_app_b_1",
                                  Aux("app", "a", 2): "__app_a_2",
                                  Z: "__z", LevelVar("b"): "__x_b"}
