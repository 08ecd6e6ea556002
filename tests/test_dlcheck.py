"""Bounded model finder: exactness, soundness, completeness sampling."""

import itertools
import math
import random

import pytest

from asptoc.dlcheck import DLModel, enumerate_dl_models
from asptoc.formulas import (
    TRUE,
    Aux,
    Base,
    Diff,
    FormulaSet,
    Iff,
    LevelVar,
    Not,
    ValidationError,
    Var,
    Z,
)
from asptoc.fuzz import CHECK_MODES, fuzz_corpus
from asptoc.parser import parse_program
from asptoc.program import ResourceError
from asptoc.toc import toc_module, toc_program
from references import brute_force_models, project_models, recheck


class TestSelfLoop:
    def setup_method(self):
        self.fs = toc_program(parse_program("a :- a."))
        self.models = enumerate_dl_models(self.fs)

    def test_single_model_rank_two(self):
        (model,) = self.models
        assert not model.prop_map["a"]
        assert not any(v for _, v in model.props)
        assert model.int_map == {"__x_a": 2, "__z": 0}

    def test_head_true_is_excluded(self):
        assert not any(m.prop_map["a"] for m in self.models)

    def test_projection(self):
        assert project_models(self.models, {"a"}) == [frozenset()]


def test_z_only_in_models_of_ranked_sets():
    # a flat set declares no ranking variable, so its models carry no z
    flat = enumerate_dl_models(toc_program(parse_program("{a}. b :- a. c :- not b.")))
    assert len(flat) == 2 and all(m.ints == () for m in flat)
    (ranked,) = enumerate_dl_models(toc_program(parse_program("a :- a.")))
    assert ("__z", 0) in ranked.ints


class TestRankedFact:
    def test_fact_gets_rank_one(self):
        p = parse_program("a.")
        fs = toc_module(p, frozenset({"a"}))
        fs.declare_base("a")
        (model,) = enumerate_dl_models(fs)
        assert model.prop_map["a"] and model.int_map["__x_a"] == 1


class TestExample5:
    def build(self):
        p = parse_program("a :- 2 <= { b1, b2, b3, b4 }.")
        scope = frozenset({"a", "b1", "b2", "b3", "b4"})
        fs = toc_module(p, scope)
        # pin the propositional part and the body ranks from the example
        for atom in ("a", "b1", "b3", "b4"):
            fs.add(f"fix:{atom}", Var(Base(atom)))
        fs.add("fix:b2", Not(Var(Base("b2"))))
        for atom, rank in (("b1", 2), ("b3", 1), ("b4", 2)):
            fs.add(f"pin:{atom}:hi", Diff(LevelVar(atom), Z, rank))
            fs.add(f"pin:{atom}:lo", Diff(Z, LevelVar(atom), -rank))
        return fs

    def test_rank_three_admitted_four_rejected(self):
        models = enumerate_dl_models(self.build(), max_atoms=30)
        admitted = sorted({m.int_map["__x_a"] for m in models})
        assert admitted == [3]
        assert all(m.int_map["__x_b2"] == 6 for m in models)


class TestSoundnessAndCompleteness:
    def test_returned_models_satisfy_all_formulas(self):
        for src in ("a :- a.", "{b1}. {b2}. a :- 1 <= { b1, b2 }.",
                    "b. c :- b. a :- c. a :- a.",
                    "a :- 2 <= { b=2, c=3 } <= 4. {b}. {c}."):
            fs = toc_program(parse_program(src))
            for model in enumerate_dl_models(fs, max_atoms=40):
                assert recheck(fs, model)

    def test_random_non_returned_assignments_violate_something(self):
        from asptoc.formulas import ref_name

        fs = toc_program(parse_program("a :- a. {b}."))
        returned = set(enumerate_dl_models(fs))
        rng = random.Random(0)
        names = sorted(fs.base_atoms) + sorted(ref_name(a) for a in fs.aux_atoms)
        for _ in range(200):
            props = tuple(sorted((n, rng.random() < 0.5) for n in names))
            ints = tuple(sorted({"__z": 0,
                                 "__x_a": rng.randint(1, 2)}.items()))
            candidate = DLModel(props, ints)
            if candidate in returned:
                continue
            assert not recheck(fs, candidate)


class TestGuards:
    def test_atom_cap(self):
        fs = toc_program(parse_program("{a}. {b}. {c}."))
        with pytest.raises(ResourceError):
            enumerate_dl_models(fs, max_atoms=2)

    def test_unbounded_level_variable(self):
        fs = FormulaSet()
        fs.declare_base("a")
        fs.add("loose", Diff(LevelVar("a"), Z, 1))
        # only declare_level declares a ranking variable, and it gives bounds
        with pytest.raises(ValidationError, match="__x_a"):
            enumerate_dl_models(fs)

    def test_free_aux_atom_enumerates_both_values(self):
        fs = FormulaSet()
        fs.declare_base("a")
        fs.declare_aux(Aux("app", "a", 1))
        fs.add("f", Var(Base("a")))
        models = enumerate_dl_models(fs)
        assert len(models) == 2


def _definition_case(name):
    """A small set exercising one rule for telling definitions from checks."""
    fs = FormulaSet()
    fs.declare_base("a", "b")
    d, e = Aux("app", "a", 1), Aux("app", "b", 1)
    fs.declare_aux(d, e)
    if name == "second-iff-prunes":
        # d's first Iff defines it; the second is a check that keeps a == b
        fs.add("def:d", Iff(Var(d), Var(Base("a"))))
        fs.add("def2:d", Iff(Var(d), Var(Base("b"))))
    elif name == "mutual-definitions":
        # each reads the other: a cycle, so both are searched
        fs.add("def:d", Iff(Var(d), Var(e)))
        fs.add("def:e", Iff(Var(e), Var(d)))
        fs.add("link", Iff(Var(Base("a")), Var(d)))
    elif name == "constant-definition":
        fs.add("def:d", Iff(Var(d), TRUE))
        fs.add("def:e", Iff(Var(e), Not(Var(d))))
    else:  # owner-not-base: q ranks but is no declared atom
        fs.declare_level(["q"], 1, 3)
        fs.add("def:d", Iff(Var(d), Diff(LevelVar("q"), Z, 1)))
        fs.add("def:e", Iff(Var(e), Diff(Z, LevelVar("q"), -3)))
        fs.add("link", Iff(Var(Base("a")), Var(d)))
    return fs


@pytest.mark.parametrize("name, count", [
    ("second-iff-prunes", 4), ("mutual-definitions", 4),
    ("constant-definition", 4), ("owner-not-base", 6)])
def test_definition_rules_equal_brute_force(name, count):
    fs = _definition_case(name)
    models = enumerate_dl_models(fs)
    assert len(set(models)) == len(models) == count
    assert set(models) == set(brute_force_models(fs))
    assert all(recheck(fs, m) for m in models)


class TestProjection:
    def test_empty_visible_set(self):
        fs = toc_program(parse_program("{a}."))
        models = enumerate_dl_models(fs)
        assert project_models(models, frozenset()) == [frozenset()] * len(models)

    def test_example1_multiplicity_one(self):
        fs = toc_program(parse_program("{b1}. {b2}. a :- 1 <= { b1, b2 }."))
        models = enumerate_dl_models(fs, max_atoms=30)
        projections = project_models(models, {"a", "b1", "b2"})
        assert len(projections) == 4
        assert len(set(projections)) == 4


def test_finder_equals_brute_force_on_fuzz_sets():
    # every fuzz translation small enough to enumerate outright (at most
    # 4,096 assignments), in all four scope/vub modes, strong and weak;
    # weak ranking lets several rank vectors share one model, and sets with
    # two or more ranking variables search ranks under computed aux atoms
    checked = {mode: 0 for mode in CHECK_MODES}
    ranked = 0
    for _, _, program in fuzz_corpus(1, 100):
        for (scope_mode, vub_form), strong in itertools.product(CHECK_MODES, (True, False)):
            fs = toc_program(program, scope_mode=scope_mode, vub_form=vub_form,
                             strong=strong)
            assignments = 2 ** (len(fs.base_atoms) + len(fs.aux_atoms)) * math.prod(
                hi - lo + 1 for lo, hi in fs.level_bounds.values())
            if assignments > 4096:
                continue
            models = enumerate_dl_models(fs, max_atoms=30)
            assert len(set(models)) == len(models)
            assert set(models) == set(brute_force_models(fs))
            checked[scope_mode, vub_form] += 1
            ranked += len(fs.level_bounds) >= 2
    assert sum(checked.values()) >= 30 and ranked >= 10
    assert min(checked.values()) >= 5
