"""Translation shape and semantics: worked examples, goldens, both
upper-bound encodings, and the alternative forms: the subset
normalization of ``asptoc.normtest`` and the extensional aggregates of
``references.toc_abstract``."""

import math
import pathlib

import pytest

from asptoc.dlcheck import enumerate_dl_models
from asptoc.formulas import (
    Aux,
    Base,
    Diff,
    FormulaSet,
    Iff,
    Implies,
    LevelVar,
    Not,
    Or,
    PB,
    TRUE,
    Var,
    Z,
    conj,
    disj,
    mk_bounds,
    mk_dep_gap,
    ref_name,
)
from asptoc.oracle import ResourceError, stable_models
from asptoc.parser import parse_program
from asptoc.smtlib import to_sexpr
from asptoc.normtest import normalize_subsets
from asptoc.toc import toc_module, toc_program
from references import ConvexityError, body_atoms, debug_text, def_of, toc_abstract

GOLDEN = pathlib.Path(__file__).parent / "golden"


def names(fs):
    return [n for n, _ in fs.formulas]


def models_projected(fs, keep):
    models = enumerate_dl_models(fs, max_atoms=len(fs.base_atoms) + len(fs.aux_atoms))
    out = set()
    for m in models:
        props = tuple(sorted((k, v) for k, v in m.props if k in keep))
        ints = tuple(sorted(m.ints))
        out.add((props, ints))
    return out


class TestWorkedExample:
    def test_self_loop_formula_list(self):
        p = parse_program("a :- a.")
        fs = toc_module(p, frozenset({"a"}))
        assert names(fs) == [
            "bounds:a:min", "bounds:a:max", "bounds:a:false",
            "dep:a:a", "gap:a:a",
            "strong:a:1", "def:a",
        ]
        # a one-atom body is its own applicability condition: no app atom,
        # and no internal/external splitting
        assert set(fs.aux_atoms) == {Aux("dep", "a", "a"), Aux("gap", "a", "a")}
        formulas = dict(fs.formulas)
        assert formulas["def:a"] == Iff(Var(Base("a")), Var(Aux("dep", "a", "a")))
        assert formulas["strong:a:1"] == Implies(Var(Aux("dep", "a", "a")),
                                                 Not(Var(Aux("gap", "a", "a"))))

    def test_self_loop_golden(self):
        fs = toc_program(parse_program("a :- a."))
        assert debug_text(fs) == (GOLDEN / "self_loop.debug").read_text()

    def test_non_component_scope_rejected(self):
        p = parse_program("a :- b. #atom b.")
        # ranking applies to arbitrary scopes, not only to components
        toc_module(p, frozenset({"a", "b"}))

    def test_choice_cardinality_golden(self):
        fs = toc_program(parse_program("{b1}. {b2}. a :- 1 <= { b1, b2 }."))
        assert debug_text(fs) == (GOLDEN / "choice_card.debug").read_text()


class TestAggregatedForms:
    def test_lower_one_matches_aggregated_shape(self):
        src = "a :- 1 <= { b1, b2, b3 }. " + \
            " ".join(f"b{i} :- a." for i in range(1, 4))
        p = parse_program(src)
        scope = frozenset({"a", "b1", "b2", "b3"})
        fs = toc_module(p, scope)
        # a sum that any one atom reaches is the disjunction of its atoms,
        # the extensional shape of the aggregate
        app = Var(Aux("app", "a", 1))
        assert dict(fs.formulas)["app:a:1"] == Iff(
            app, Or(tuple(Var(Aux("dep", "a", f"b{i}")) for i in range(1, 4))))
        assert dict(fs.formulas)["strong:a:1"] == Implies(
            app, Not(Or(tuple(Var(Aux("gap", "a", f"b{i}")) for i in range(1, 4)))))

    def test_weighted_sum_stays_a_sum(self):
        p = parse_program("a :- 3 <= { b1=2, b2=2, b3=1 }. "
                          + " ".join(f"b{i} :- a." for i in range(1, 4)))
        fs = toc_module(p, frozenset({"a", "b1", "b2", "b3"}))
        weak = dict(fs.formulas)["app:a:1"].right
        assert isinstance(weak, PB) and (weak.lower, weak.upper) == (3, None)
        deny = dict(fs.formulas)["strong:a:1"].right
        assert isinstance(deny, PB) and (deny.lower, deny.upper) == (None, 2)

    def test_full_bound_forces_max_plus_one(self):
        # a <- l<={b1..bn} with l = n: the head lands right after the last atom
        fs = FormulaSet()
        p = parse_program("a :- 3 <= { b1, b2, b3 }. b1. b2 :- b1. b3 :- b2.")
        scope = frozenset({"a", "b1", "b2", "b3"})
        fs = toc_module(p, scope)
        fs.add("pin", Diff(LevelVar("b1"), Z, 1))
        models = enumerate_dl_models(fs, max_atoms=40)
        full = [m for m in models if m.prop_map["a"]]
        assert full and all(m.int_map["__x_a"] == m.int_map["__x_b3"] + 1
                            for m in full)

    def test_reset_for_external_support(self):
        p = parse_program("b. c :- b. a :- c. a :- a.")
        fs = toc_program(p)
        ((model,),) = [enumerate_dl_models(fs, max_atoms=40)]
        assert model.prop_map["a"] and model.int_map["__x_a"] == 1


class TestOrderedCompletionInstantiation:
    """With unit weights the one emission path reproduces the plain
    ordered-completion formulas for normal programs."""

    def build_plain(self, program, scope):
        fs = FormulaSet()
        fs.declare_base(*sorted(scope))
        size = len(scope)
        for atom in sorted(scope):
            fs.declare_level([atom], 1, size + 1)
            fs.extend(mk_bounds(LevelVar(atom), Var(Base(atom)), size))
        edges = set()
        from asptoc.program import Polarity
        for atom in sorted(scope):
            for rule in def_of(atom, program):
                for wlit in rule.literals(Polarity.POSITIVE):
                    if wlit.atom in scope:
                        edges.add((atom, wlit.atom))
        for a, b in sorted(edges):
            auxes = (Aux("dep", a, b), Aux("gap", a, b))
            fs.declare_aux(*auxes)
            fs.extend(mk_dep_gap(tuple(map(Var, auxes)), Var(Base(b)), LevelVar(a), LevelVar(b)))
        for atom in sorted(scope):
            rules = def_of(atom, program)
            if not rules:
                continue
            apps = []
            for i, rule in enumerate(rules, 1):
                app = Aux("app", atom, i)
                fs.declare_aux(app)
                apps.append(Var(app))
                fs.declare_base(*body_atoms(rule))
                inside = [b for b in rule.pos_atoms() if b in scope]
                outside = [b for b in rule.pos_atoms() if b not in scope]
                negs = [w.atom for w in rule.literals(Polarity.NEGATIVE)]
                body = conj(*(Var(Aux("dep", atom, b)) for b in inside),
                            *(Var(Base(b)) for b in outside),
                            *(Not(Var(Base(c))) for c in negs))
                fs.add(f"p-app:{atom}:{i}", Iff(Var(app), body))
                if inside:
                    fs.add(f"p-strong:{atom}:{i}",
                           Implies(Var(app),
                                   disj(*(Not(Var(Aux("gap", atom, b)))
                                          for b in inside))))
                else:
                    fs.add(f"p-reset:{atom}:{i}",
                           Implies(Var(app), Diff(LevelVar(atom), Z, 1)))
            fs.add(f"p-def:{atom}", Iff(Var(Base(atom)), disj(*apps)))
        return fs

    @pytest.mark.parametrize("src", [
        "a :- a.",
        "a :- b. b :- a. a :- not c. #atom c.",
        "a :- b, c. b :- a. c :- a. c.",
        "a :- b, not d. b :- a. {d}.",
    ])
    def test_same_models_as_unit_weight_path(self, src):
        program = parse_program(src)
        from asptoc.depgraph import build_depgraph, is_recursive_scope, sccs
        parts = sccs(build_depgraph(program))
        scope = next(c for c in parts.components
                     if is_recursive_scope(program, c))
        general = toc_module(program, scope)
        plain = self.build_plain(program, scope)
        keep = set(general.base_atoms) | {f"__x_{a}" for a in scope}
        assert models_projected(general, keep) == models_projected(plain, keep)


class TestTocProgram:
    def test_tight_program_has_no_ranking_variables(self):
        fs = toc_program(parse_program("{b1}. {b2}. a :- 1 <= { b1, b2 }."))
        assert fs.level_bounds == {}
        # an unconditional choice atom is left free, as an input atom is
        assert names(fs) == ["def:a"]

    def test_independent_components_union(self):
        fs = toc_program(parse_program("a :- a. c :- c."))
        assert set(fs.level_bounds) == {"a", "c"}
        assert "def:a" in names(fs) and "def:c" in names(fs)

    def test_undefined_atoms_declared_free(self):
        fs = toc_program(parse_program("a :- q. #atom q."))
        assert "q" in fs.base_atoms
        assert "def:q" not in names(fs)

    def test_constraint_becomes_negated_body(self):
        fs = toc_program(parse_program(":- a, not b. {a}. {b}."))
        constraint = dict(fs.formulas)["constraint:1"]
        assert isinstance(constraint, Not)

    def test_weak_only_mode_loses_rank_uniqueness(self):
        # b and c both rest on a alone, yet without the strong constraints
        # each may also rank one stage late
        p = parse_program("a. b :- a. a :- b. c :- a. a :- c.")
        full = enumerate_dl_models(toc_program(p), max_atoms=40)
        weak = enumerate_dl_models(toc_program(p, strong=False), max_atoms=40)
        assert len(full) == 1
        assert full[0].int_map["__x_b"] == full[0].int_map["__x_c"] == 2
        assert {m.true_atoms() & {"a", "b", "c"} for m in weak} == \
            {frozenset({"a", "b", "c"})}
        assert len(weak) == 4  # several rankings survive

    def test_weak_only_mode_covers_every_stable_model(self):
        # without the strong constraints the projections are still exactly
        # the stable models: a true atom ranks at most |S|, below every
        # false head, so ordered completion keeps forcing heads whose
        # bodies hold; only the ranks lose their uniqueness
        from asptoc.fuzz import fuzz_corpus
        for _, _, program in fuzz_corpus(seed=5150, count=25, max_atoms=6,
                                         max_rules=8):
            fs = toc_program(program, strong=False)
            cap = len(fs.base_atoms) + len(fs.aux_atoms)
            models = enumerate_dl_models(fs, max_atoms=cap)
            sig = frozenset(program.atom_names)
            projections = {m.true_atoms() & sig for m in models}
            assert {m for m, _ in stable_models(program)} == projections

    def test_external_implies_internal(self):
        # the external condition, c (weight 3) reaching 2, is the literal c
        src = "a :- 2 <= { b=2, c=3 }. b :- a. {c}."
        p = parse_program(src)
        fs = toc_program(p)
        internal = Var(Aux("int", "a", 1))
        assert Aux("ext", "a", 1) not in fs.aux_atoms
        assert dict(fs.formulas)["split:a:1"].right == Or((internal, Var(Base("c"))))
        for m in enumerate_dl_models(fs, max_atoms=60):
            props = m.prop_map
            if props["c"]:
                assert props[ref_name(internal.atom)]

    @pytest.mark.parametrize("scope_mode", ["scc", "global"])
    def test_one_formula_set_per_translation(self, monkeypatch, scope_mode):
        made = []
        real = FormulaSet.__new__

        def counting(cls, *args, **kwargs):
            made.append(cls)
            return real(cls, *args, **kwargs)

        program = parse_program((GOLDEN / "ranked_mix.lp").read_text())
        monkeypatch.setattr(FormulaSet, "__new__", staticmethod(counting))
        fs = toc_program(program, scope_mode=scope_mode)
        assert made == [FormulaSet] and fs.level_bounds

    def test_module_is_the_programs_run_for_its_scope(self):
        # every ranked scope is written by one writer: standalone, its
        # formulas are the run toc_program writes for it, in order, and
        # both sets declare the program's atoms alike
        import itertools

        from asptoc.depgraph import scopes
        from asptoc.fuzz import fuzz_corpus

        programs = [p for _, _, p in fuzz_corpus(1, 200)]
        programs.append(parse_program((GOLDEN / "ranked_mix.lp").read_text()))
        for program, scope_mode, vub_form, strong in itertools.product(
                programs, ("scc", "global"), (False, True), (True, False)):
            whole = toc_program(program, scope_mode=scope_mode, vub_form=vub_form,
                                strong=strong)
            at = {name: i for i, (name, _) in enumerate(whole.formulas)}
            for scope in (s for s, ranked in scopes(program, scope_mode) if ranked):
                fs = toc_module(program, scope, vub_form=vub_form, strong=strong)
                start = at[fs.formulas[0][0]]
                assert whole.formulas[start:start + len(fs.formulas)] == fs.formulas
                assert list(fs.base_atoms) == list(whole.base_atoms)


class TestUpperBoundEncodings:
    @pytest.mark.parametrize("src", [
        "b. c :- a. a :- 1 <= { b=1, c=1 } <= 1.",
        "{b}. {c}. a :- 2 <= { b=2, c=3 } <= 4. d :- a. a :- d.",
        "a :- 1 <= { b=5, c=1 } <= 4. b :- a. {c}.",
    ])
    def test_combined_and_vub_agree(self, src):
        p = parse_program(src)
        combined = toc_program(p)
        vub = toc_program(p, vub_form=True)
        keep = set(p.atom_names)
        proj = lambda fs: sorted(
            (tuple(sorted(m.true_atoms() & keep)), tuple(sorted(m.ints)))
            for m in enumerate_dl_models(fs, max_atoms=80))
        assert proj(combined) == proj(vub)

    def test_vub_emits_guard(self):
        # the upper bound is spelled as the negated violation atom, and
        # nothing else restates it
        fs = toc_program(parse_program("a :- 1 <= { b, c } <= 1. {b}. {c}."),
                         vub_form=True)
        vub = Var(Aux("vub", "a", 1))
        assert list(fs.aux_atoms) == [vub.atom]
        assert names(fs) == ["vub:a:1", "def:a"]
        definition = dict(fs.formulas)["def:a"]
        assert Not(vub) in definition.right.subs

    def test_one_literal_violation_is_no_atom(self):
        # b (weight 2) exceeds 1 exactly when b holds, so the guard reads
        # not b; an upper bound no body reaches is no guard at all
        for src, definition in [("a :- 0 <= { b=2 } <= 1. {b}.", Not(Var(Base("b")))),
                                ("a :- 0 <= { b, c } <= 2. {b}. {c}.", TRUE)]:
            fs = toc_program(parse_program(src), vub_form=True)
            assert not fs.aux_atoms and names(fs) == ["def:a"]
            assert dict(fs.formulas)["def:a"] == Iff(Var(Base("a")), definition)

    @pytest.mark.parametrize("vub", [False, True])
    def test_upper_bound_judged_at_the_model(self, vub):
        # the bound is exceeded only through an atom derived after the head,
        # so an ordered (dep-substituted) upper check would miss it
        p = parse_program("b. c :- a. a :- 1 <= { b=1, c=1 } <= 1.")
        assert stable_models(p) == []
        fs = toc_program(p, vub_form=vub)
        assert enumerate_dl_models(fs, max_atoms=60) == []

    @pytest.mark.parametrize("vub", [False, True])
    def test_inapplicable_rule_does_not_kill_models(self, vub):
        # both body atoms hold, the sum exceeds the bound, the rule is
        # simply inactive; the model with a false must survive
        p = parse_program("b. c. a :- 1 <= { b, c } <= 1.")
        assert [sorted(m) for m, _ in stable_models(p)] == [["b", "c"]]
        fs = toc_program(p, vub_form=vub)
        models = enumerate_dl_models(fs, max_atoms=60)
        assert [sorted(m.true_atoms() & {"a", "b", "c"}) for m in models] == \
            [["b", "c"]]


class TestNormalizeSubsets:
    def test_cardinality_two_of_four(self):
        p = parse_program("a :- 2 <= { b1, b2, b3, b4 }.")
        normalized = normalize_subsets(p.rules[0])
        assert len(normalized.rules) == math.comb(4, 2)
        assert all(len(r.body) == 2 for r in normalized.rules)

    def test_weight_minimal_subsets(self):
        p = parse_program("a :- 7 <= { b1=7, b2=5, b3=3, b4=2, b5=1 }.")
        normalized = normalize_subsets(p.rules[0])
        bodies = [r.pos_atoms() for r in normalized.rules]
        assert bodies == [("b1",), ("b2", "b3"), ("b2", "b4")]

    def test_lower_one_gives_unit_rules(self):
        p = parse_program("a :- 1 <= { b1, b2, b3, b4, b5 }.")
        normalized = normalize_subsets(p.rules[0])
        assert [r.pos_atoms() for r in normalized.rules] == \
            [(f"b{i}",) for i in range(1, 6)]

    def test_size_cap(self):
        src = "a :- 1 <= { b1, b2, b3, b4, b5, b6, b7 }."
        with pytest.raises(ResourceError):
            normalize_subsets(parse_program(src).rules[0])

    def test_negative_literals_rejected(self):
        p = parse_program("a :- 1 <= { b, not c }.")
        with pytest.raises(ValueError):
            normalize_subsets(p.rules[0])


def assemble_abstract(program, scope, rule_index=0):
    """Full module set with the rule routed through the extensional path."""
    fs = FormulaSet()
    fs.declare_base(*sorted(scope))
    size = len(scope)
    for atom in sorted(scope):
        fs.declare_level([atom], 1, size + 1)
        fs.extend(mk_bounds(LevelVar(atom), Var(Base(atom)), size))
    rule = program.rules[rule_index]
    from asptoc.program import Polarity
    for wlit in rule.literals(Polarity.POSITIVE):
        b = wlit.atom
        if b in scope:
            fs.extend(mk_dep_gap((Var(Aux("dep", rule.head, b)), Var(Aux("gap", rule.head, b))),
                                 Var(Base(b)), LevelVar(rule.head), LevelVar(b)))
    applies = toc_abstract(fs, rule, scope)
    fs.add(f"def:{rule.head}", Iff(Var(Base(rule.head)), applies))
    return fs


WEIGHT_PATH_RULES = [
    ("a :- 7 <= { b1=7, b2=5, b3=3, b4=2 }.", "a b1 b2 b3 b4"),
    ("a :- 2 <= { b1, b2, b3 }.", "a b1 b2 b3"),
    ("a :- 2 <= { b1=2, b2=1, b3=1 } <= 3.", "a b1 b2 b3"),
    ("a :- 1 <= { b1=5, b2=1 } <= 4.", "a b1 b2"),
    ("a :- 2 <= { b1, not b2, b3=2 }.", "a b1 b2 b3"),
]

# one rule per support shape: split, no in-scope atom, convex with split
ABSTRACT_SHAPES = [
    ("a :- 1 <= { b1, c }.", "a b1"),
    ("a :- 1 <= { b1, b2 }.", "a"),
    ("a :- 2 <= { b1=2, c=1, d=1 } <= 3.", "a b1"),
]


def abstract_forms_text():
    """The extensional forms in text: the assembled module of every
    weight-path rule, then the bare ``toc_abstract`` set of each shape
    with and without the strong condition."""
    parts = []
    for src, scope_atoms in WEIGHT_PATH_RULES:
        fs = assemble_abstract(parse_program(src), frozenset(scope_atoms.split()))
        parts.append(f"; module {src} scope {scope_atoms}\n{debug_text(fs)}")
    for src, scope_atoms in ABSTRACT_SHAPES:
        for strong in (True, False):
            scope = scope_atoms.split()
            fs = FormulaSet()
            toc_abstract(fs, parse_program(src).rules[0], frozenset(scope), strong=strong)
            for atom in scope:  # the bare set mentions ranks it does not declare
                fs.declare_level([atom], 1, len(scope) + 1)
            table = fs.symbols
            lines = [f"; rule {src} scope {scope_atoms} strong {strong}"]
            lines += [f"(aux {ref_name(a)})" for a in fs.aux_atoms]
            lines += [f"(formula {n} {to_sexpr(f, table)})" for n, f in fs.formulas]
            parts.append("\n".join(lines) + "\n")
    return "".join(parts)


class TestAbstractAggregates:
    def test_abstract_forms_golden(self):
        assert abstract_forms_text() == (GOLDEN / "abstract_forms.txt").read_text()

    def test_all_subsets_family_is_trivially_true(self):
        p = parse_program("a :- 0 <= { b }. b :- a.")
        fs = FormulaSet()
        toc_abstract(fs, p.rules[0], frozenset({"a", "b"}),
                     family={frozenset(), frozenset({0})})
        # both supports are true, so no app, int or ext atom is needed:
        # what is left is the rank reset of an always applicable rule
        assert {aux.kind for aux in fs.aux_atoms} == {"dep", "gap"}
        assert fs.formulas == [("reset:a:1", Diff(LevelVar("a"), Z, 1))]

    def test_non_convex_family_rejected(self):
        p = parse_program("a :- 1 <= { b, c }. b :- a. c :- a.")
        with pytest.raises(ConvexityError):
            toc_abstract(FormulaSet(), p.rules[0], frozenset({"a", "b", "c"}),
                         family={frozenset(), frozenset({0, 1})})

    @pytest.mark.parametrize("src,scope_atoms", WEIGHT_PATH_RULES)
    def test_matches_weight_path(self, src, scope_atoms):
        program = parse_program(src)
        scope = frozenset(scope_atoms.split())
        standard = toc_module(program, scope)
        abstract = assemble_abstract(program, scope)
        keep = set(standard.base_atoms) | {f"__x_{a}" for a in scope}
        assert models_projected(standard, keep) == models_projected(abstract, keep)


class TestLinearity:
    def test_formula_count_linear_in_body_size(self):
        counts = {}
        for n in (5, 10, 20, 40):
            body = ", ".join(f"b{i}=1" for i in range(1, n + 1))
            p = parse_program(f"a :- {max(1, n // 2)} <= {{ {body} }}.")
            scope = frozenset({"a", *(f"b{i}" for i in range(1, n + 1))})
            counts[n] = len(toc_module(p, scope).formulas)
        assert counts[10] / counts[5] <= 2
        assert counts[20] / counts[10] <= 2
        assert counts[40] / counts[20] <= 2
