"""SMT-LIB emission and solver-response parsing."""

import pathlib
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from asptoc.dlcheck import enumerate_dl_models
from asptoc.formulas import (
    FALSE,
    TRUE,
    And,
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
    PBTerm,
    ValidationError,
    Var,
    Z,
    mk_bounds,
    mk_dep_gap,
)
from asptoc.parser import parse_program
from asptoc.smtlib import (
    DEBUG,
    SMTLIB,
    WRITE_CHUNK,
    SolverInvocationError,
    SolverResponseError,
    emit_smtlib,
    read_solver_model,
    run_solver,
    to_sexpr,
    written_set,
)
from asptoc.fuzz import CHECK_MODES, fuzz_corpus
from asptoc.toc import toc_program
from references import debug_text, recheck, reference_sexpr
from stub_solver import build_formula_set, parse_sexprs, tokenize

GOLDEN = pathlib.Path(__file__).parent / "golden"
STUB = [sys.executable, str(pathlib.Path(__file__).parent / "stub_solver.py")]


class TestEmission:
    def test_self_loop_declarations(self):
        text = emit_smtlib(toc_program(parse_program("a :- a.")), model=True)
        bools = [l for l in text.splitlines() if "Bool" in l]
        ints = [l for l in text.splitlines() if "Int" in l]
        assert bools == [
            "(declare-const a Bool)",
            "(declare-const |dep:a:a| Bool)",
            "(declare-const |gap:a:a| Bool)",
        ]
        assert ints == [
            "(declare-const __z Int)",
            "(declare-const __x_a Int)",
        ]

    @pytest.mark.parametrize("scope_mode", ["scc", "global"])
    def test_ranked_emission_compares_no_nodes(self, monkeypatch, scope_mode):
        # every symbol lookup hits by identity or compares strings in C; a
        # key equal to the node looked up but not the same object would
        # reach the Python-level Node.__eq__
        from asptoc import node

        fs = toc_program(parse_program("a :- b. b :- a. {a}. c :- 2 <= { a=1, b=2 } <= 2. "
                                       "c :- not d, c. d :- not c."),
                         scope_mode=scope_mode, vub_form=True)
        assert len(fs.level_bounds) >= 2
        calls = []
        real = node.Node.__eq__
        monkeypatch.setattr(node.Node, "__eq__",
                            lambda self, other: calls.append(self) or real(self, other))
        emit_smtlib(fs)
        debug_text(fs)
        fs.validate()
        assert calls == []

    def test_self_loop_golden(self):
        text = emit_smtlib(toc_program(parse_program("a :- a.")), model=True)
        assert text == (GOLDEN / "self_loop.smt2").read_text()

    def test_empty_set_is_header_only(self):
        assert emit_smtlib(FormulaSet()) == "(set-logic QF_LIA)\n(check-sat)\n"

    @pytest.mark.parametrize("src, ranked", [
        ("{b1}. {b2}. a :- 1 <= { b1, b2 } <= 1. :- a, not b1.", False),
        ("a :- b. b :- a. {b}. c :- 1 <= { a, b } <= 1.", True),
    ])
    def test_z_declared_and_pinned_only_when_ranked(self, src, ranked):
        # one pin, right after the declarations, and only where ranking
        # variables need the anchor
        for vub_form in (False, True):
            lines = emit_smtlib(toc_program(parse_program(src), vub_form=vub_form),
                                model=True).splitlines()
            declared = max(i for i, l in enumerate(lines)
                           if l.startswith("(declare-const"))
            assert lines.count("(assert (= __z 0))") == ranked
            assert any(l.endswith(" Int)") for l in lines) == ranked
            if ranked:
                assert lines[declared + 1] == "(assert (= __z 0))"

    def test_deterministic(self):
        p = parse_program("{b1}. {b2}. a :- 1 <= { b1, b2 }. :- a, not b1.")
        assert emit_smtlib(toc_program(p)) == emit_smtlib(toc_program(p))

    def test_undeclared_reference_fails(self):
        fs = FormulaSet()
        fs.add("f", Var(Base("a")))
        with pytest.raises(ValidationError):
            emit_smtlib(fs)

    def test_non_formula_is_a_type_error(self):
        with pytest.raises(TypeError, match="not a formula"):
            to_sexpr(object(), {})

    @pytest.mark.parametrize("formula", [
        Var(Base("q")),
        Var(Aux("app", "a", 1)),
        PB((PBTerm(1, Base("a")), PBTerm(2, Aux("dep", "a", "q"))), lower=1),
        Diff(LevelVar("q"), Z, 1),
    ], ids=["base", "aux", "pb-term", "level"])
    def test_invalid_set_reports_as_validate(self, formula):
        # on a symbol-table miss the writer names the formula's undeclared
        # symbols, in either format; with one bad formula all three
        # messages agree
        fs = FormulaSet()
        fs.declare_base("a")
        fs.declare_level(["a"], 1, 2)
        fs.add("ok", Diff(LevelVar("a"), Z, 2))
        fs.add("bad", formula)
        with pytest.raises(ValidationError) as expected:
            fs.validate()
        with pytest.raises(ValidationError) as emitted:
            emit_smtlib(fs)
        with pytest.raises(ValidationError) as debug:
            debug_text(fs)
        assert str(emitted.value) == str(debug.value) == str(expected.value)

    def test_z_without_ranking_variables_is_undeclared(self):
        # the emitter declares __z only alongside ranking variables, so a
        # set that mentions z without them is invalid, not silently emitted
        fs = FormulaSet()
        fs.declare_base("a")
        fs.add("pin", Diff(Z, Z, 0))
        assert "__z" not in fs.symbols
        with pytest.raises(ValidationError, match=r"undeclared variables: \['__z'\]"):
            fs.validate()
        with pytest.raises(ValidationError, match="__z"):
            emit_smtlib(fs)
        with pytest.raises(ValidationError, match="__z"):
            debug_text(fs)
        fs.declare_level(["a"], 1, 2)
        assert fs.symbols["__z"] == "__z"
        fs.validate()
        assert "(assert (<= (- __z __z) 0))" in emit_smtlib(fs).splitlines()

    def test_hard_names_declare_distinct_legal_symbols(self):
        p = parse_program("a__b :- c. c :- a__b. a :- b__c. b__c :- a. {c}. {a}.\n"
                          "true :- not false. false :- not true. let :- true.")
        declared = [l.split()[1] for l in emit_smtlib(toc_program(p)).splitlines()
                    if l.startswith("(declare-const")]
        assert len(set(declared)) == len(declared)
        assert {"|dep:a__b:c|", "|dep:a:b__c|", "|atom:true|", "|atom:let|"} <= set(declared)
        assert not {"true", "false", "let"} & set(declared)
        assert "(aux |gap:a:b__c|)" in debug_text(toc_program(p))


# ---------------------------------------------------------------------------
# the written set's chunks

@pytest.mark.parametrize("fmt", [SMTLIB, DEBUG], ids=["smtlib", "debug"])
def test_written_chunks_hold_whole_formulas(fmt):
    # one ranked scope of 500 atoms, each with two edges, whose
    # scaffolding (1,500 range formulas, 1,000 dep and, when strong, 1,000
    # gap definitions) is written in one add_scaffold, across several
    # chunks.  Its text is to_sexpr of the mk_bounds/mk_dep_gap formulas a
    # list set builds, in their order; fewer than WRITE_CHUNK lines wait
    # after the add, and every chunk joins exactly WRITE_CHUNK formulas.
    # The text gives the declarations in strings of WRITE_CHUNK lines, then
    # the chunks, then the rest with the tail
    atoms = [f"p{i}" for i in range(500)]
    holds = {a: Var(Base(a)) for a in atoms}
    level = {a: LevelVar(a) for a in atoms}
    for kinds in (("dep", "gap"), ("dep",)):
        edges = {a: {b: tuple(Var(Aux(kind, a, b)) for kind in kinds)
                     for b in sorted({atoms[(i + 1) % 500], atoms[(i + 7) % 500]})}
                 for i, a in enumerate(atoms)}
        written, listed = written_set(fmt), FormulaSet()
        for fs in (written, listed):
            fs.declare_base(*atoms)
            fs.add_scaffold(level, holds, edges)
            fs.add("last", holds["p0"])
        formulas = written.formulas
        assert len(formulas.lines) < WRITE_CHUNK
        assert listed.formulas == (
            [pair for a in atoms for pair in mk_bounds(level[a], holds[a], 500)]
            + [pair for a in atoms for b, edge in edges[a].items()
               for pair in mk_dep_gap(edge, holds[b], level[a], level[b])]
            + [("last", holds["p0"])])
        count = len(listed.formulas)
        assert count == 500 * 3 + 1000 * len(kinds) + 1 > 2 * WRITE_CHUNK
        assert len(formulas) == count
        assert written.symbols == listed.symbols
        assert written.aux_atoms == listed.aux_atoms
        assert written.level_bounds == listed.level_bounds == dict.fromkeys(atoms, (1, 501))
        header = fmt.header(written)
        text = list(formulas.text(written))
        declarations = -(-len(header) // WRITE_CHUNK)
        assert "".join(text[:declarations]) == "".join(header)
        assert "".join(text[declarations:]) == "".join(
            [f"{fmt.start}{name}{fmt.mid}{to_sexpr(f, listed.symbols)}{fmt.end}"
             for name, f in listed.formulas] + list(fmt.tail))
        per_chunk = [chunk.count("\n" + fmt.start) + chunk.startswith(fmt.start)
                     for chunk in text[declarations:]]
        assert per_chunk == [WRITE_CHUNK] * (count // WRITE_CHUNK) + [count % WRITE_CHUNK]


# ---------------------------------------------------------------------------
# the emitter against its plain recursive reference, on drawn formula trees

def differential_table():
    """A symbol table with a reserved-word base atom, auxiliary atoms and
    two ranking variables besides ``z``."""
    fs = FormulaSet()
    fs.declare_base("a", "b", "not")
    fs.declare_aux(Aux("dep", "a", "b"), Aux("app", "a", 1))
    fs.declare_level(["a"], 1, 3)
    fs.declare_level(["b"], 1, 3)
    return fs.symbols


TABLE = differential_table()
ATOMS = st.sampled_from(
    [Base("a"), Base("b"), Base("not"), Aux("dep", "a", "b"), Aux("app", "a", 1)])
UNDECLARED_ATOMS = st.sampled_from([Base("c"), Base("and"), Aux("gap", "a", "b")])
CONSTANTS = st.integers(-4, 4)
# sums of zero to four terms, negated or not, under a lower, an upper or
# both bounds
SUMS = st.builds(lambda terms, bounds: PB(tuple(terms), *bounds),
                 st.lists(st.builds(PBTerm, st.integers(1, 3), ATOMS, st.booleans()),
                          max_size=4),
                 st.one_of(st.tuples(CONSTANTS, st.none()), st.tuples(st.none(), CONSTANTS),
                           st.tuples(CONSTANTS, CONSTANTS)))
LEAVES = st.one_of(
    ATOMS.map(Var), st.just(TRUE), st.just(FALSE), SUMS,
    st.builds(Diff, *[st.sampled_from([Z, LevelVar("a"), LevelVar("b")])] * 2, CONSTANTS))
FORMULAS = st.recursive(LEAVES, lambda kids: st.one_of(
    kids.map(Not),
    st.lists(kids, min_size=1, max_size=4).map(lambda subs: And(tuple(subs))),
    st.lists(kids, min_size=1, max_size=4).map(lambda subs: Or(tuple(subs))),
    st.builds(Implies, kids, kids),
    st.builds(Iff, kids, kids)), max_leaves=16)


@settings(max_examples=400, deadline=None)
@given(FORMULAS)
def test_emitter_equals_reference(formula):
    assert to_sexpr(formula, TABLE) == reference_sexpr(formula, TABLE)


@settings(max_examples=200, deadline=None)
@given(FORMULAS, st.one_of(
    UNDECLARED_ATOMS.map(Var),
    st.builds(lambda atom: PB((PBTerm(1, Base("a")), PBTerm(2, atom, True)), upper=2),
              UNDECLARED_ATOMS),
    st.builds(Diff, st.just(Z), st.just(LevelVar("c")), CONSTANTS)),
    st.sampled_from([lambda f, bad: Not(bad), lambda f, bad: And((f, bad)),
                     lambda f, bad: Or((bad, f)), lambda f, bad: Implies(f, bad),
                     lambda f, bad: Iff(bad, f)]))
def test_undeclared_symbol_is_a_key_error_in_both(formula, bad, wrap):
    for emit in (to_sexpr, reference_sexpr):
        with pytest.raises(KeyError):
            emit(wrap(formula, bad), TABLE)


def ranked_a():
    """The atom ``a`` with its ranking variable declared."""
    fs = FormulaSet()
    fs.declare_base("a")
    fs.declare_level(["a"], 1, 2)
    return fs


class TestReadSolverModel:
    def test_unsat(self):
        assert read_solver_model("unsat\n", ranked_a()) is None

    def test_sat_with_values(self):
        text = """sat
(
  (define-fun a () Bool false)
  (define-fun __x_a () Int 2)
  (define-fun __z () Int 0)
)
"""
        model = read_solver_model(text, ranked_a())
        assert model.prop_map == {"a": False}
        assert model.int_map == {"__x_a": 2, "__z": 0}

    def test_negative_integer_syntax(self):
        text = "sat\n((define-fun __x_a () Int (- 1)))\n"
        assert read_solver_model(text, ranked_a()).int_map == {"__x_a": -1}

    def test_garbage_rejected(self):
        with pytest.raises(SolverResponseError):
            read_solver_model("segmentation fault\n", ranked_a())

    def test_malformed_entry_carries_line(self):
        text = "sat\n((define-fun a () Bool maybe))\n"
        with pytest.raises(SolverResponseError) as err:
            read_solver_model(text, ranked_a())
        assert "define-fun" in err.value.line

    def test_known_symbols_come_from_the_table(self, monkeypatch):
        import asptoc.formulas
        import asptoc.smtlib
        fs = toc_program(parse_program("a :- a."))

        def unnamed(ref):
            raise AssertionError("symbol named again")

        monkeypatch.setattr(asptoc.formulas, "ref_name", unnamed)
        text = "sat\n((define-fun a () Bool false))\n"
        assert read_solver_model(text, fs).prop_map == {
            "a": False, "|dep:a:a|": False, "|gap:a:a|": False}

    def test_unknown_symbols_warn_and_drop(self):
        fs = toc_program(parse_program("a :- a."))
        text = "sat\n((define-fun zz () Bool true)(define-fun a () Bool false))\n"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = read_solver_model(text, fs)
        assert any("zz" in str(w.message) for w in caught)
        assert "zz" not in model.prop_map
        # omitted declared booleans default to false
        assert model.prop_map["|gap:a:a|"] is False

    def test_symbols_decode_to_keys(self):
        fs = toc_program(parse_program("true :- not false. false :- not true. a :- a."))
        text = ("sat\n((define-fun |atom:true| () Bool true)"
                "(define-fun |atom:false| () Bool false)"
                "(define-fun |dep:a:a| () Bool false)(define-fun __x_a () Int 2))\n")
        model = read_solver_model(text, fs)
        assert model.prop_map["true"] is True and model.prop_map["false"] is False
        assert model.prop_map["|dep:a:a|"] is False
        assert model.int_map == {"__x_a": 2}

    @pytest.mark.parametrize("entry", [
        "(define-fun true () Bool true)",      # declared as |atom:true|
        "(define-fun |app:a:9| () Bool true)",  # not declared
        "(define-fun |bogus| () Bool true)",    # not a symbol of the codec
        "(define-fun __x_a () Bool true)",      # wrong sort
        "(define-fun a () Int 1)",              # wrong sort
    ])
    def test_foreign_symbols_warn_and_drop(self, entry):
        fs = toc_program(parse_program("true :- not false. false :- not true. a :- a."))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = read_solver_model(f"sat\n({entry})\n", fs)
        assert len(caught) == 1 and "ignoring unknown model symbol" in str(caught[0].message)
        assert not model.true_atoms() and model.ints == ()


class TestSolverPipeline:
    def test_stub_roundtrip_satisfies_formulas(self, tmp_path):
        fs = toc_program(parse_program("b. a :- b, not c. #atom c."))
        path = tmp_path / "t.smt2"
        path.write_text(emit_smtlib(fs, model=True))
        response = run_solver(" ".join(STUB), str(path))
        model = read_solver_model(response, fs)
        assert model is not None and recheck(fs, model)

    def test_stub_reports_unsat(self, tmp_path):
        fs = toc_program(parse_program("a :- not a."))
        path = tmp_path / "t.smt2"
        path.write_text(emit_smtlib(fs, model=True))
        assert read_solver_model(run_solver(" ".join(STUB), str(path)), fs) is None

    def test_missing_command_raises(self):
        with pytest.raises(SolverInvocationError):
            run_solver("/definitely/not/a/solver", "x.smt2")

    def test_timeout_raises(self):
        sleeper = f"{sys.executable} -c 'import time; time.sleep(10)'"
        with pytest.raises(SolverInvocationError, match="timed out after 0.5 s"):
            run_solver(sleeper, "x.smt2", timeout=0.5)


# Convex (two-bound) rules, tight and on a cycle.  Only the flat
# completion (scc scope, no --vub-form) writes one sum under both bounds,
# and the fuzz slice below draws too few such rules to catch a fault in
# how the two bounds join.
CONVEX = """{b}. {c}. {d}.
a :- 1 <= { b, c, d } <= 1.
e :- 2 <= { e=1, b=1, c=2, d=1 } <= 3.
"""
READ_BACK_SOURCES = [CONVEX, *(src for _, src, _ in fuzz_corpus(1, 24))]


def finder_models(fs):
    return enumerate_dl_models(fs, max_atoms=len(fs.base_atoms) + len(fs.aux_atoms))


@pytest.mark.parametrize("strong", [True, False], ids=["strong", "weak"])
@pytest.mark.parametrize("scope_mode, vub_form", CHECK_MODES,
                         ids=["scc", "global", "scc-vub", "global-vub"])
def test_emitted_text_reads_back_to_the_same_models(scope_mode, vub_form, strong):
    # the text a solver reads, not only the formula set it was written
    # from, must have exactly the finder's models: read back through the
    # stub solver's reader, each set keeps every model and gains none
    for source in READ_BACK_SOURCES:
        fs = toc_program(parse_program(source), scope_mode=scope_mode,
                         strong=strong, vub_form=vub_form)
        text = emit_smtlib(fs, model=True)
        back = build_formula_set(parse_sexprs(tokenize(text)))
        assert sorted(finder_models(back)) == sorted(finder_models(fs)), source
