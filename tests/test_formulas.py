"""Formula IR: ranking scaffolding, validation, constant folding, the
symbol codec."""

import copy
import importlib
import pickle
import pkgutil
import re

import pytest
from hypothesis import given, settings, strategies as st

import asptoc
from asptoc import depgraph, dlcheck, formulas, fuzz, normtest, oracle, program
from asptoc.depgraph import build_depgraph
from asptoc.formulas import (
    FALSE,
    TRUE,
    And,
    Aux,
    Base,
    Diff,
    FalseF,
    FormulaSet,
    Iff,
    Implies,
    LevelVar,
    Not,
    Or,
    PB,
    PBTerm,
    TrueF,
    ValidationError,
    Var,
    Z,
    ZVar,
    _spell,
    eval_formula,
    make_pb,
    mk_bounds,
    mk_dep_gap,
    ref_name,
    var_name,
)
from asptoc.node import Node
from asptoc.parser import parse_program
from asptoc.smtlib import smtlib_header
from asptoc.toc import toc_program
from references import decode, drop_formulas, encode


def eval_pairs(pairs, bools, ints):
    ints = dict(ints)
    ints.setdefault("__z", 0)
    return all(eval_formula(f, bools, ints) for _, f in pairs)


class TestBounds:
    def test_self_loop_scope_range(self):
        pairs = mk_bounds(LevelVar("a"), Var(Base("a")), 1)
        # a true atom ranks in 1..|S|; the top rank |S|+1 is the false one's
        for x in range(-1, 5):
            feasible = eval_pairs(pairs, {"a": True}, {"__x_a": x})
            assert feasible == (1 <= x <= 1)

    def test_false_atom_forces_top_rank(self):
        pairs = mk_bounds(LevelVar("a"), Var(Base("a")), 1)
        admitted = [x for x in range(0, 4)
                    if eval_pairs(pairs, {"a": False}, {"__x_a": x})]
        assert admitted == [2]

    def test_example5_default_rank_six(self):
        pairs = mk_bounds(LevelVar("b2"), Var(Base("b2")), 5)
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
        pairs = mk_dep_gap((Var(Aux("dep", "a", "b")), Var(Aux("gap", "a", "b"))),
                           Var(Base("b")), LevelVar("a"), LevelVar("b"))
        for dep in (False, True):
            for gap in (False, True):
                env = {**bools, ref_name(Aux("dep", "a", "b")): dep,
                       ref_name(Aux("gap", "a", "b")): gap}
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
        assert make_pb([], [], lower=0) == TrueF()
        assert make_pb([], [], lower=1) == FalseF()
        assert make_pb([], [], upper=0) == TrueF()
        assert make_pb([], [], lower=0, upper=-1) == FalseF()

    def test_non_empty_not_folded(self):
        # neither every term nor any one term is needed: a genuine sum
        f = make_pb([1, 2, 2], [Var(Base("a")), Var(Base("b")), Not(Var(Base("c")))],
                    lower=3)
        assert f == PB((PBTerm(1, Base("a")), PBTerm(2, Base("b")),
                        PBTerm(2, Base("c"), True)), 3, None)

    def test_boolean_shapes_fold(self):
        a, b = Var(Base("a")), Var(Base("b"))
        terms = [2, 3], [a, Not(b)]
        assert make_pb(*terms, lower=6) == FALSE
        assert make_pb(*terms, upper=-1) == FALSE
        assert make_pb(*terms, lower=4, upper=3) == FALSE
        assert make_pb(*terms, lower=0, upper=5) == TRUE
        assert make_pb(*terms, lower=4) == And((a, Not(b)))
        assert make_pb(*terms, lower=2) == Or((a, Not(b)))
        assert make_pb(*terms, upper=1) == Not(Or((a, Not(b))))
        assert make_pb([3], [Not(b)], upper=2) == b
        # a bound that cannot bind is dropped; two binding bounds stay
        pb_terms = (PBTerm(2, Base("a")), PBTerm(3, Base("b"), True))
        assert make_pb(*terms, lower=3, upper=7) == PB(pb_terms, 3, None)
        assert make_pb(*terms, lower=3, upper=4) == PB(pb_terms, 3, 4)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 8),
                              st.sampled_from("abcde").map(lambda n: Var(Base(n))),
                              st.booleans()), max_size=5),
           st.data())
    def test_folded_sum_equals_the_sum(self, terms, data):
        total = sum(c for c, _, _ in terms)
        bound = st.integers(-2, total + 2)
        lower, upper = data.draw(st.one_of(st.tuples(bound, st.none()),
                                           st.tuples(st.none(), bound),
                                           st.tuples(bound, bound)))
        folded = make_pb([c for c, _, _ in terms], [Not(v) if n else v for _, v, n in terms],
                         lower, upper)
        reference = PB(tuple(PBTerm(c, v.atom, n) for c, v, n in terms), lower, upper)
        for bits in range(32):
            bools = {name: bool(bits >> i & 1) for i, name in enumerate("abcde")}
            assert eval_formula(folded, bools, {}) == eval_formula(reference, bools, {})

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
        assert ref_name(Aux("app", "a", 1)) == "|app:a:1|"
        assert ref_name(Aux("dep", "a", "b")) == "|dep:a:b|"
        assert ref_name(Aux("gap", "a", "b")) == "|gap:a:b|"
        assert ref_name(Aux("int", "a", 2)) == "|int:a:2|"
        assert ref_name(Aux("ext", "a", 2)) == "|ext:a:2|"
        assert ref_name(Aux("vub", "a", 1)) == "|vub:a:1|"
        assert var_name(LevelVar("a")) == "__x_a"
        assert var_name(Z) == "__z"

    def test_reserved_base_atoms_are_quoted_but_keyed_plainly(self):
        assert encode(Base("p")) == "p"
        assert encode(Base("true")) == "|atom:true|"
        assert ref_name(Base("true")) == "true"
        assert decode("|atom:true|") == decode("true") == Base("true")
        fs = FormulaSet()
        fs.declare_base("let", "p")
        assert fs.base_atoms == {"let": "|atom:let|", "p": "p"}

    def test_inner_double_underscore_names_stay_apart(self):
        # one flat "__" scheme once spelled both of these __dep_a__b__c
        left, right = Aux("dep", "a__b", "c"), Aux("dep", "a", "b__c")
        assert ref_name(left) == "|dep:a__b:c|"
        assert ref_name(right) == "|dep:a:b__c|"
        fs = FormulaSet()
        fs.declare_aux(left, right)
        fs.add("f", PB((PBTerm(1, left), PBTerm(1, right)), lower=1))
        fs.validate()
        assert len(set(fs.symbols.values())) == len(fs.symbols)

    @pytest.mark.parametrize("symbol", [
        "|app:a|", "|app:a:b|", "|foo:a:1|", "|atom:a:b|", "|a|", "||",
        "|app:a:1:n|", "|dep:a:b:c|"])
    def test_foreign_quoted_symbols_rejected(self, symbol):
        with pytest.raises(ValueError):
            decode(symbol)

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
        fs.declare_level(["a"], 1, 2)
        for pair in mk_bounds(LevelVar("a"), Var(Base("a")), 1):
            fs.add(*pair)
        fs.validate()

    def test_without_drops_by_prefix(self):
        fs = FormulaSet()
        fs.declare_base("a")
        fs.add("strong:a:1", TrueF())
        fs.add("def:a", Var(Base("a")))
        kept = drop_formulas(fs, "strong:")
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

    def test_without_copies_the_vocabulary(self):
        fs = FormulaSet()
        fs.declare_base("b", "a")
        fs.declare_aux(Aux("gap", "b", "a"), Aux("app", "b", 1))
        fs.add("strong:b:1", TrueF())
        kept = drop_formulas(fs, "strong:")
        assert list(kept.base_atoms) == ["b", "a"]
        assert list(kept.aux_atoms) == [Aux("gap", "b", "a"), Aux("app", "b", 1)]
        kept.declare_base("z")
        assert "z" not in fs.base_atoms

    def test_symbol_table_follows_declarations(self):
        grown = FormulaSet()
        grown.declare_base("b", "a")
        grown.declare_aux(Aux("gap", "b", "a"), Aux("app", "b", 1))
        grown.declare_base("c", "b")
        grown.declare_aux(Aux("app", "a", 2), Aux("gap", "b", "a"))
        kept = drop_formulas(grown, "strong:")
        for fs in (grown, kept):
            assert list(fs.base_atoms.items()) == [("b", "b"), ("a", "a"), ("c", "c")]
            assert list(fs.aux_atoms) == [Aux("gap", "b", "a"), Aux("app", "b", 1),
                                          Aux("app", "a", 2)]
            assert all(sym == ref_name(ref) for ref, sym in fs.aux_atoms.items())
        kept.declare_level(["b"], 1, 3)
        assert kept.symbols == {"b": "b", "a": "a", "c": "c",
                                  "|gap:b:a|": "|gap:b:a|",
                                  "|app:b:1|": "|app:b:1|",
                                  "|app:a:2|": "|app:a:2|",
                                  "__z": "__z", "__x_b": "__x_b"}


# one reference of each class and auxiliary kind, all of which the
# translation of KEYED_SOURCE declares
KEYED_REFS = [Base("p"), Base("true"), *(Aux(kind, "a", "b" if kind in ("dep", "gap") else 1)
                                          for kind in Aux.KINDS),
              LevelVar("a"), Z]
KEYED_SOURCE = "a :- 1 <= { b, c } <= 1. b :- a. {c}. p :- true. {true}."


@pytest.mark.parametrize("ref", KEYED_REFS, ids=repr)
def test_every_reference_carries_its_key(ref):
    assert ref_name(ref) == var_name(ref) == ref.name
    rebuilt = type(ref)(*(getattr(ref, field) for field in ref._fields))
    for twin in (copy.copy(ref), copy.deepcopy(ref), pickle.loads(pickle.dumps(ref)), rebuilt):
        assert twin == ref and twin.name == ref.name
    table = toc_program(parse_program(KEYED_SOURCE), vub_form=True).symbols
    assert ref.name in table and all(type(key) is str for key in table)


# ---------------------------------------------------------------------------
# codec properties

ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*")
SIMPLE_SYMBOL_RE = re.compile(r"[A-Za-z~!@$%^&*_+=<>.?/-][0-9A-Za-z~!@$%^&*_+=<>.?/-]*")
# SMT-LIB 2.6: reserved words, command names, Core and Ints symbols
SMT_WORDS = set("""
    ! _ as BINARY DECIMAL exists HEXADECIMAL forall let match NUMERAL par STRING
    assert check-sat check-sat-assuming declare-const declare-datatype
    declare-datatypes declare-fun declare-sort define-fun define-fun-rec
    define-funs-rec define-sort echo exit get-assertions get-assignment get-info
    get-model get-option get-proof get-unsat-assumptions get-unsat-core
    get-value pop push reset reset-assertions set-info set-logic set-option
    Bool true false not => and or xor = distinct ite
    Int - + * div mod abs <= < >= >
""".split())


def legal_symbol(symbol):
    if symbol.startswith("|"):
        return len(symbol) >= 2 and symbol.endswith("|") \
            and not re.search(r"[|\\]", symbol[1:-1])
    return bool(SIMPLE_SYMBOL_RE.fullmatch(symbol)) and symbol not in SMT_WORDS


plain_names = st.from_regex(r"[a-z][A-Za-z0-9_]{0,5}", fullmatch=True)
atom_names = st.one_of(
    plain_names,
    st.builds(lambda a, b: f"{a}__{b}", plain_names, plain_names),
    plain_names.map(lambda n: n + "_"),
    st.sampled_from(sorted(w for w in SMT_WORDS if ATOM_RE.fullmatch(w))),
)
aux_refs = st.one_of(
    st.builds(Aux, st.sampled_from(["dep", "gap"]), atom_names, atom_names),
    st.builds(Aux, st.sampled_from(["app", "int", "ext", "vub"]), atom_names,
              st.integers(1, 999)),
)
refs = st.one_of(atom_names.map(Base), aux_refs, atom_names.map(LevelVar), st.just(Z))


@settings(max_examples=300, deadline=None)
@given(refs)
def test_codec_round_trips_to_legal_symbols(ref):
    symbol = encode(ref)
    assert decode(symbol) == ref
    assert legal_symbol(symbol), symbol


@settings(max_examples=100, deadline=None)
@given(st.lists(refs, unique=True, max_size=12))
def test_codec_is_injective(refs):
    assert len({encode(r) for r in refs}) == len(refs)
    atoms = [r for r in refs if isinstance(r, (Base, Aux))]
    assert len({ref_name(r) for r in atoms}) == len(atoms)


@settings(max_examples=200, deadline=None)
@given(aux_refs, atom_names)
def test_aux_symbols_spell_no_atom_or_variable(aux, name):
    assert encode(aux) not in {name, encode(Base(name)), var_name(LevelVar(name)),
                               var_name(Z)}


declarations = st.lists(st.one_of(
    st.tuples(st.just("base"), st.lists(atom_names, max_size=3)),
    st.tuples(st.just("aux"), st.lists(aux_refs, max_size=3)),
    st.tuples(st.just("level"), st.lists(atom_names, max_size=3)),
), max_size=8)


@settings(max_examples=200, deadline=None)
@given(declarations)
def test_symbols_are_the_table_the_declarations_imply(calls):
    # the symbol table is built only by declare_*: after any sequence of
    # them it holds exactly what the three tables imply, ``z`` included
    # exactly when some owner is ranked
    fs = FormulaSet()
    declared = {"base": set(), "aux": set(), "level": set()}
    for kind, args in calls:
        if kind == "base":
            fs.declare_base(*args)
        elif kind == "aux":
            fs.declare_aux(*args)
        else:
            fs.declare_level(args, 1, len(args) + 1)
        declared[kind].update(args)
    assert (set(fs.base_atoms), set(fs.aux_atoms), set(fs.level_bounds)) == \
        (declared["base"], declared["aux"], declared["level"])
    implied = {name: _spell(name) for name in fs.base_atoms}
    implied.update((aux.name, aux.name) for aux in fs.aux_atoms)
    if fs.level_bounds:
        implied.update((v.name, v.name) for v in (Z, *map(LevelVar, fs.level_bounds)))
    assert fs.symbols == implied


def ir_samples():
    a = Var(Base("a"))
    return [Base("a"), Aux("app", "a", 1), LevelVar("a"), a, Not(a), And((a, a)),
            Or((a, a)), Implies(a, a), Iff(a, a), TrueF(), FalseF(),
            Diff(LevelVar("a"), Z, 1), PBTerm(1, Base("a")),
            PB((PBTerm(1, Base("a")),), lower=1), Z,
            program.WeightedLiteral("a"), program.normal_rule("a", ["b"]),
            depgraph.SccPartition((frozenset("a"),)),
            oracle.PositiveRule("a", (("b", 1),), 1, None),
            dlcheck.DLModel((("a", True),), (("__z", 0),)),
            normtest.Verdict(True, 2, 1, 3, 4, None),
            fuzz.CheckReport(({"check": "uniqueness", "status": "pass"},), 1, 1),
            FormulaSet()]


def indexed_samples():
    """The nodes that keep a ``__dict__`` for their cached indexes."""
    p = parse_program("a :- b.")
    graph = build_depgraph(p)
    return [p, graph]


def test_samples_cover_every_slotted_ir_class():
    nodes = {cls for module in (formulas, program, depgraph, oracle, dlcheck, normtest, fuzz)
             for cls in vars(module).values()
             if isinstance(cls, type) and issubclass(cls, Node)
             and cls.__module__ == module.__name__}
    indexed = {type(obj) for obj in indexed_samples()}
    assert indexed == {program.Program, depgraph.DepGraph}
    assert nodes - indexed == {type(obj) for obj in ir_samples()}


@pytest.mark.parametrize("obj", ir_samples(), ids=lambda obj: type(obj).__name__)
def test_immutability_survives_slots(obj):
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):  # no slot to hold it
        obj.extra = None


@pytest.mark.parametrize("obj", ir_samples() + indexed_samples(),
                         ids=lambda obj: type(obj).__name__)
def test_fields_cannot_be_set(obj):
    assert type(obj)._fields or type(obj) in (TrueF, FalseF, ZVar)
    for name in type(obj)._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


@pytest.mark.parametrize("obj", ir_samples() + indexed_samples(),
                         ids=lambda obj: type(obj).__name__)
def test_value_semantics(obj):
    twin = copy.deepcopy(obj)
    assert twin is not obj and twin == obj and not twin != obj
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert obj
    plain = tuple(obj)
    assert obj != plain and plain != obj and not obj == plain and not plain == obj
    # a formula set's containers grow and a report's entries are dicts,
    # so neither has a hash
    if type(obj) not in (FormulaSet, fuzz.CheckReport):
        assert hash(twin) == hash(obj)
        assert obj not in {plain}


def test_equality_tells_types_apart():
    a = Var(Base("a"))
    assert Base("a") != LevelVar("a") and not Base("a") == LevelVar("a")
    assert a != Not(a) and And((a,)) != Or((a,)) and Implies(a, a) != Iff(a, a)
    assert TrueF() != FalseF() and TrueF() == TRUE and FALSE == FalseF()
    assert Base("a") != ("a",) and ("a",) != Base("a")
    assert len({Base("a"), LevelVar("a"), ("a",), Base("a")}) == 3


def test_reprs():
    lit = program.WeightedLiteral("b", program.Polarity.NEGATIVE, 2)
    assert repr(lit) == "WeightedLiteral(atom='b', polarity=neg, weight=2)"
    assert repr(Aux("dep", "a", "b")) == "Aux(kind='dep', head='a', arg='b')"
    assert repr(TRUE) == "TrueF()"
    assert repr(PB((PBTerm(2, Base("a"), True),), upper=1)) == (
        "PB(terms=(PBTerm(coef=2, atom=Base(name='a'), negated=True),), "
        "lower=None, upper=1)")
    assert repr(Diff(LevelVar("a"), Z, -1)) == "Diff(lhs=LevelVar(owner='a'), rhs=Z, k=-1)"
    assert repr(parse_program("a :- not b.")) == (
        "Program(rules=(Rule(head='a', body=(WeightedLiteral(atom='b', polarity=neg, "
        "weight=1),), lower=1, upper=None),), atom_names=('a', 'b'), hidden=frozenset())")
    assert repr(Z) == "Z"
    assert repr(oracle.PositiveRule("a", (("b", 2),), 0, (1, 3))) == (
        "PositiveRule(head='a', terms=(('b', 2),), lower=0, window=(1, 3))")
    assert repr(dlcheck.DLModel((("a", True),), ())) == "DLModel(props=(('a', True),), ints=())"
    assert repr(normtest.Verdict(True, 2, 1, 3, 4, None)) == (
        "Verdict(passed=True, instances_checked=2, subset_rules=1, subset_formula_count=3, "
        "aggregate_formula_count=4, counterexample=None)")


def test_ordering():
    assert sorted([Base("b"), Base("a")]) == [Base("a"), Base("b")]
    assert sorted([LevelVar("b"), LevelVar("a")]) == [LevelVar("a"), LevelVar("b")]
    assert Aux("app", "a", 1) < Aux("app", "a", 2) < Aux("dep", "a", "b")
    assert Diff(LevelVar("a"), Z, 1) < Diff(LevelVar("a"), Z, 2) < Diff(LevelVar("b"), Z, 0)
    assert dlcheck.DLModel((("a", False),), ()) < dlcheck.DLModel((("a", True),), ())
    lit = program.WeightedLiteral
    assert lit("a") < lit("a", weight=2) < lit("b")


# ---------------------------------------------------------------------------
# the generated constructors: every node class without a hand-written
# ``__new__``, found by walking ``Node``'s subclasses once every module of
# the package is imported, so a new class cannot skip these tests

for _module in pkgutil.iter_modules(asptoc.__path__):
    importlib.import_module(f"asptoc.{_module.name}")


def node_classes():
    found, stack = [], list(Node.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith("asptoc."):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


def generated(cls):
    """Whether ``cls``'s constructor is the one ``Node`` generated for it,
    which is named after the class."""
    return cls.__new__.__qualname__ == cls.__qualname__


GENERATED = [cls for cls in node_classes() if generated(cls)]

FIELD_SAMPLES = {
    "Base": ("a",), "Aux": ("dep", "a", "b"), "LevelVar": ("a",), "ZVar": (),
    "Var": (Base("a"),), "Not": (TRUE,), "And": ((TRUE, FALSE),), "Or": ((TRUE,),),
    "Implies": (TRUE, FALSE), "Iff": (FALSE, TRUE), "TrueF": (), "FalseF": (),
    "Diff": (LevelVar("a"), Z, -1), "DepGraph": (("a", "b"), ((1,), ())),
    "SccPartition": ((frozenset("a"),),), "PositiveRule": ("a", (("b", 2),), 1, None),
    "DLModel": ((("a", True),), (("__z", 0),)), "Verdict": (True, 2, 1, 3, 4, None),
    "CheckReport": (({"check": "uniqueness", "status": "pass"},), 1, 1),
    "Format": ("; ", "\n(assert ", ")\n", smtlib_header, ("(check-sat)\n",)),
}


def field_sample(cls):
    if cls.__name__ not in FIELD_SAMPLES:
        pytest.fail(f"no sample field values for {cls.__qualname__}: add them to FIELD_SAMPLES")
    values = FIELD_SAMPLES[cls.__name__]
    assert len(values) == len(cls._fields)
    return values


def test_only_the_checked_constructors_are_hand_written():
    hand_written = {cls.__name__ for cls in node_classes() if not generated(cls)}
    assert hand_written == {"PBTerm", "PB", "WeightedLiteral", "Rule", "Program", "FormulaSet"}
    assert {cls.__name__ for cls in GENERATED} == FIELD_SAMPLES.keys()


# every count short of the fields, and one too many
@pytest.mark.parametrize("cls, count", [
    (cls, count) for cls in GENERATED for count in range(len(cls._fields) + 2)
    if count != len(cls._fields)
], ids=lambda x: x.__name__ if isinstance(x, type) else str(x))
def test_wrong_field_count_rejected(cls, count):
    values = field_sample(cls)
    values = values[:count] if count < len(values) else values + ("extra",)
    with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\(\) "):
        cls(*values)


@pytest.mark.parametrize("cls", GENERATED, ids=lambda cls: cls.__name__)
def test_generated_constructor_round_trips(cls):
    node = cls(*field_sample(cls))
    keyed = len(node) > len(cls._fields)
    assert type(node) is cls and tuple(node[:len(cls._fields)]) == field_sample(cls)
    rebuilt = cls(*node[:len(cls._fields)])
    for twin in (rebuilt, copy.copy(node), copy.deepcopy(node),
                 pickle.loads(pickle.dumps(node))):
        assert type(twin) is cls and twin == node and not twin != node
        if keyed:
            assert twin.name == node.name


@pytest.mark.parametrize("cls", GENERATED, ids=lambda cls: cls.__name__)
def test_node_equals_no_tuple_and_no_other_class(cls):
    class Twin(Node, fields=" ".join(cls._fields)):
        __slots__ = ()

    node = cls(*field_sample(cls))
    for other in (tuple(node), tuple.__new__(Twin, node)):
        assert node != other and other != node
        assert not node == other and not other == node


def test_copied_z_still_names_z():
    for twin in (copy.copy(Z), copy.deepcopy(Z), pickle.loads(pickle.dumps(Z)), ZVar()):
        assert twin == Z and var_name(twin) == "__z"
        assert var_name(Diff(twin, LevelVar("a"), 0).lhs) == "__z"
