"""Cross-cutting semantic properties over generated rules and programs."""

import collections
import itertools
import pathlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from asptoc.depgraph import build_depgraph, sccs, scopes
from asptoc.formulas import PB, Aux, Base, Diff, FalseF, Iff, LevelVar, Not, TrueF, Var
from asptoc.fuzz import CHECK_MODES, check_program, fuzz_corpus, ranked_scopes
from asptoc.oracle import least_model, reduct, stable_models
from asptoc.parser import parse_program
from asptoc.program import Polarity
from asptoc.smtlib import emit_smtlib
from asptoc.toc import toc_module, toc_program
from references import aggregate_reduct, def_of


def interps(atoms):
    atoms = sorted(atoms)
    for k in range(len(atoms) + 1):
        for combo in itertools.combinations(atoms, k):
            yield frozenset(combo)


convex_rules = st.builds(
    lambda weights, lower, upper_slack: "a :- %d <= { %s } <= %d." % (
        lower,
        ", ".join(f"b{i}={w}" for i, w in enumerate(weights, 1)),
        lower + upper_slack),
    st.lists(st.integers(1, 5), min_size=1, max_size=5),
    st.integers(0, 12),
    st.integers(0, 8),
)


@settings(max_examples=120, deadline=None)
@given(convex_rules)
def test_parsed_convex_rules_are_convex(src):
    rule = parse_program(src).rules[0]
    atoms = rule.pos_atoms()
    sat = {i: rule.body_satisfied(i) for i in interps(atoms)}
    for i1 in interps(atoms):
        for i3 in interps(atoms):
            if i1 <= i3 and sat[i1] and sat[i3]:
                between = [i2 for i2 in interps(atoms) if i1 <= i2 <= i3]
                assert all(sat[i2] for i2 in between)


@settings(max_examples=120, deadline=None)
@given(convex_rules, st.integers(0, 2 ** 20 - 1))
def test_closure_bodies_are_monotone(src, seed):
    rule = parse_program(src).rules[0]
    atoms = rule.pos_atoms()
    rng = random.Random(seed)
    model = frozenset(a for a in atoms if rng.random() < 0.5)
    if not rule.body_satisfied(model):
        return
    closure = aggregate_reduct(rule, model)
    for small in interps(atoms):
        if closure.body_satisfied(small):
            for extra in atoms:
                assert closure.body_satisfied(small | {extra})


def strip_negation(program):
    """Positive fragment of a generated program, for least-model checks."""
    rules = []
    for rule in program.rules:
        if rule.head is None or rule.upper is not None:
            continue
        if rule.literals(Polarity.NEGATIVE, Polarity.DOUBLE_NEGATED):
            continue
        rules.append(rule)
    from asptoc.program import program_of
    return program_of(rules, extra_atoms=program.atom_names)


def test_positive_programs_have_unique_minimal_model():
    for _, _, program in fuzz_corpus(seed=4, count=30, max_atoms=6):
        positive = strip_negation(program)
        defined = positive.heads()
        lm, _ = least_model(reduct(positive, frozenset()), frozenset())
        # classical minimal models over the defined atoms, inputs all false
        models = [m for m in interps(defined)
                  if all(r.satisfied(m) for r in positive.rules)]
        minimal = [m for m in models if not any(o < m for o in models)]
        assert minimal == [lm]


def test_stable_models_within_supported_models():
    from references import supported_models
    for _, _, program in fuzz_corpus(seed=6, count=25):
        stable = {m for m, _ in stable_models(program)}
        assert stable <= set(supported_models(program))


def test_translation_size_linear_in_module_size():
    # formula count <= c1*rules + c2*intra-scope edges + c3*scope size
    c1, c2, c3, c0 = 7, 2, 3, 2
    for _, _, program in fuzz_corpus(seed=8, count=40):
        graph = build_depgraph(program)
        for scope in ranked_scopes(program):
            fs = toc_module(program, scope)
            rules = [r for r in program.rules if r.head in scope]
            edges = [(a, b) for (a, b) in graph.edges
                     if a in scope and b in scope]
            bound = c1 * len(rules) + c2 * len(edges) + c3 * len(scope) + c0
            assert len(fs.formulas) <= bound


def test_scope_topological_order_in_output():
    for _, _, program in fuzz_corpus(seed=9, count=20):
        fs = toc_program(program)
        components = sccs(build_depgraph(program)).components
        index = {a: i for i, comp in enumerate(components) for a in comp}
        seen = []
        for name, _ in fs.formulas:
            if name.startswith("def:"):
                seen.append(index[name.split(":")[1]])
        assert seen == sorted(seen)


@pytest.mark.parametrize("scope_mode", ["scc", "global"])
@pytest.mark.parametrize("vub_form", [False, True])
@pytest.mark.parametrize("strong", [True, False])
def test_no_pass_through_or_dead_auxiliaries(scope_mode, vub_form, strong):
    # a non-recursive head gets Clark's completion over its plain bodies:
    # its only auxiliary atom is the vub atom of an upper-bounded rule under
    # --vub-form, which spells that bound where the body can exceed it in
    # more than one way (a one-literal violation is that literal); gap atoms
    # exist only for the strong constraints that read them, and no formula
    # restates a bound
    for _, source, program in fuzz_corpus(1, 200):
        fs = toc_program(program, scope_mode=scope_mode, strong=strong,
                         vub_form=vub_form)
        flat = {a for scope, ranked in scopes(program, scope_mode)
                if not ranked for a in scope}
        guarded = {Aux("vub", a, i) for a in flat
                   for i, rule in enumerate(def_of(a, program), 1)
                   if vub_form and rule.upper is not None and len(rule.body) > 1
                   and rule.upper < sum(wl.weight for wl in rule.body)}
        assert {r for r in fs.aux_atoms if r.head in flat} == guarded, source
        assert not any(n.startswith("ubcheck:") for n, _ in fs.formulas), source
        if not strong:
            assert not any(r.kind == "gap" for r in fs.aux_atoms), source


@pytest.mark.parametrize("scope_mode", ["scc", "global"])
@pytest.mark.parametrize("vub_form", [False, True])
@pytest.mark.parametrize("strong", [True, False])
def test_every_auxiliary_atom_is_a_real_name(scope_mode, vub_form, strong):
    # an app, int, ext or vub atom whose condition folds to a literal or a
    # constant is that condition: no such definition is written, every
    # declared auxiliary atom has exactly one definition, and nothing
    # written is a tautology
    literal = (Var, TrueF, FalseF)
    for _, source, program in fuzz_corpus(1, 300):
        fs = toc_program(program, scope_mode=scope_mode, strong=strong,
                         vub_form=vub_form)
        defined = collections.Counter()
        for name, f in fs.formulas:
            # no tautology: a true formula or a definition of a head by itself
            assert type(f) is not TrueF and not (type(f) is Iff and f.left == f.right), \
                (source, name)
            if type(f) is Iff and type(f.left) is Var and type(f.left.atom) is Aux:
                defined[f.left.atom] += 1
                if f.left.atom.kind in ("app", "int", "ext", "vub"):
                    right = f.right.sub if type(f.right) is Not else f.right
                    assert type(right) not in literal, (source, name)
        assert defined == dict.fromkeys(fs.aux_atoms, 1), source


def leaves(formula):
    """The ``Base``, ``Aux`` and ``LevelVar`` leaves of a formula."""
    if type(formula) is Var:
        yield formula.atom
    elif type(formula) is PB:
        yield from (t.atom for t in formula.terms)
    elif type(formula) is Diff:
        yield from (v for v in (formula.lhs, formula.rhs) if type(v) is LevelVar)
    else:
        for sub in getattr(formula, "subs", ()):
            yield from leaves(sub)
        for part in ("sub", "left", "right"):
            if hasattr(formula, part):
                yield from leaves(getattr(formula, part))


@pytest.mark.parametrize("scope_mode", ["scc", "global"])
@pytest.mark.parametrize("vub_form", [False, True])
def test_ranked_leaves_are_shared(scope_mode, vub_form):
    # toc_module builds each leaf once: equal leaves are one object, and
    # every auxiliary atom a formula reads is the declared key itself
    mix = pathlib.Path(__file__).parent / "golden" / "ranked_mix.lp"
    corpus = [parse_program(mix.read_text())]
    corpus += [program for _, _, program in fuzz_corpus(1, 200)]
    for program in corpus:
        for scope in ranked_scopes(program, scope_mode):
            fs = toc_module(program, scope, vub_form=vub_form)
            declared = {ref: ref for ref in fs.aux_atoms}
            first = {}
            for name, formula in fs.formulas:
                for leaf in leaves(formula):
                    assert first.setdefault(leaf, leaf) is leaf, (name, leaf)
                    if type(leaf) is Aux:
                        assert declared[leaf] is leaf, (name, leaf)
            assert {type(leaf) for leaf in first} <= {Base, Aux, LevelVar}


@pytest.mark.parametrize("scope_mode", ["scc", "global"])
@pytest.mark.parametrize("vub_form", [False, True])
def test_program_leaves_are_shared(scope_mode, vub_form):
    # toc_program builds one Base per atom, read by the flat completions, the
    # constraints and every ranked module alike
    mix = pathlib.Path(__file__).parent / "golden" / "ranked_mix.lp"
    corpus = [parse_program(mix.read_text())]
    corpus += [program for _, _, program in fuzz_corpus(1, 200)]
    for program in corpus:
        fs = toc_program(program, scope_mode=scope_mode, vub_form=vub_form)
        first = {}
        for name, formula in fs.formulas:
            for leaf in leaves(formula):
                assert first.setdefault(leaf, leaf) is leaf, (name, leaf)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_translation_models_recheck_cleanly(seed):
    from asptoc.dlcheck import enumerate_dl_models
    from references import recheck

    rng = random.Random(seed)
    from asptoc.fuzz import generate_source
    program = parse_program(generate_source(rng, max_atoms=5, max_rules=6,
                                            want_recursive=seed % 2 == 0))
    fs = toc_program(program)
    cap = len(fs.base_atoms) + len(fs.aux_atoms)
    for model in enumerate_dl_models(fs, max_atoms=cap):
        assert recheck(fs, model)


# every fuzz atom renamed onto a name that SMT-LIB naming must survive:
# inner "__" (dep(a__b, c) against dep(a, b__c)), a trailing "_", and
# reserved words or Core/Ints symbols
HARD_NAMES = dict(zip("abcdefghijklmn", [
    "a__b", "b__c", "c", "a", "true", "let", "div",
    "c_", "false", "ite", "x__z", "and", "assert", "mod"]))
SMT_WORDS = {"true", "let", "div", "false", "ite", "and", "assert", "mod"}


@pytest.mark.parametrize("scope_mode", ["scc", "global"])
def test_hard_atom_names_keep_the_bijection(scope_mode):
    for _, source, _ in fuzz_corpus(1, 60):
        renamed = re.sub(r"\b[a-n]\b", lambda m: HARD_NAMES[m.group()], source)
        program = parse_program(renamed)
        report = check_program(program, scope_mode=scope_mode)
        assert report.ok, (renamed, report.checks)
        text = emit_smtlib(toc_program(program, scope_mode=scope_mode))
        declared = [l.split()[1] for l in text.splitlines()
                    if l.startswith("(declare-const")]
        assert len(set(declared)) == len(declared)
        assert not SMT_WORDS & set(declared), renamed


@pytest.mark.parametrize("scope_mode, vub_form", CHECK_MODES)
def test_weak_check_compares_projection_sets(scope_mode, vub_form):
    # without the strong constraints a stable model may carry several rank
    # assignments, so the check compares the sets of projections and
    # reports uniqueness and ranks as skipped; some programs do repeat a
    # projection, which the strong check would refuse
    repeated = 0
    for _, source, program in fuzz_corpus(1, 24):
        report = check_program(program, scope_mode=scope_mode, vub_form=vub_form,
                               strong=False)
        assert report.ok, (source, report.checks)
        assert [(e["check"], e["status"]) for e in report.checks] == [
            ("projections", "pass"), ("uniqueness", "skip"), ("ranks", "skip")]
        repeated += report.model_count > report.stable_count
    assert repeated
