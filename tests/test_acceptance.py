"""Acceptance criteria.

Each test realizes one numbered criterion at its stated tolerance and
prints one PASS line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import pathlib
import random
import sys
import time

import pytest

from asptoc.cli import main
from asptoc.dlcheck import enumerate_dl_models
from asptoc.formulas import Base, Diff, LevelVar, Not, Var, Z
from asptoc.fuzz import check_program, fuzz_corpus, generate_weight_rule, ranked_scopes
from asptoc.normtest import check_proposition, normalize_subsets
from asptoc.oracle import stable_models
from asptoc.parser import parse_program
from asptoc.toc import toc_module, toc_program
from references import level_numbering

STUB = f"{sys.executable} {pathlib.Path(__file__).parent / 'stub_solver.py'}"

EXAMPLE6 = ("b5. b4 :- b5. b3 :- b4. b2 :- b3. b1 :- b2.\n"
            "a :- 7 <= { b1=7, b2=5, b3=3, b4=2, b5=1 }.")


def example1(n):
    body = ", ".join(f"b{i}" for i in range(1, n + 1))
    return " ".join(f"{{b{i}}}." for i in range(1, n + 1)) + \
        f" a :- 1 <= {{ {body} }}."


def test_criterion_1_self_loop_worked_example():
    start = time.time()
    fs = toc_program(parse_program("a :- a."))
    models = enumerate_dl_models(fs)
    assert len(models) == 1
    (model,) = models
    assert model.prop_map["a"] is False
    assert model.int_map["__x_a"] == 2
    assert not any(m.prop_map["a"] for m in models)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (self-loop worked example): PASS ({elapsed:.3f}s)")


def test_criterion_2_choice_cardinality_counts():
    start = time.time()
    for n in (1, 2, 3, 4):
        program = parse_program(example1(n))
        stable = [m for m, _ in stable_models(program)]
        nonempty = [m for m in stable if m]
        assert len(nonempty) == 2 ** n - 1
        assert frozenset() in stable
        report = check_program(program)
        assert report.ok
        assert report.model_count == len(stable)
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 (choice/cardinality counts, n=1..4): PASS ({elapsed:.3f}s)")


def _example5_formulas(pin_head_rank=None):
    p = parse_program("a :- 2 <= { b1, b2, b3, b4 }.")
    scope = frozenset({"a", "b1", "b2", "b3", "b4"})
    fs = toc_module(p, scope)
    for atom in ("a", "b1", "b3", "b4"):
        fs.add(f"fix:{atom}", Var(Base(atom)))
    fs.add("fix:b2", Not(Var(Base("b2"))))
    for atom, rank in (("b1", 2), ("b3", 1), ("b4", 2)):
        fs.add(f"pin:{atom}:hi", Diff(LevelVar(atom), Z, rank))
        fs.add(f"pin:{atom}:lo", Diff(Z, LevelVar(atom), -rank))
    if pin_head_rank is not None:
        fs.add("pin:a:hi", Diff(LevelVar("a"), Z, pin_head_rank))
        fs.add("pin:a:lo", Diff(Z, LevelVar("a"), -pin_head_rank))
    return fs


def test_criterion_3_bound_two_rank_check():
    models = enumerate_dl_models(_example5_formulas(), max_atoms=30)
    assert sorted({m.int_map["__x_a"] for m in models}) == [3]
    assert enumerate_dl_models(_example5_formulas(pin_head_rank=4),
                               max_atoms=30) == []
    print("\nACCEPTANCE 3 (rank 3 admitted, rank 4 rejected): PASS")


def test_criterion_4_weight_chain_ranks(tmp_path, capsys):
    program = parse_program(EXAMPLE6)
    ((model, _),) = stable_models(program)
    levels = level_numbering(program, model).atoms
    assert levels == {"b5": 1, "b4": 2, "b3": 3, "b2": 4, "b1": 5, "a": 5}

    fs = toc_program(program, scope_mode="global")
    models = enumerate_dl_models(fs, max_atoms=60)
    assert len(models) == 1
    ints = models[0].int_map
    assert ints["__x_a"] == 5
    assert [ints[f"__x_b{i}"] for i in range(5, 0, -1)] == [1, 2, 3, 4, 5]

    path = tmp_path / "chain.lp"
    path.write_text(EXAMPLE6)
    assert main(["solve", str(path), "--solver", STUB, "--global-scope"]) == 0
    answer = json.loads(capsys.readouterr().out)
    assert answer["ranks"]["a"] == 5
    print("\nACCEPTANCE 4 (weight chain, rank 5 for the head): PASS")


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_criterion_5_differential_gate(seed):
    start = time.time()
    recursive = 0
    for index, source, program in fuzz_corpus(seed, 200, max_atoms=7,
                                              max_rules=10):
        if ranked_scopes(program):
            recursive += 1
        report = check_program(program)
        assert report.ok, (
            f"seed {seed} program {index} failed\n{source}\n{report.checks}")
    assert recursive >= 100
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 5 (seed {seed}, 200 programs, {recursive} recursive): "
          f"PASS ({elapsed:.1f}s)")


def test_criterion_6_proposition_gate():
    start = time.time()
    for n in range(1, 6):
        atoms = ", ".join(f"b{i}" for i in range(1, n + 1))
        for lower in range(1, n + 1):
            rule = parse_program(f"a :- {lower} <= {{ {atoms} }}.").rules[0]
            verdict = check_proposition(rule, 2)
            assert verdict.passed, (n, lower, verdict.counterexample)
            assert verdict.subset_rules == math.comb(n, lower)
            if lower == 1:
                assert check_proposition(rule, 1).passed

    rng = random.Random(60)
    for i in range(50):
        rule = generate_weight_rule(rng)
        verdict = check_proposition(rule, 3)
        assert verdict.passed, (i, rule, verdict.counterexample)
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 6 (propositions, 15 cardinality + 50 weight): "
          f"PASS ({elapsed:.1f}s)")


def _model_projection(fs, base_atoms):
    cap = len(fs.base_atoms) + len(fs.aux_atoms)
    out = []
    for m in enumerate_dl_models(fs, max_atoms=cap):
        props = tuple(sorted((k, v) for k, v in m.props if k in base_atoms))
        out.append((props, m.ints))
    return sorted(out)


def test_criterion_7_upper_bound_encodings_agree():
    start = time.time()
    cases = 0
    for n in range(1, 5):
        for lower in range(1, n + 1):
            for upper in range(lower, n + 1):
                flat_atoms = ", ".join(f"b{i}" for i in range(1, n + 1))
                flat = parse_program(
                    f"a :- {lower} <= {{ {flat_atoms} }} <= {upper}.")
                rec_atoms = ", ".join([f"b{i}" for i in range(1, n)] + ["c"])
                recursive = parse_program(
                    f"c :- a. a :- {lower} <= {{ {rec_atoms} }} <= {upper}.")
                for program in (flat, recursive):
                    base = set(program.atom_names)
                    combined = toc_program(program)
                    vub = toc_program(program, vub_form=True)
                    assert _model_projection(combined, base) == \
                        _model_projection(vub, base)
                cases += 1
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 7 (combined vs violation-atom encoding, {cases} "
          f"bound shapes x 2 contexts): PASS ({elapsed:.1f}s)")


def test_criterion_8_aggregation_stays_linear():
    counts = {}
    for n in (5, 10, 20, 40):
        body = ", ".join(f"b{i}=1" for i in range(1, n + 1))
        program = parse_program(f"a :- {n // 2} <= {{ {body} }}.")
        scope = frozenset({"a", *(f"b{i}" for i in range(1, n + 1))})
        counts[n] = len(toc_module(program, scope).formulas)
    for small, large in ((5, 10), (10, 20), (20, 40)):
        assert counts[large] / counts[small] <= 2.0

    # the subset normalization grows as the central binomial instead
    subsets = {n: math.comb(n, n // 2) for n in (5, 10, 20, 40)}
    for small, large in ((5, 10), (10, 20), (20, 40)):
        assert subsets[large] / subsets[small] > 2 ** (large // 4)
    body6 = ", ".join(f"b{i}" for i in range(1, 7))
    rule6 = parse_program(f"a :- 3 <= {{ {body6} }}.").rules[0]
    assert len(normalize_subsets(rule6).rules) == math.comb(6, 3)
    print(f"\nACCEPTANCE 8 (linear aggregated size {counts} vs binomial "
          f"{subsets}): PASS")
