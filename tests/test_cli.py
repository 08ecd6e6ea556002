"""Command-line behaviour: exit codes, reports, solver pipeline."""

import errno
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from asptoc.cli import main
from asptoc.formulas import Aux, Diff, LevelVar, Var, Z
from asptoc.fuzz import ATOM_POOL
from references import debug_text, drop_formulas

GOLDEN = pathlib.Path(__file__).parent / "golden"
STUB = f"{sys.executable} {pathlib.Path(__file__).parent / 'stub_solver.py'}"


COLLISION = "a__b :- c. c :- a__b. a :- b__c. b__c :- a. {c}. {a}."
RESERVED = "true :- not false. false :- not true. let :- true."


def oracle_models(src):
    from asptoc.oracle import stable_models
    from asptoc.parser import parse_program
    return sorted(sorted(m) for m, _ in stable_models(parse_program(src)))


def write(tmp_path, text, name="prog.lp"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def ranked_source(n):
    """One cyclic component over ``a0..a<n-1>`` with normal and weight
    chords, some choices and negation."""
    rules = [f"{{a{i}}}." for i in range(0, n, 7)]
    for i in range(n):
        j, k = (i + 1) % n, (i * 5 + 3) % n
        rules.append(f"a{i} :- a{j}, not b{i}.")
        rules.append(f"a{i} :- 3 <= {{ a{j}=2, a{k}=1, b{i}=2 }}.")
        rules.append(f"b{i} :- not a{i}.")
    return "\n".join(rules)


def tight_source(n):
    """``n`` statements over ``b0..b<n-1>`` whose positive graph is
    acyclic: every tenth atom a choice, every other one derived from two
    atoms of a lower index by a weight rule with negation, and a
    constraint after every fiftieth atom."""
    rules = []
    for i in range(n):
        j, k = i // 2, (i * 7 + 3) % max(i, 1)
        rules.append(f"{{b{i}}}." if i % 10 == 0 else
                     f"b{i} :- 2 <= {{ b{j}=1, b{k}=2, not c{i} }}.")
        if i % 50 == 49:
            rules.append(f":- b{i}, b{j}, not b{k}.")
    return "\n".join(rules)


# the eight scope/vub/strong modes
MODES = [["--global-scope"] * g + ["--vub-form"] * v + ["--no-strong"] * w
         for g, v, w in itertools.product((0, 1), repeat=3)]


def mode_id(flags):
    return " ".join(flags) or "default"


def mode_options(flags):
    """``toc_program``'s keywords for the command-line ``flags``."""
    return {"scope_mode": "global" if "--global-scope" in flags else "scc",
            "vub_form": "--vub-form" in flags, "strong": "--no-strong" not in flags}


def traced_peak(call):
    """The traced peak of ``call()``.  A full collection first empties the
    interpreter's free lists, whose reused objects tracemalloc would not
    see, so that every peak counts every allocation."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTranslate:
    def test_smtlib_output(self, tmp_path, capsys):
        path = write(tmp_path, "a :- a.")
        assert main(["translate", path]) == 0
        out = capsys.readouterr().out
        assert "__x_a" in out and "(check-sat)" in out

    def test_debug_format(self, tmp_path, capsys):
        path = write(tmp_path, "a :- a.")
        assert main(["translate", path, "--format", "debug"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("(base a)")
        assert "(formula strong:a:1" in out

    def test_no_strong_drops_constraints(self, tmp_path, capsys):
        path = write(tmp_path, "a :- a.")
        assert main(["translate", path, "--format", "debug", "--no-strong"]) == 0
        out = capsys.readouterr().out
        assert "strong:" not in out
        assert "gap:" not in out

    def test_out_file(self, tmp_path):
        path = write(tmp_path, "a :- a.")
        out = tmp_path / "out.smt2"
        assert main(["translate", path, "--out", str(out)]) == 0
        assert "__x_a" in out.read_text()

    @pytest.mark.parametrize("flags", MODES)
    def test_outputs_are_the_emitters_text(self, tmp_path, capsys, flags):
        # the command writes each formula's text as the translator adds
        # it; the list path renders the finished set.  Both give the same
        # bytes, in either format and to either sink
        from asptoc.fuzz import fuzz_corpus
        from asptoc.parser import parse_program
        from asptoc.smtlib import emit_smtlib
        from asptoc.toc import toc_program

        sources = [("ranked_mix", (GOLDEN / "ranked_mix.lp").read_text()),
                   ("ranked", ranked_source(650)),  # 2,043 rules
                   # hard names in ranked scopes: inner ``__``, and reserved
                   # words ranked globally or in a positive cycle
                   ("ranked_collision", COLLISION), ("reserved", RESERVED),
                   ("ranked_reserved_cycle", "assert :- and. and :- assert. {and}.")]
        sources += [(f"fuzz{i}", src) for i, src, _ in fuzz_corpus(1, 100)]
        out = tmp_path / "out.smt2"
        for name, src in sources:
            fs = toc_program(parse_program(src), **mode_options(flags))
            assert fs.level_bounds or not name.startswith("ranked")
            path = write(tmp_path, src)
            assert main(["translate", path, "--out", str(out), *flags]) == 0
            expected = emit_smtlib(fs, model=True)
            assert out.read_bytes() == expected.encode("utf-8"), name
            assert main(["translate", path, *flags]) == 0
            assert capsys.readouterr().out == expected, name
            assert main(["translate", path, "--format", "debug", *flags]) == 0
            assert capsys.readouterr().out == debug_text(fs), name

    @pytest.mark.parametrize("fmt", ["smtlib", "debug"])
    @pytest.mark.parametrize("fault, message", [
        (Var(Aux("app", "a", 9)), "undeclared atoms: ['|app:a:9|']"),
        (Diff(LevelVar("ghost"), Z, 0), "undeclared variables: ['__x_ghost']"),
        ("declare_level", "undeclared variables: ['__x_a', '__z']"),
        ("declare_aux", "undeclared atoms: ['|dep:a:b|', '|gap:a:b|']"),
    ], ids=["aux-atom", "ranking-variable", "range-template", "edge-template"])
    def test_undeclared_symbol_fails_as_it_is_written(self, tmp_path, capsys, monkeypatch,
                                                      fmt, fault, message):
        # a writer that adds a formula over a symbol nobody declared, or a
        # scaffolding template that reads a symbol whose declaration
        # (FormulaSet.<fault>) does nothing, fails in that add, in
        # validate's wording; nothing is written, so an existing output
        # file keeps its bytes
        import asptoc.toc as toc_mod
        from asptoc.formulas import FormulaSet

        real, after_add = toc_mod._define, []

        def faulty(fs, holds, supports):
            real(fs, holds, supports)
            fs.add("faulty", fault)
            after_add.append(holds)

        if isinstance(fault, str):
            monkeypatch.setattr(FormulaSet, fault, lambda self, *args: None)
        else:
            monkeypatch.setattr(toc_mod, "_define", faulty)
        path, out = write(tmp_path, "a :- b. b :- a. {a}."), tmp_path / "out.txt"
        out.write_bytes(b"earlier output\r\n")
        assert main(["translate", path, "--format", fmt, "--out", str(out)]) == 2
        assert main(["translate", path, "--format", fmt]) == 2
        assert after_add == []
        assert out.read_bytes() == b"earlier output\r\n"
        assert capsys.readouterr() == ("", f"unsupported: {message}\n" * 2)

    def test_peak_memory_is_one_copy_of_the_output(self, tmp_path):
        # two bounds on traced peaks, each against the stage before it.
        # (a) The writer holds the text once, as its chunks: replaying the
        # finished set through it peaks within the completion's own peak
        # plus one output.  The parsed program and the completion's
        # temporaries, freed before the write, cover the declarations'
        # lines; a second, joined copy of the text adds a whole output.
        # (b) The command keeps the text of each formula and no formula, so
        # it peaks below the completion's formula list alone.
        from asptoc.parser import parse_program
        from asptoc.smtlib import SMTLIB, Written
        from asptoc.toc import toc_program

        src = ranked_source(100)
        path, out = write(tmp_path, src), tmp_path / "out.smt2"
        argv = ["translate", path, "--out", str(out)]
        assert main(argv) == 0  # argparse and lazy imports outside the trace

        def pipeline():
            fs = toc_program(parse_program(src))
            written = Written(SMTLIB, fs.symbols)
            written.extend(fs.formulas)
            return list(written.text(fs))

        toc_peak = traced_peak(lambda: toc_program(parse_program(src)))
        pipeline_peak = traced_peak(pipeline)
        assert pipeline_peak <= toc_peak + out.stat().st_size
        assert traced_peak(lambda: main(argv)) <= toc_peak

    def test_peak_memory_is_a_small_multiple_of_the_output(self, tmp_path):
        # the command holds the program, the shared leaves, the symbol
        # tables and one copy of the text, kept in joined chunks.  On this
        # input its traced peak read 4.5-4.7 times the output (Python
        # 3.10-3.13); a set that keeps its (name, formula) pairs alive read
        # 8.0, and building the whole formula list before emission 7.3
        src = ranked_source(1000)  # 3,143 rules
        path, out = write(tmp_path, src), tmp_path / "out.smt2"
        argv = ["translate", path, "--out", str(out)]
        assert main(argv) == 0
        assert traced_peak(lambda: main(argv)) <= 5.5 * out.stat().st_size

    def test_translate_leaves_no_cyclic_garbage(self, tmp_path, capsys):
        # translate runs with the collector off, which is safe only while
        # translation makes no reference cycles: under DEBUG_SAVEALL every
        # object a collection finds unreachable stays in gc.garbage, so an
        # empty list after each input's runs means no run made a cycle.
        # The argument parser's first build makes some; it is built once
        # per process, before any command runs.
        import gc

        from asptoc.cli import build_parser
        from asptoc.fuzz import fuzz_corpus
        from test_scaling import chain_source

        build_parser()
        sources = {"ranked_mix": (GOLDEN / "ranked_mix.lp").read_text()}
        sources.update((f"fuzz{i}", src) for i, src, _ in fuzz_corpus(1, 8))
        sources.update((f"chain{n}", chain_source(n)) for n in (2000, 8000))
        flag_sets = [[], ["--global-scope"], ["--vub-form"], ["--no-strong"],
                     ["--format", "debug"], ["--global-scope", "--vub-form", "--no-strong"]]
        failures = {"parse": ("a :-", 1), "disjunctive": ("a | b :- c.", 2),
                    "choice-aggregate": ("{a} :- 1 <= { b }.", 2),
                    "negative-bound": ("a :- -1 <= { b }.", 1)}
        out = str(tmp_path / "out.smt2")
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for name, src in sources.items():
                path = write(tmp_path, src)
                gc.collect()
                gc.garbage.clear()
                for flags in flag_sets:
                    assert main(["translate", path, "--out", out, *flags]) == 0
                    assert main(["translate", path, *flags]) == 0
                    capsys.readouterr()
                gc.collect()
                assert gc.garbage == [], name
            for name, (src, code) in failures.items():
                path = write(tmp_path, src)
                gc.collect()
                gc.garbage.clear()
                assert main(["translate", path, "--out", out]) == code, name
                assert main(["translate", path]) == code, name
                capsys.readouterr()
                gc.collect()
                assert gc.garbage == [], name
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_translate_runs_with_the_collector_off(self, tmp_path, monkeypatch, enabled):
        # the collector is off while the translation is built, and main
        # leaves it as it found it, after a success and after an error
        import gc

        import asptoc.cli as cli_mod

        seen = []
        real = cli_mod.toc_program

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "toc_program", recording)
        good, bad = write(tmp_path, "a :- a."), write(tmp_path, "a :-", "bad.lp")
        was = gc.isenabled()
        after = []
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["translate", good, "--out", str(tmp_path / "out.smt2")]) == 0
            after.append(gc.isenabled())
            assert main(["translate", bad]) == 1
            after.append(gc.isenabled())
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]
        assert after == [enabled, enabled]

    @pytest.mark.parametrize("golden, flags", [
        pytest.param("ranked_mix.smt2", ["--global-scope", "--vub-form"], id="global-vub"),
        pytest.param("ranked_mix_scc.smt2", [], id="scc"),
    ])
    def test_ranked_mix_golden(self, tmp_path, golden, flags):
        # two cycles with weight and convex chords, choice, negation and
        # #hide; any change of output, down to declaration order, fails here,
        # so regenerate the expected files only for an intended change
        out = tmp_path / "out.smt2"
        assert main(["translate", str(GOLDEN / "ranked_mix.lp"), *flags,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "a :-")
        assert main(["translate", path]) == 1

    def test_overlong_integer_is_a_parse_error(self, tmp_path, capsys, int_digit_limit):
        # more digits than int() converts is a parse error
        path = write(tmp_path, f"a :- {'5' * 5000} <= {{ b }}.")
        assert main(["translate", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == "parse error: 1:6: integer too long (5000 digits)\n"
        assert captured.out == ""

    @pytest.mark.parametrize("missing", ["input", "output"])
    def test_io_error_exit_code(self, tmp_path, capsys, missing):
        # an unreadable input or an unwritable output exits 1 with the
        # OS message and writes nothing to stdout
        path, gone = write(tmp_path, "a :- a."), tmp_path / "missing" / "x"
        argv = ["translate", str(gone)] if missing == "input" else \
            ["translate", path, "--out", str(gone)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        expected = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(gone))
        assert captured.err == f"{expected}\n"
        assert captured.out == ""

    def test_unsupported_feature_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "a | b :- c.")
        assert main(["translate", path]) == 2

    @pytest.mark.parametrize("fmt", ["smtlib", "debug"])
    def test_no_validation_walk_on_success(self, tmp_path, capsys, monkeypatch, fmt):
        from asptoc.formulas import FormulaSet

        def walked(self):
            raise AssertionError("validate() ran on a valid set")

        monkeypatch.setattr(FormulaSet, "validate", walked)
        out = tmp_path / "out.smt2"
        assert main(["translate", str(GOLDEN / "ranked_mix.lp"), "--global-scope",
                     "--vub-form", "--format", fmt, "--out", str(out)]) == 0
        if fmt == "smtlib":
            assert out.read_bytes() == (GOLDEN / "ranked_mix.smt2").read_bytes()

    @pytest.mark.parametrize("command", ["translate", "check"])
    def test_inner_double_underscore_names(self, tmp_path, capsys, command):
        # dep(a__b, c) and dep(a, b__c) once shared the symbol __dep_a__b__c
        path = write(tmp_path, COLLISION)
        assert main([command, path]) == 0
        out = capsys.readouterr().out
        if command == "translate":
            assert "(declare-const |dep:a__b:c| Bool)" in out
            assert "(declare-const |dep:a:b__c| Bool)" in out
        else:
            assert json.loads(out.splitlines()[-1])["stable_models"] == 4


def shuffle_heads(src, rng):
    """The statements of ``src``, one a line, with those of different heads
    interleaved at random; each head's statements, and the constraints,
    keep their own order."""
    groups = {}
    for line in src.splitlines():
        groups.setdefault(line.split(":-")[0].strip(" {}."), []).append(line)
    queues = [lines[::-1] for lines in groups.values()]
    shuffled = []
    while queues:
        i = rng.randrange(len(queues))
        shuffled.append(queues[i].pop())
        if not queues[i]:
            queues[i] = queues[-1]
            queues.pop()
    return "\n".join(shuffled)


class TestDeterminism:
    # metamorphic relations: translate bytes depend on neither hash order
    # nor the order of the statements of different heads.  They need no
    # oracle, so they run at a size the oracle cannot reach.
    SOURCES = {"ranked": ranked_source(1290), "tight": tight_source(4000)}  # 4,055 and 4,080 rules
    FLAG_SETS = [[], ["--global-scope", "--vub-form"]]

    @pytest.mark.parametrize("flags", FLAG_SETS, ids=mode_id)
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_equal_bytes_under_two_hash_seeds(self, tmp_path, name, flags):
        import asptoc

        path = write(tmp_path, self.SOURCES[name])
        src = str(pathlib.Path(asptoc.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}
            outputs.append(subprocess.run(
                [sys.executable, "-m", "asptoc.cli", "translate", path, *flags],
                env=env, check=True, capture_output=True).stdout)
        assert outputs[0] and outputs[0] == outputs[1]

    @pytest.mark.parametrize("flags", FLAG_SETS, ids=mode_id)
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_equal_bytes_under_shuffled_heads(self, tmp_path, name, flags):
        source = self.SOURCES[name]
        out = tmp_path / "out.smt2"
        assert main(["translate", write(tmp_path, source), "--out", str(out), *flags]) == 0
        expected = out.read_bytes()
        rng = random.Random(name)
        for i in range(2):
            shuffled = shuffle_heads(source, rng)
            assert sorted(shuffled.splitlines()) == sorted(source.splitlines())
            assert shuffled != source
            path = write(tmp_path, shuffled, f"shuffled{i}.lp")
            assert main(["translate", path, "--out", str(out), *flags]) == 0
            assert out.read_bytes() == expected


class TestCheck:
    def test_example1_passes(self, tmp_path, capsys):
        path = write(tmp_path, "{b1}. {b2}. {b3}. a :- 1 <= { b1, b2, b3 }.")
        assert main(["check", path]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        summary = lines[-1]
        assert summary["status"] == "pass"
        assert summary["stable_models"] == 8
        assert summary["translation_models"] == 8

    def test_no_models_still_passes(self, tmp_path, capsys):
        path = write(tmp_path, "a :- not a.")
        assert main(["check", path]) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["stable_models"] == 0

    def test_size_cap(self, tmp_path, capsys):
        path = write(tmp_path, " ".join(f"{{a{i}}}." for i in range(6)))
        assert main(["check", path, "--max-atoms", "5"]) == 2

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_atom_cap_rejected(self, tmp_path, capsys, value):
        path = write(tmp_path, "a.")
        with pytest.raises(SystemExit) as exc:
            main(["check", path, "--max-atoms", value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument --max-atoms: {value} is not at least 1" in err

    def test_atom_cap_of_one_accepted(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, "a."), "--max-atoms", "1"]) == 0
        assert main(["check", write(tmp_path, "a :- b.", "two.lp"), "--max-atoms", "1"]) == 2

    def test_corrupted_translation_is_caught(self, tmp_path, capsys, monkeypatch):
        import asptoc.fuzz as fuzz_mod
        from asptoc.toc import toc_program as real

        def corrupted(program, **kwargs):
            return drop_formulas(real(program, **kwargs), "def:")

        monkeypatch.setattr(fuzz_mod, "toc_program", corrupted)
        path = write(tmp_path, "a :- a.")
        assert main(["check", path]) == 3
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines[-1]["status"] == "fail"

    def test_global_scope_mode(self, tmp_path, capsys):
        path = write(tmp_path, "b. a :- b.")
        assert main(["check", path, "--global-scope"]) == 0

    def test_no_strong_checks_projections_only(self, tmp_path, capsys):
        # b and c rest on a alone, yet without the strong constraints each
        # may also rank one stage late: one stable model, several rankings
        path = write(tmp_path, "a. b :- a. a :- b. c :- a. a :- c.")
        assert main(["check", path, "--no-strong"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [(l["check"], l["status"]) for l in lines] == [
            ("projections", "pass"), ("uniqueness", "skip"), ("ranks", "skip"),
            ("summary", "pass")]
        assert lines[-1]["translation_models"] > lines[-1]["stable_models"] == 1
        assert main(["check", path]) == 0

    def test_no_strong_catches_a_corrupted_translation(self, tmp_path, capsys,
                                                      monkeypatch):
        import asptoc.fuzz as fuzz_mod
        from asptoc.toc import toc_program as real

        def corrupted(program, **kwargs):
            assert kwargs["strong"] is False
            return drop_formulas(real(program, **kwargs), "def:")

        monkeypatch.setattr(fuzz_mod, "toc_program", corrupted)
        path = write(tmp_path, "a :- a.")
        assert main(["check", path, "--no-strong"]) == 3
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines[0]["check"] == "projections" and lines[0]["status"] == "fail"
        assert lines[-1]["status"] == "fail"


class TestFuzz:
    def test_small_run_passes(self, capsys):
        assert main(["fuzz", "--seed", "1", "--count", "8"]) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary == {"status": "pass", "programs": 8, "seed": 1}

    def test_zero_count_trivially_passes(self, capsys):
        assert main(["fuzz", "--seed", "1", "--count", "0"]) == 0

    @pytest.mark.parametrize("flag, value", [
        ("--max-atoms", "1"),
        ("--max-atoms", str(len(ATOM_POOL) + 1)),
        ("--count", "-3"),
        ("--props", "-1"),
        ("--max-rules", "-1"),
    ])
    def test_out_of_range_argument_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument {flag}: {value} is not" in err

    @pytest.mark.parametrize("atoms", [2, len(ATOM_POOL)])
    def test_atom_range_ends_accepted(self, capsys, atoms):
        assert main(["fuzz", "--count", "2", "--max-atoms", str(atoms)]) == 0

    def test_props_flag(self, capsys):
        assert main(["fuzz", "--seed", "3", "--count", "0", "--props", "5"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines[-1] == {"status": "pass", "propositions": 5}

    def test_props_rules_draw_order(self):
        # the draws (body size, weights, bound) are pinned: perfbench's
        # verify-fuzz workload repeats them to replay ``--props`` traffic
        import random

        from asptoc.fuzz import generate_weight_rule
        from asptoc.parser import parse_program

        rng = random.Random(1)
        drawn = [generate_weight_rule(rng) for _ in range(8)]
        assert drawn == [parse_program(src).rules[0] for src in [
            "a :- 4 <= { b1=2, b2=5 }.",
            "a :- 4 <= { b1=8, b2=8, b3=7, b4=4 }.",
            "a :- 15 <= { b1=1, b2=7, b3=7, b4=1 }.",
            "a :- 1 <= { b1=4, b2=2, b3=6 }.",
            "a :- 18 <= { b1=1 }.",
            "a :- 7 <= { b1=7 }.",
            "a :- 18 <= { b1=1, b2=4, b3=8, b4=8 }.",
            "a :- 8 <= { b1=6, b2=4 }.",
        ]]

    def test_failure_writes_reproduction_file(self, capsys, monkeypatch,
                                              tmp_path):
        import asptoc.fuzz as fuzz_mod
        from asptoc.fuzz import CheckReport

        def broken(program, **kwargs):
            entry = {"check": "bijection", "status": "fail", "reason": "injected"}
            return CheckReport((entry,), 0, 0)

        monkeypatch.setattr(fuzz_mod, "check_program", broken)
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--seed", "9", "--count", "3"]) == 3
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        repro = tmp_path / lines[-1]["counterexample"]
        assert repro.exists()
        from asptoc.parser import parse_program
        parse_program(repro.read_text())


    def test_programs_cycle_scope_and_vub_modes(self, capsys, monkeypatch):
        import asptoc.fuzz as fuzz_mod

        seen = []
        real = fuzz_mod.check_program

        def recording(program, **kwargs):
            seen.append(kwargs)
            return real(program, **kwargs)

        monkeypatch.setattr(fuzz_mod, "check_program", recording)
        assert main(["fuzz", "--seed", "1", "--count", "16"]) == 0
        modes = [("scc", False), ("global", False), ("scc", True), ("global", True)]
        assert [(k["scope_mode"], k["vub_form"]) for k in seen] == modes * 4
        assert [k["strong"] for k in seen] == ([True] * 4 + [False] * 4) * 2

    @pytest.mark.parametrize("failing, index, flags", [
        (lambda scope_mode, vub_form, strong: scope_mode == "global", 1, " --global-scope"),
        (lambda scope_mode, vub_form, strong: vub_form, 2, " --vub-form"),
        (lambda scope_mode, vub_form, strong: scope_mode == "global" and vub_form, 3,
         " --global-scope --vub-form"),
        (lambda scope_mode, vub_form, strong: not strong, 4, " --no-strong"),
        (lambda scope_mode, vub_form, strong: vub_form and not strong, 6,
         " --vub-form --no-strong"),
    ], ids=["global", "vub", "global-vub", "weak", "vub-weak"])
    def test_failure_names_the_check_flags(self, capsys, monkeypatch, tmp_path,
                                           failing, index, flags):
        import asptoc.fuzz as fuzz_mod
        from asptoc.fuzz import CheckReport

        def check(program, scope_mode="scc", vub_form=False, strong=True):
            status = "fail" if failing(scope_mode, vub_form, strong) else "pass"
            return CheckReport(({"check": "bijection", "status": status},), 0, 0)

        monkeypatch.setattr(fuzz_mod, "check_program", check)
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--seed", "9", "--count", "8"]) == 3
        failure = json.loads(capsys.readouterr().out.splitlines()[0])
        repro = f"fuzz-counterexample-9-{index}.lp"
        assert failure["program"] == index
        assert failure["reproduce"] == f"asptoc check {repro}{flags}"
        # the named flags reproduce the failure, the file alone does not
        assert main(failure["reproduce"].split()[1:]) == 3
        assert main(["check", repro]) == 0


class TestSolve:
    def test_example6_rank_five(self, tmp_path, capsys):
        path = write(tmp_path, "b5. b4 :- b5. b3 :- b4. b2 :- b3. b1 :- b2.\n"
                     "a :- 7 <= { b1=7, b2=5, b3=3, b4=2, b5=1 }.")
        assert main(["solve", path, "--solver", STUB, "--global-scope"]) == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer["model"] == ["a", "b1", "b2", "b3", "b4", "b5"]
        assert answer["ranks"]["a"] == 5

    def test_unsatisfiable(self, tmp_path, capsys):
        path = write(tmp_path, "a :- not a.")
        assert main(["solve", path, "--solver", STUB]) == 0
        assert capsys.readouterr().out.strip() == "UNSATISFIABLE"

    def test_tight_program_reports_no_ranks(self, tmp_path, capsys):
        path = write(tmp_path, "b. a :- b.")
        assert main(["solve", path, "--solver", STUB]) == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer == {"model": ["a", "b"], "ranks": {}}

    def test_all_enumerates_stable_models(self, tmp_path, capsys):
        from asptoc.oracle import stable_models
        from asptoc.parser import parse_program

        src = "{p}. q :- p."
        path = write(tmp_path, src)
        assert main(["solve", path, "--solver", STUB, "--all"]) == 0
        found = sorted(tuple(json.loads(l)["model"])
                       for l in capsys.readouterr().out.splitlines())
        expected = sorted(tuple(sorted(m))
                          for m, _ in stable_models(parse_program(src)))
        assert found == expected

    def test_all_prints_visible_atoms_only(self, tmp_path, capsys):
        path = write(tmp_path, "{c}. a :- c. #hide c.")
        assert main(["solve", path, "--solver", STUB, "--all"]) == 0
        found = sorted(json.loads(l)["model"]
                       for l in capsys.readouterr().out.splitlines())
        assert found == [[], ["a"]]
        # the ranks printed are the visible atoms' too
        path = write(tmp_path, "a :- b. b :- a. {a}. #hide b.")
        assert main(["solve", path, "--solver", STUB, "--all"]) == 0
        found = sorted((json.loads(l)["model"], sorted(json.loads(l)["ranks"]))
                       for l in capsys.readouterr().out.splitlines())
        assert found == [([], ["a"]), (["a"], ["a"])]

    @pytest.mark.parametrize("src", [COLLISION, RESERVED], ids=["collision", "reserved"])
    def test_all_with_hard_names(self, tmp_path, capsys, src):
        path = write(tmp_path, src)
        assert main(["solve", path, "--solver", STUB, "--all"]) == 0
        found = sorted(json.loads(l)["model"]
                       for l in capsys.readouterr().out.splitlines())
        assert found == oracle_models(src)
        assert len(found) == (4 if src == COLLISION else 2)

    def test_all_emits_each_query_as_the_grown_set(self, tmp_path, capsys, monkeypatch):
        # the query is emitted once and grown by one line per blocked model;
        # each file the solver reads equals a fresh emission of the set
        # grown by the same blocks
        from asptoc import smtlib
        from asptoc.formulas import Base, Not, Var, conj
        from asptoc.parser import parse_program
        from asptoc.toc import toc_program

        queries = []
        real = smtlib.run_solver

        def recording(command, path, timeout=None):
            queries.append(pathlib.Path(path).read_text())
            return real(command, path, timeout)

        monkeypatch.setattr(smtlib, "run_solver", recording)
        path = write(tmp_path, COLLISION)
        assert main(["solve", path, "--solver", STUB, "--all"]) == 0
        models = [json.loads(l)["model"] for l in capsys.readouterr().out.splitlines()]
        assert len(models) == 4 and len(queries) == 5
        fs = toc_program(parse_program(COLLISION))
        assert fs.level_bounds
        for query, model in zip(queries, models):
            assert query == smtlib.emit_smtlib(fs, model=True)
            literals = [Var(Base(n)) if n in model else Not(Var(Base(n)))
                        for n in fs.base_atoms]
            fs.add(f"block:{len(fs.formulas)}", Not(conj(*literals)))
        assert queries[-1] == smtlib.emit_smtlib(fs, model=True)

    def test_reserved_words_are_not_declared(self, tmp_path, capsys):
        path = write(tmp_path, RESERVED)
        assert main(["translate", path]) == 0
        declared = {l.split()[1] for l in capsys.readouterr().out.splitlines()
                    if l.startswith("(declare-const")}
        assert {"|atom:true|", "|atom:false|", "|atom:let|"} <= declared
        assert not {"true", "false", "let"} & declared

    def test_env_solver(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TOC_SOLVER", STUB)
        path = write(tmp_path, "a.")
        assert main(["solve", path]) == 0

    def test_agrees_with_oracle_on_satisfiability(self, tmp_path, capsys):
        from asptoc.fuzz import fuzz_corpus
        from asptoc.oracle import stable_models

        # --all prints one line per stable model, projected to the visible
        # atoms, and UNSATISFIABLE exactly when there is none
        for index, source, program in fuzz_corpus(seed=17, count=8,
                                                  max_atoms=5, max_rules=6):
            path = write(tmp_path, source, name=f"p{index}.lp")
            assert main(["solve", path, "--solver", STUB, "--all"]) == 0
            out = capsys.readouterr().out
            printed = sorted(json.loads(line)["model"] for line in out.splitlines()
                             if line.startswith("{"))
            expected = sorted(sorted(m & program.visible_atoms)
                              for m, _ in stable_models(program))
            assert printed == expected, source
            assert ("UNSATISFIABLE" in out) == (not expected), source

    def test_missing_solver_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("TOC_SOLVER", raising=False)
        path = write(tmp_path, "a.")
        assert main(["solve", path]) == 4

    def test_solver_timeout_exit_code(self, tmp_path, capsys):
        import time
        path = write(tmp_path, "a.")
        sleeper = f"{sys.executable} -c 'import time; time.sleep(10)'"
        start = time.monotonic()
        assert main(["solve", path, "--solver", sleeper, "--timeout", "0.5"]) == 4
        assert time.monotonic() - start < 2.5
        assert "timed out" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--limit", "0", "0 is not at least 1"),
        ("--limit", "-1", "-1 is not at least 1"),
        ("--timeout", "0", "0 is not a positive number of seconds"),
        ("--timeout", "-1", "-1 is not a positive number of seconds"),
        ("--timeout", "nan", "nan is not a positive number of seconds"),
        ("--timeout", "inf", "inf is more than 1000000 seconds"),
        ("--timeout", "1e7", "1e7 is more than 1000000 seconds"),
    ])
    def test_out_of_range_argument_rejected(self, tmp_path, capsys, flag, value, message):
        path = write(tmp_path, "a :- not b. b :- not a.")
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--solver", STUB, "--all", flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument {flag}: {message}" in err

    def test_limit_of_one_accepted(self, tmp_path, capsys):
        path = write(tmp_path, "a :- not b. b :- not a.")
        assert main(["solve", path, "--solver", STUB, "--all", "--limit", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["model"] in (["a"], ["b"])

    def test_largest_timeout_accepted(self, tmp_path, capsys):
        # the cap itself waits for the solver without overflowing poll
        path = write(tmp_path, "a.")
        assert main(["solve", path, "--solver", STUB, "--timeout", "1e6"]) == 0
        assert json.loads(capsys.readouterr().out) == {"model": ["a"], "ranks": {}}

    def test_small_timeout_accepted(self, tmp_path, capsys):
        # just above zero is legal: the solver runs and is then cut off
        path = write(tmp_path, "a.")
        sleeper = f"{sys.executable} -c 'import time; time.sleep(10)'"
        assert main(["solve", path, "--solver", sleeper, "--timeout", "0.001"]) == 4
        assert "timed out after 0.001 s" in capsys.readouterr().err

    def test_broken_solver_command(self, tmp_path, monkeypatch):
        path = write(tmp_path, "a.")
        assert main(["solve", path, "--solver", "/no/such/bin"]) == 4

    def test_garbage_response_exit_code(self, tmp_path):
        path = write(tmp_path, "a.")
        assert main(["solve", path, "--solver", "echo chaos from"]) == 5


def test_startup_imports_only_the_translator():
    # the checkers, the fuzzer and the solver plumbing load on first use
    import os
    import subprocess

    import asptoc

    src = str(pathlib.Path(asptoc.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def loaded_by(code):
        code += "\nimport sys; print(' '.join(sorted(sys.modules)))"
        return set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True).stdout.split())

    loaded = loaded_by("import asptoc.cli")
    assert "asptoc.toc" in loaded
    assert not {"asptoc.dlcheck", "asptoc.oracle", "asptoc.fuzz", "asptoc.normtest"} & loaded
    # records share one base instead of generated dataclass code, and only
    # the JSON reports of check, fuzz and solve need json
    assert not {"dataclasses", "inspect", "json"} & loaded
    # nor do the records of the checkers and the fuzzer load either module
    loaded = loaded_by("import asptoc.fuzz, asptoc.normtest, asptoc.oracle")
    assert {"asptoc.fuzz", "asptoc.normtest", "asptoc.oracle"} <= loaded
    assert not {"dataclasses", "inspect"} & loaded
    # the model finder, the proposition checks and reading a solver model
    # stand apart from the oracle ...
    loaded = loaded_by("import asptoc.dlcheck, asptoc.normtest, asptoc.toc\n"
                       "from asptoc.formulas import FormulaSet\n"
                       "from asptoc.smtlib import read_solver_model\n"
                       "fs = FormulaSet(); fs.declare_base('a')\n"
                       "assert read_solver_model('sat (define-fun a () Bool true)', fs)")
    assert {"asptoc.dlcheck", "asptoc.normtest"} <= loaded
    assert "asptoc.oracle" not in loaded
    # ... and the oracle imports nothing of the translation
    loaded = loaded_by("import asptoc.oracle")
    assert "asptoc.oracle" in loaded
    assert not {"asptoc.formulas", "asptoc.toc", "asptoc.depgraph", "asptoc.dlcheck",
                "asptoc.smtlib"} & loaded


def test_benchmark_imports_resolve():
    # the benchmark imports these names from asptoc; a rename would fail
    # every one of its workload runs, so it is caught here first
    import ast
    import importlib
    import importlib.util

    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    tree = ast.parse(bench.read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.level == 0 and node.module.split(".")[0] == "asptoc"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            name = alias.name
            submodule = hasattr(module, "__path__") and importlib.util.find_spec(
                f"{node.module}.{name}") is not None
            assert hasattr(module, name) or submodule, f"from {node.module} import {name}"
