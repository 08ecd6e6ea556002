#!/usr/bin/env python3
"""Benchmark for asptoc: seeded workloads, one client in a closed loop.

    python3 perfbench/run.py --workload translate-scc --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports asptoc from ``src/`` and
runs the stub solver from ``tests/``.  Each workload builds a fixed corpus
of inputs from the seed before the clock starts, then runs the corpus in
passes, one operation after another in this one process, until
``--seconds`` have passed.  An input's time is the median over its passes,
which keeps a burst of machine noise out of the figures.  Every output is
checked after the loop, outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced, then replays one pass with spans recorded around asptoc's
public calls, and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STUB = ROOT / "tests" / "stub_solver.py"
WORK = ROOT / ".perfbench"

if not (SRC / "asptoc" / "__init__.py").is_file() or not STUB.is_file():
    sys.exit(f"perfbench: no asptoc sources under {ROOT}; run from a checkout "
             "that holds src/asptoc and tests/stub_solver.py")
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                          os.environ.get("PYTHONPATH")]))

from asptoc import cli, parse_program  # noqa: E402
from asptoc.depgraph import build_depgraph, is_recursive_scope, sccs  # noqa: E402
from asptoc.dlcheck import enumerate_dl_models  # noqa: E402
from asptoc.formulas import (Aux, Base, Iff, LevelVar, Not, Var, Z, conj,  # noqa: E402
                             eval_formula, ref_name, var_name)
from asptoc.fuzz import check_program, fuzz_corpus, ranked_scopes  # noqa: E402
from asptoc.normtest import check_proposition  # noqa: E402
from asptoc.oracle import least_model, module_ranking, reduct, stable_models  # noqa: E402
from asptoc.smtlib import emit_smtlib, read_solver_model, run_solver  # noqa: E402
from asptoc.toc import toc_program  # noqa: E402

import programs  # noqa: E402
from tracing import Tracer  # noqa: E402

STUB_CMD = f"{shlex.quote(sys.executable)} {shlex.quote(str(STUB))}"
SETUP_REPEATS = 15
# One more than the most stable models a solve-stub program has, so no
# correct answer is cut; a solver loop that keeps returning a model it was
# told to block (a known defect with atoms named true or false) stops here
# instead of at the CLI's default of 64.
SOLVE_LIMIT = 5


@dataclass
class Op:
    """One input of a workload's corpus, with one entry per pass in
    ``starts`` (clock reading at the start), ``seconds`` (wall time),
    ``scaled`` (wall time at reference speed, see :class:`SpeedProbe`) and
    ``results``; ``kind`` is program or proposition."""

    kind: str
    rules: int
    payload: object
    starts: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    results: list = field(default_factory=list)
    checked: str = ""  # comma-separated names of the checks applied
    failures: int = 0

    @property
    def median(self) -> float:
        return statistics.median(self.scaled)


class SpeedProbe:
    """Tracks how fast this machine runs Python during a run.

    The host this benchmark was tuned on has phases, lasting from seconds
    to minutes, in which all code runs up to twice as slowly, although
    the process is never descheduled; a slow phase can cover a whole run.
    Between operations the probe times a fixed piece of pure-Python work
    that shares no code with asptoc, at most every ``INTERVAL`` seconds,
    and every time is scaled by ``REFERENCE`` over the median of the
    ``NEIGHBOURS`` probes taken nearest to it, to the power ``EXPONENT``;
    set-up times are scaled by probes of their own.  Scaling by the nearby
    probes follows the slow phases within a run, where one factor for the
    whole run cannot.  asptoc's operations speed up and slow down less than
    the probe: over ten minutes in which the probe's time varied twofold,
    the log of the operations' times followed the log of the probe's with
    a slope of 0.7 to 0.8 on each workload, and an exponent of 0.75 left
    about two thirds of the variation that an exponent of 1 leaves.  The
    reported times are thus wall times at the speed where the probe takes
    ``REFERENCE`` seconds; the report prints the raw wall times beside
    them.  Probes taken between a workload's
    operations run somewhat slower than on an idle interpreter, so the
    scaled times of two workloads are not comparable with each other, only
    those of one workload across runs and commits.
    """

    REFERENCE = 0.0035  # probe median on a quiet 2.0 GHz Xeon vCPU
    INTERVAL = 0.25
    NEIGHBOURS = 7
    EXPONENT = 0.75

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []  # clock reading of each sample
        self.last = float("-inf")

    @staticmethod
    def probe() -> float:
        gc.disable()  # the probe must not pay for collecting asptoc's garbage
        try:
            start = time.perf_counter()
            table = {}
            for i in range(5000):
                key = f"k{i * 7919 % 10007}"
                table[key] = (i, key, [i, i + 1])
            sorted(table.items())
            return time.perf_counter() - start
        finally:
            gc.enable()

    def tick(self, every: float = INTERVAL) -> None:
        now = time.perf_counter()
        if now - self.last >= every:
            # the better of two, as the first after a wait can run cold
            self.samples.append(min(self.probe(), self.probe()))
            self.times.append(now)
            self.last = now

    @property
    def factor(self) -> float:
        """The machine's speed over the whole run, for the report."""
        return self.REFERENCE / statistics.median(self.samples)

    def local(self, at: float) -> float:
        """The scale factor for a time measured from clock reading ``at``."""
        i = bisect.bisect(self.times, at)
        lo = max(0, min(i - self.NEIGHBOURS // 2, len(self.samples) - self.NEIGHBOURS))
        speed = self.REFERENCE / statistics.median(self.samples[lo:lo + self.NEIGHBOURS])
        return speed ** self.EXPONENT

    def scale(self, ops) -> None:
        for op in ops:
            op.scaled = [sec * self.local(at) for sec, at in zip(op.seconds, op.starts)]


class Raised:
    """The result of an execution that raised; it fails every check."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def ir_size(fs) -> dict:
    return {"aux_atoms": len(fs.aux_atoms), "level_vars": len(fs.level_bounds),
            "formulas": len(fs.formulas)}


# ---------------------------------------------------------------------------
# translate-scc, translate-ranked

@dataclass
class Case:
    """One translate input and, once checked, its reference translation."""

    path: Path
    generated: programs.Generated
    scope_mode: str
    vub_form: bool
    step: int
    reference: tuple | None = None  # (sha256 of the text, formula count, witness ok)

    def flags(self) -> list[str]:
        return (["--global-scope"] if self.scope_mode == "global" else []) + \
            (["--vub-form"] if self.vub_form else [])


class Workload:
    corpus: list[Op]

    def pass_ops(self, deadline: float):
        """The operations of one pass."""
        return self.corpus

    def collect(self, op: Op, result):
        """Turn a timed call's result into the one the checks see; runs
        outside the timed region."""
        return result


class Translate(Workload):
    """``asptoc translate`` on programs whose size doubles over four steps,
    two programs per step.  ``translate-scc`` uses tight programs in the
    default scope; ``translate-ranked`` uses programs with large cyclic
    components, one per step in ``scc`` scope and one, half the size, in
    ``global`` scope, and ``--vub-form`` on a seeded one of the two."""

    def __init__(self, name: str, seed: int, work: Path, smallest: bool):
        rng = random.Random(f"{name}:{seed}")
        self.out = work / "out.smt2"
        cases = []
        for step in range(1 if smallest else 4):
            if name == "translate-scc":
                specs = [("scc", programs.tight_program(rng, 250 << step))
                         for _ in range(2)]
            else:
                specs = [("scc", programs.ranked_program(rng, 125 << step)),
                         ("global", programs.ranked_program(rng, 63 << step))]
            for mode, gen in specs:
                path = work / f"case{len(cases)}.lp"
                path.write_text(gen.source, encoding="utf-8")
                cases.append(Case(path, gen, mode, False, step))
        if name == "translate-ranked":
            for step in range(0, len(cases), 2):  # one of each size step
                cases[step + rng.randrange(2)].vub_form = True
        self.corpus = [Op("program", c.generated.rules, c) for c in cases]

    def run(self, op: Op):
        case = op.payload
        return cli.main(["translate", str(case.path), "--out", str(self.out)] + case.flags())

    def collect(self, op: Op, result):
        return result, hashlib.sha256(self.out.read_bytes()).hexdigest()

    def trace(self, op: Op, tracer: Tracer, pid: int) -> dict:
        """``cmd_translate`` replayed through public functions, then the
        dependency graph and validation that ``toc_program`` runs inside,
        timed on their own."""
        case = op.payload
        with tracer.span("cli", pid):
            text = case.path.read_text(encoding="utf-8")
            with tracer.span("parser", pid):
                program = parse_program(text)
            with tracer.span("toc", pid):
                fs = toc_program(program, scope_mode=case.scope_mode, vub_form=case.vub_form)
            with tracer.span("smtlib.emit", pid):
                out = emit_smtlib(fs, model=True)
            self.out.write_text(out, encoding="utf-8")
        with tracer.span("depgraph", pid):
            graph = build_depgraph(program)
            parts = sccs(graph)
        with tracer.span("formulas.validate", pid):
            fs.validate()
        op.results.append((0, hashlib.sha256(out.encode("utf-8")).hexdigest()))
        if case.scope_mode == "global":
            ranked = 1 if program.heads() else 0
        else:
            ranked = sum(1 for c in parts.components if is_recursive_scope(program, c))
        return {"step": case.step, "source_bytes": len(text.encode("utf-8")),
                "edges": len(graph.edges), "components": len(parts.components),
                "largest_scc": max(map(len, parts.components), default=0),
                "ranked_scopes": ranked, "bytes": len(out.encode("utf-8")), **ir_size(fs)}

    def check(self, op: Op, result) -> bool:
        case = op.payload
        if case.reference is None:
            case.reference = reference_translation(case)
        digest, _, witness_ok = case.reference
        op.checked = "exit,witness,identical"
        return result[0] == 0 and witness_ok and result[1] == digest

    def formulas_per_rule(self) -> float:
        cases = [op.payload for op in self.corpus]
        return (sum(c.reference[1] for c in cases)
                / sum(c.generated.rules for c in cases))


def reference_translation(case: Case) -> tuple:
    """Translate once more outside the clock and check the witness.  The
    oracle must confirm it is stable; extended with the oracle's ranks and
    with auxiliary values computed from their definitions, it must satisfy
    every formula of the translation."""
    program = parse_program(case.path.read_text(encoding="utf-8"))
    fs = toc_program(program, scope_mode=case.scope_mode, vub_form=case.vub_form)
    digest = hashlib.sha256(emit_smtlib(fs, model=True).encode("utf-8")).hexdigest()
    model = case.generated.witness & frozenset(program.atom_names)
    stable, _ = least_model(reduct(program, model), model & program.input_atoms())
    ok = stable == model and all(c.satisfied(model) for c in program.constraints())
    if ok:
        if case.scope_mode == "global":
            scopes = [frozenset(program.heads())]
        else:
            scopes = [s for s in case.generated.scopes if len(s) > 1]
        ints = {var_name(Z): 0}
        for scope in scopes:
            ranks = module_ranking(program, scope, model)
            for atom in scope:
                ints[var_name(LevelVar(atom))] = (
                    ranks[atom] if atom in model else len(scope) + 1)
        ok = satisfies(fs, {a: a in model for a in fs.base_atoms}, ints)
    return digest, len(fs.formulas), ok


def satisfies(fs, bools: dict, ints: dict) -> bool:
    """Give every auxiliary atom the value of its ``Iff`` definition, then
    evaluate every formula with the reference evaluator."""
    pending = [(ref_name(f.left.atom), f.right) for _, f in fs.formulas
               if isinstance(f, Iff) and isinstance(f.left, Var)
               and isinstance(f.left.atom, Aux)]
    while pending:
        waiting = []
        for name, body in pending:
            try:
                bools[name] = eval_formula(body, bools, ints)
            except KeyError:
                waiting.append((name, body))
        if len(waiting) == len(pending):
            return False
        pending = waiting
    try:
        return all(eval_formula(f, bools, ints) for _, f in fs.formulas)
    except KeyError:
        return False


# ---------------------------------------------------------------------------
# verify-fuzz

class Verify(Workload):
    """The traffic of ``asptoc fuzz --props``: programs from ``fuzz_corpus``
    at the CLI defaults (at most 7 atoms and 10 rules) go through
    ``check_program``, cycling through the scope modes and ``vub_form``;
    after every eighth program comes one aggregation proposition on a
    seeded weight rule drawn as the CLI's ``--props`` draws it.  The corpus
    is a stream that runs in one pass until the deadline, and for at least
    ``MIN_PROGRAMS``: check times are heavy-tailed, and fewer programs let
    the draw of the seed move the rates by a fifth.

    Check time grows about twofold per atom (3 ms at two atoms, 130 ms at
    seven), so the number of large programs a seed happens to draw would
    move the rates.  The stream therefore takes programs from
    ``fuzz_corpus`` in the order it yields them, but each block of 100
    holds ``QUOTA[n]`` programs of ``n`` atoms, the shares of the
    unfiltered stream (20,000 programs of seeds 100 to 119); a program
    over its quota is skipped."""

    MIN_PROGRAMS = 800
    MODES = [("scc", False), ("global", False), ("scc", True), ("global", True)]
    QUOTA = {1: 2, 2: 20, 3: 20, 4: 20, 5: 18, 6: 13, 7: 7}  # sums to 100

    def __init__(self, name: str, seed: int, work: Path, smallest: bool):
        self.name = name
        self.seed = seed
        # the smoke test stops at 200, where p95 still has ten samples beyond it
        self.min_programs = 200 if smallest else self.MIN_PROGRAMS
        self.corpus = []

    def pass_ops(self, deadline: float):
        rng = random.Random(f"{self.name}:{self.seed}")
        taken = dict.fromkeys(self.QUOTA, 0)
        index = 0
        for _, _, program in fuzz_corpus(self.seed, 10 ** 9):
            atoms = len(program.atom_names)
            if taken.get(atoms, 0) >= self.QUOTA.get(atoms, 0):
                continue
            if index >= self.min_programs and time.perf_counter() >= deadline:
                return
            taken[atoms] += 1
            if index % 100 == 99:
                taken = dict.fromkeys(self.QUOTA, 0)
            mode, vub = self.MODES[index % 4]
            ops = [Op("program", len(program.rules), (program, mode, vub))]
            if index % 8 == 7:
                n = rng.randint(1, 5)
                items = ", ".join(f"b{i}={rng.randint(1, 8)}" for i in range(1, n + 1))
                rule = parse_program(f"a :- {rng.randint(1, 20)} <= {{ {items} }}.").rules[0]
                ops.append(Op("proposition", 1, rule))
            self.corpus.extend(ops)
            yield from ops
            index += 1

    def run(self, op: Op):
        if op.kind == "program":
            program, mode, vub = op.payload
            return check_program(program, scope_mode=mode, vub_form=vub)
        return check_proposition(op.payload, 3)

    def trace(self, op: Op, tracer: Tracer, pid: int) -> dict:
        """``check_program`` as a whole, then each call it makes, timed on
        its own on the same program."""
        if op.kind == "proposition":
            with tracer.span("normtest", pid):
                verdict = check_proposition(op.payload, 3)
            op.results.append(verdict)
            return {"instances": verdict.instances_checked}
        program, mode, vub = op.payload
        with tracer.span("fuzz.check", pid):
            report = check_program(program, scope_mode=mode, vub_form=vub)
        op.results.append(report)
        with tracer.span("oracle", pid):
            stable = stable_models(program, cap=20)
        with tracer.span("toc", pid):
            fs = toc_program(program, scope_mode=mode, vub_form=vub)
        vocab = len(fs.base_atoms) + len(fs.aux_atoms)
        with tracer.span("dlcheck", pid):
            models = enumerate_dl_models(fs, max_atoms=vocab)
        scopes = ranked_scopes(program, mode)
        signature = frozenset(program.atom_names)
        with tracer.span("oracle.rank", pid):
            if report.ok:
                for model in models:
                    for scope in scopes:
                        module_ranking(program, scope, model.true_atoms() & signature)
        return {"candidates": 2 ** len(signature), "stable": len(stable),
                "vocab_atoms": vocab, "models": len(models), **ir_size(fs)}

    def check(self, op: Op, result) -> bool:
        if op.kind == "program":
            op.checked = "report"
            return result.ok
        op.checked = "verdict"
        return result.passed

    def formulas_per_rule(self) -> float:
        formulas = rules = 0
        for op in self.corpus:
            if op.kind == "program":
                program, mode, vub = op.payload
                formulas += len(toc_program(program, scope_mode=mode, vub_form=vub).formulas)
                rules += op.rules
        return formulas / rules


# ---------------------------------------------------------------------------
# solve-stub

class Solve(Workload):
    """``asptoc solve --all`` with the stub solver on twelve small seeded
    programs, two rounds of six: three random, one with ``#hide``, one
    whose ``__`` names form two loops, one with a reserved word as an atom
    (see :func:`programs.solve_program`)."""

    KINDS = ("random", "hidden", "random", "collision", "random", "reserved")

    def __init__(self, name: str, seed: int, work: Path, smallest: bool):
        rng = random.Random(f"{name}:{seed}")
        self.work = work
        self.corpus = []
        for i, kind in enumerate(self.KINDS * 2):
            gen = programs.solve_program(rng, kind)
            path = work / f"solve{i}.lp"
            path.write_text(gen.source, encoding="utf-8")
            self.corpus.append(Op("program", gen.rules, (path, gen)))

    def run(self, op: Op):
        path, _ = op.payload
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            rc = cli.main(["solve", str(path), "--all", "--limit", str(SOLVE_LIMIT),
                           "--solver", STUB_CMD])
        return rc, buffer.getvalue()

    def trace(self, op: Op, tracer: Tracer, pid: int) -> dict:
        """The loop of ``cmd_solve``, replayed through public functions."""
        path, _ = op.payload
        query = self.work / "query.smt2"
        printed = []
        calls = response_bytes = emitted = 0
        with tracer.span("solve", pid):
            text = path.read_text(encoding="utf-8")
            with tracer.span("parser", pid):
                program = parse_program(text)
            with tracer.span("toc", pid):
                fs = toc_program(program, scope_mode="scc")
            size = ir_size(fs)
            names = set(program.atom_names)
            while True:
                with tracer.span("smtlib.emit", pid):
                    smt = emit_smtlib(fs, model=True)
                query.write_text(smt, encoding="utf-8")
                with tracer.span("smtlib.run_solver", pid):
                    response = run_solver(STUB_CMD, str(query))
                with tracer.span("smtlib.read_model", pid):
                    model = read_solver_model(response, fs)
                calls += 1
                response_bytes += len(response.encode("utf-8"))
                emitted += len(smt.encode("utf-8"))
                if model is None:
                    break
                printed.append(json.dumps({"model": sorted(model.true_atoms() & names)}))
                if len(printed) >= SOLVE_LIMIT:
                    break
                block = [Var(Base(n)) if model.prop_map.get(n) else Not(Var(Base(n)))
                         for n in fs.base_atoms]
                fs.add(f"block:{len(fs.formulas)}", Not(conj(*block)))
        query.unlink()
        op.results.append((0, "".join(p + "\n" for p in printed) or "UNSATISFIABLE\n"))
        return {"calls": calls, "response_bytes": response_bytes, "models": len(printed),
                "bytes": emitted, "source_bytes": len(text.encode("utf-8")), **size}

    def check(self, op: Op, result) -> bool:
        """The printed models must be the oracle's stable models projected
        to the visible atoms."""
        _, gen = op.payload
        program = parse_program(gen.source)
        expected = sorted(sorted(m & program.visible_atoms)
                          for m, _ in stable_models(program))[:SOLVE_LIMIT]
        rc, out = result
        printed = sorted(json.loads(line)["model"] for line in out.splitlines()
                         if line.startswith("{"))
        op.checked = "oracle"
        return rc == 0 and printed == expected and (printed or "UNSATISFIABLE" in out)

    def formulas_per_rule(self) -> float:
        formulas = sum(len(toc_program(parse_program(op.payload[1].source)).formulas)
                       for op in self.corpus)
        return formulas / sum(op.rules for op in self.corpus)


END_TO_END = ("setup_s", "programs_per_s", "rules_per_s", "gmean_ms",
              "formulas_per_rule", "peak_rss_mb")
# solve-stub is not among the workloads of BENCHMARK.json, which may hold
# none with a failing operation: at the code the benchmark was defined on,
# a third of its operations fail on known defects (see README.md).  It is
# kept here to measure those failures and the solver round trip by hand.
WORKLOADS = {"translate-scc": Translate, "translate-ranked": Translate,
             "verify-fuzz": Verify, "solve-stub": Solve}
ROOT_SPANS = {"translate-scc": "cli", "translate-ranked": "cli",
              "verify-fuzz": "fuzz.check", "solve-stub": "solve"}


# ---------------------------------------------------------------------------
# measurement

def setup_seconds(work: Path) -> Op:
    """Times of a fresh ``asptoc translate`` process on a one-rule program,
    after one warm-up run that fills the bytecode cache, scaled by probes
    taken between them."""
    source = work / "one.lp"
    source.write_text("a :- b.\n", encoding="utf-8")
    argv = [sys.executable, "-m", "asptoc.cli", "translate", str(source),
            "--out", os.devnull]
    setup = Op("setup", 0, None)
    probe = SpeedProbe()
    for i in range(SETUP_REPEATS + 1):
        probe.tick(every=0)
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
        if i:
            setup.starts.append(start)
            setup.seconds.append(time.perf_counter() - start)
    probe.scale([setup])
    return setup


def closed_loop(workload, seconds: float, probe: SpeedProbe) -> int:
    """Run the corpus in passes until ``seconds`` have passed; each
    operation's time and result are recorded per pass.  The first pass is
    always whole; a later one stops at the deadline, so the inputs at the
    front of the corpus may have one sample more than the rest.  A workload
    whose corpus is a stream runs one pass that ends at the deadline.
    Returns the number of passes begun."""
    deadline = time.perf_counter() + seconds
    passes = 0
    while not passes or time.perf_counter() < deadline:
        for op in workload.pass_ops(deadline):
            if passes and time.perf_counter() >= deadline:
                break
            probe.tick()
            start = time.perf_counter()
            try:
                result = workload.run(op)
            except Exception as exc:  # any exception is a failed operation
                result = Raised(exc)
            op.starts.append(start)
            op.seconds.append(time.perf_counter() - start)
            if not isinstance(result, Raised):
                result = workload.collect(op, result)
            op.results.append(result)
        passes += 1
    return passes


def traced_pass(workload, tracer: Tracer) -> list[dict]:
    """Replay one pass with spans; return the counts each replay took."""
    counts = []
    for pid, op in enumerate(workload.corpus):
        try:
            counts.append(workload.trace(op, tracer, pid))
        except Exception as exc:
            op.results.append(Raised(exc))
            counts.append({})
    return counts


def run_checks(workload) -> tuple[int, int, list[str]]:
    """Check every recorded result; return (attempted, failed, messages of
    the exceptions raised by operations or checks)."""
    attempted = failed = 0
    errors = []
    for op in workload.corpus:
        for result in op.results:
            attempted += 1
            try:
                ok = not isinstance(result, Raised) and workload.check(op, result)
            except Exception as exc:
                ok, result = False, Raised(exc)
            if isinstance(result, Raised):
                errors.append(result.message)
            if not ok:
                failed += 1
                op.failures += 1
    return attempted, failed, errors


def end_to_end(name: str, workload, setup: Op, rss: float, failed_frac: float) -> dict:
    """Every end-to-end metric that applies to the workload, as name ->
    (value at reference speed, raw wall-clock value, unit); the first six
    are the ones ``BENCHMARK.json`` lists for every workload.

    Rates leave out the slowest twentieth of the programs (none in a corpus
    of fewer than twenty): a rare fuzz program that checks for seconds
    would otherwise set the rate of a whole run.  ``check_p95_ms`` reports
    that tail.  ``gmean_ms`` is the geometric mean of the programs' times,
    which, unlike the median, does not jump between size steps."""
    progs = [op for op in workload.corpus if op.kind == "program"]
    props = [op for op in workload.corpus if op.kind == "proposition"]

    def both(f, unit):
        scaled = f([op.median for op in progs], [op.median for op in props])
        raw = f([statistics.median(op.seconds) for op in progs],
                [statistics.median(op.seconds) for op in props])
        return scaled, raw, unit

    def rate(weights):
        def f(times, _):
            kept = sorted(zip(times, weights))[:len(times) - len(times) // 20]
            return sum(w for _, w in kept) / sum(t for t, _ in kept)
        return f

    fpr = workload.formulas_per_rule()
    out = {
        "setup_s": (statistics.median(setup.scaled), statistics.median(setup.seconds), "s"),
        "programs_per_s": both(rate([1] * len(progs)), "programs/s"),
        "rules_per_s": both(rate([op.rules for op in progs]), "rules/s"),
        "gmean_ms": both(lambda t, _: statistics.geometric_mean(t) * 1e3, "ms"),
        "formulas_per_rule": (fpr, fpr, "formulas/rule"),
        "peak_rss_mb": (rss, rss, "MiB"),
    }
    p50 = both(lambda t, _: statistics.median(t) * 1e3, "ms")
    if name.startswith("translate"):
        out["translate_p50_ms"] = p50
    elif name == "verify-fuzz":
        out["check_p50_ms"] = p50
        out["check_p95_ms"] = both(lambda t, _: statistics.quantiles(t, n=20)[-1] * 1e3, "ms")
        out["props_per_s"] = both(lambda _, p: len(p) / sum(p), "propositions/s")
    else:
        out["solve_p50_ms"] = p50
        # models printed per program, from the first pass
        models = sum(op.results[0][1].count('{"model"') for op in progs
                     if not isinstance(op.results[0], Raised))
        out["models_per_s"] = both(lambda t, _: models / sum(t), "models/s")
    out["failed_frac"] = (failed_frac, failed_frac, "failed/attempted")
    return out


def per_layer(name: str, workload, counts: list[dict], tracer: Tracer) -> dict:
    """Per-layer metrics of the traced pass.  Times are self times in
    seconds per program (per proposition for normtest), counts are means
    per program, and a layer the workload does not reach reads 0.  The
    solver round trip is reported on ``solve-stub`` only, the one workload
    that reaches it (see :data:`WORKLOADS`)."""
    layer = tracer.layer_times()
    progs = [(pid, c) for pid, (op, c) in enumerate(zip(workload.corpus, counts))
             if op.kind == "program"]
    props = [(pid, c) for pid, (op, c) in enumerate(zip(workload.corpus, counts))
             if op.kind == "proposition"]
    n = max(1, len(progs))

    def t(span: str, items=progs) -> float:
        return sum(layer.get((pid, span), 0.0) for pid, _ in items)

    def total(key: str, items=progs) -> float:
        return sum(c.get(key, 0) for _, c in items)

    def mean(key: str, items=progs) -> float:
        return total(key, items) / max(1, len(items))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def doubling(span: str) -> float:
        """Time at the largest size step over time at the step below."""
        steps = sorted({c["step"] for _, c in progs if "step" in c})
        if len(steps) < 2:
            return 0.0
        return ratio(t(span, [p for p in progs if p[1].get("step") == steps[-1]]),
                     t(span, [p for p in progs if p[1].get("step") == steps[-2]]))

    untraced = sum(statistics.median(op.seconds) for op in workload.corpus)
    traced = sum(s.duration for s in tracer.spans
                 if s.parent is None and s.name in (ROOT_SPANS[name], "normtest"))
    parts = sum(t(s) for s in ("oracle", "toc", "dlcheck", "oracle.rank"))
    fuzz = name == "verify-fuzz"
    metrics = {
        "parser.s": t("parser") / n,
        "parser.bytes_per_s": ratio(total("source_bytes"), t("parser")),
        "depgraph.s": t("depgraph") / n,
        "depgraph.edges": mean("edges"),
        "depgraph.components": mean("components"),
        "depgraph.largest_scc": mean("largest_scc"),
        "toc.s": t("toc") / n,
        "toc.formulas": mean("formulas"),
        "toc.aux_atoms": mean("aux_atoms"),
        "toc.level_vars": mean("level_vars"),
        "toc.ranked_scopes": mean("ranked_scopes"),
        "formulas.validate_s": t("formulas.validate") / n,
        "smtlib.emit_s": t("smtlib.emit") / n,
        "smtlib.bytes": mean("bytes"),
        "cli.residual_s": t("cli") / n,
        "parser.doubling": doubling("parser"),
        "depgraph.doubling": doubling("depgraph"),
        "toc.doubling": doubling("toc"),
        "smtlib.doubling": doubling("smtlib.emit"),
        "oracle.s": t("oracle") / n,
        "oracle.candidates": mean("candidates"),
        "oracle.hit_ratio": ratio(total("stable"), total("candidates")),
        "oracle.rank_s": t("oracle.rank") / n,
        "dlcheck.s": t("dlcheck") / n,
        "dlcheck.vocab_atoms": mean("vocab_atoms"),
        "dlcheck.models": mean("models") if fuzz else 0.0,
        "fuzz.check_s": t("fuzz.check") / n,
        "fuzz.residual_s": (t("fuzz.check") - parts) / n if fuzz else 0.0,
        "normtest.s": t("normtest", props) / max(1, len(props)),
        "normtest.instances": mean("instances", props),
        "trace.overhead_frac": ratio(traced, untraced) - 1 if untraced else 0.0,
    }
    if name == "solve-stub":
        metrics.update({
            "smtlib.run_solver_s": t("smtlib.run_solver") / n,
            "smtlib.read_model_s": t("smtlib.read_model") / n,
            "smtlib.solver_calls": mean("calls"),
            "smtlib.response_bytes": mean("response_bytes"),
            "smtlib.sat_ratio": ratio(total("models"), total("calls")),
        })
    return metrics


def layer_unit(metric: str) -> str:
    if metric.endswith("bytes_per_s"):
        return "bytes/s"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith(("ratio", "doubling", "overhead_frac")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smallest", action="store_true",
                        help="smoke test: translate only the smallest size step and "
                             "check only 200 fuzz programs")
    args = parser.parse_args(argv)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    tempfile.tempdir = str(work)  # solve writes its query files here
    try:
        return measure(args, work)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    name = args.workload
    probe = SpeedProbe()
    setup = setup_seconds(work)
    workload = WORKLOADS[name](name, args.seed, work, args.smallest)
    if not args.trace:
        passes = closed_loop(workload, args.seconds, probe)
        probe.scale(workload.corpus)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, errors = run_checks(workload)
        report = end_to_end(name, workload, setup, rss, failed / attempted)
        metrics = {k: (report[k][0], report[k][2]) for k in END_TO_END}
        header = ("metric", "at ref. speed", "raw wall")
    else:
        if isinstance(workload, Verify):
            # per-layer figures carry no bound; 200 programs keep the run short
            workload.min_programs = 200
        passes = closed_loop(workload, args.seconds / 2, probe)
        tracer = Tracer()
        counts = traced_pass(workload, tracer)
        attempted, failed, errors = run_checks(workload)
        metrics = {k: (v, layer_unit(k))
                   for k, v in per_layer(name, workload, counts, tracer).items()}
        report = {k: (v, None, u) for k, (v, u) in metrics.items()}
        header = ("metric", "raw wall", "")
        trace_path = WORK / f"trace-{name}-{args.seed}.json"
        tracer.write(trace_path)
        print(f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    print(f"{name}: {len(workload.corpus)} inputs, {passes} passes begun, one client, "
          f"an input's time is the median over its passes; machine speed "
          f"{probe.factor:.3f} of reference over {len(probe.samples)} probes")
    print(f"{name:16} {header[0]:22} {header[1]:>14} {header[2]:>14}")
    for key, (value, raw, unit) in report.items():
        column = "" if raw is None else f"{raw:.6g}"
        print(f"{name:16} {key:22} {value:14.6g} {column:>14} {unit}")
    checks: dict = {}
    for op in workload.corpus:
        for check in filter(None, op.checked.split(",")):
            checks[check] = checks.get(check, 0) + 1
    print(json.dumps({"checks": checks, "inputs": len(workload.corpus),
                      "inputs_checked": sum(1 for op in workload.corpus if op.checked),
                      "inputs_failing": sum(1 for op in workload.corpus if op.failures),
                      "errors": sorted(set(errors))[:3]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
