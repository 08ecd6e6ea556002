"""Translation time grows linearly with program size.

Parsing, the dependency graph, the completion and the emission each index
the program once, so each of these stages takes about four times as long
on a program four times as large; a list scan left on any of them makes
it about sixteen.  Each stage is bounded on its own, so a slow stage
cannot hide behind the others.  The bound of eight leaves room for the
machine's speed to drift between runs, which the interleaved best-of-three
absorbs only in part.  Stages are timed in process CPU time, so time spent
descheduled while other processes hold the CPU counts against neither size.
"""

import gc
import time

from asptoc.cli import main
from asptoc.depgraph import build_depgraph, sccs
from asptoc.parser import parse_program
from asptoc.smtlib import smtlib_lines
from asptoc.toc import toc_program

N = 2000
RUNS = 3
GRAPH_REPEATS = 5
MAX_RATIO = 8.0


def chain_source(n: int) -> str:
    """n rules x1 <- x0, x2 <- x1, ...: the per-component translation meets
    n singleton components, the global one ranks all n atoms in one scope."""
    return "{x0}.\n" + "".join(f"x{i} :- x{i - 1}.\n" for i in range(1, n))


def ring_source(n: int) -> str:
    """n rules on a ring, each with weighted convex chords to the two atoms
    before it, ``x{i} :- 2 <= { x{i-1}=1, x{i-2}=2, not y{i} } <= 3.``: the
    whole ring is one component, so every rule takes the ranked path, with
    an upper bound, in either scope mode."""
    return "".join(f"x{i} :- 2 <= {{ x{(i - 1) % n}=1, x{(i - 2) % n}=2, not y{i} }} <= 3.\n"
                   for i in range(n))


def seconds(work) -> float:
    start = time.process_time()
    work()
    return time.process_time() - start


def stage_seconds(source: str) -> dict:
    start = time.process_time()
    program = parse_program(source)
    parse_s = time.process_time() - start
    # the graph stage takes milliseconds, so one timing of it is mostly noise
    graph_s = min(seconds(lambda: sccs(build_depgraph(program)))
                  for _ in range(GRAPH_REPEATS))
    sets = []
    toc_s = seconds(lambda: sets.extend((toc_program(program, scope_mode="scc"),
                                         toc_program(program, scope_mode="global"))))
    emit_s = seconds(lambda: [smtlib_lines(fs, model=True) for fs in sets])
    return {"parse": parse_s, "depgraph": graph_s, "toc": toc_s, "emit": emit_s}


def assert_linear(sources: dict, stages, *, collector_off: bool = True) -> None:
    """Bound each stage's ratio between the best of RUNS interleaved
    timings of ``stages(source)`` on the N-rule and the 4N-rule source.
    With ``collector_off`` no collection runs in between, since a full one
    mid-run would charge one size only."""
    best = {n: {} for n in sources}
    enabled = gc.isenabled()
    gc.collect()
    if collector_off:
        gc.disable()
    try:
        for _ in range(RUNS):
            for n, source in sources.items():
                for stage, seconds in stages(source).items():
                    best[n][stage] = min(best[n].get(stage, seconds), seconds)
    finally:
        if enabled:
            gc.enable()
    ratios = {stage: best[4 * N][stage] / best[N][stage] for stage in best[N]}
    report = ", ".join(f"{stage} {best[N][stage]:.3f}s -> {best[4 * N][stage]:.3f}s"
                       for stage in best[N])
    assert max(ratios.values()) <= MAX_RATIO, (
        f"4x the rules took up to {max(ratios.values()):.1f}x the time ({report})")


def test_translation_time_is_linear():
    assert_linear({n: chain_source(n) for n in (N, 4 * N)}, stage_seconds)


def test_ranked_path_time_is_linear():
    """The completion and emission of one ranked scope, with and without
    ``vub_form``; the chain above reaches the ranked path only through
    unit-literal bodies in global mode."""
    programs = {n: parse_program(ring_source(n)) for n in (N, 4 * N)}

    def stages(program) -> dict:
        times = {}
        for vub_form in (False, True):
            sets = []
            mode = "vub" if vub_form else "plain"
            times[f"toc {mode}"] = seconds(
                lambda: sets.append(toc_program(program, vub_form=vub_form)))
            times[f"emit {mode}"] = seconds(lambda: smtlib_lines(sets[0], model=True))
        return times

    assert_linear(programs, stages)


def test_parse_time_is_linear_on_one_line():
    """All rules on one line: a position computed for every token by
    scanning the text, such as ``text.count`` from its start, makes the
    parse quadratic."""
    assert_linear({n: chain_source(n).replace("\n", " ") for n in (N, 4 * N)},
                  lambda source: {"parse": seconds(lambda: parse_program(source))})


def test_translate_command_time_is_linear(tmp_path):
    """``asptoc translate`` as a whole, argument parsing and the write
    included, with the collector as the command sets it: the collector
    stays on outside the command, and the command turns it off."""
    out = str(tmp_path / "out.smt2")
    paths = {}
    for n in (N, 4 * N):
        paths[n] = tmp_path / f"chain{n}.lp"
        paths[n].write_text(chain_source(n))

    def translate(path) -> dict:
        start = time.process_time()
        code = main(["translate", str(path), "--out", out])
        elapsed = time.process_time() - start
        assert code == 0
        return {"translate": elapsed}

    assert_linear(paths, translate, collector_off=False)
