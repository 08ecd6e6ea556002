"""Command-line interface.

Exit codes: 0 success, 1 parse error or I/O error (an unreadable input,
an unwritable output), 2 unsupported feature or size cap, 3 correctness
mismatch, 4 solver invocation failure or timeout, 5 solver model parse
failure.  Reports are line-delimited JSON on stdout.

Start-up loads only the translator; the checkers, the fuzzer and the
solver plumbing are imported by the commands that use them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys

from .formulas import Base, LevelVar, Not, ValidationError, Var, conj
from .parser import ParseError, UnsupportedFeatureError, parse_program
from .program import Program, ResourceError
from .smtlib import FORMATS, SMTLIB, SolverInvocationError, SolverResponseError, written_set
from .toc import toc_program

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_UNSUPPORTED = 2
EXIT_MISMATCH = 3
EXIT_SOLVER = 4
EXIT_MODEL = 5

def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse(path: str) -> Program:
    return parse_program(_read_input(path))


def cmd_translate(args) -> int:
    # Translation makes no reference cycles (a test in test_cli.py pins
    # this), so the cyclic collector would only walk the program and the
    # shared leaves again and again: their nodes are tuples, which it never
    # untracks.
    enabled = gc.isenabled()
    gc.disable()
    try:
        # the set keeps only the text of each formula, written as it is
        # added; the program is not bound here, so it is freed once
        # translation ends
        fs = toc_program(_parse(args.input), scope_mode=args.scope_mode,
                         strong=not args.no_strong, vub_form=args.vub_form,
                         into=written_set(FORMATS[args.format]))
        # the declarations come first and are known only now, so nothing is
        # written before translation ends: an undeclared symbol, raised as
        # the formula reading it was added, writes nothing
        text = fs.formulas.text(fs)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.writelines(text)
        else:
            sys.stdout.writelines(text)
        return EXIT_OK
    finally:
        if enabled:
            gc.enable()


def cmd_check(args) -> int:
    import json

    from .fuzz import check_program

    program = _parse(args.input)
    if len(program.atom_names) > args.max_atoms:
        print(json.dumps({"check": "size", "status": "fail",
                          "atoms": len(program.atom_names),
                          "cap": args.max_atoms}))
        return EXIT_UNSUPPORTED
    report = check_program(program, scope_mode=args.scope_mode,
                           vub_form=args.vub_form, strong=not args.no_strong)
    for entry in report.checks:
        print(json.dumps(entry))
    print(json.dumps({"check": "summary",
                      "status": "pass" if report.ok else "fail",
                      "stable_models": report.stable_count,
                      "translation_models": report.model_count}))
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_fuzz(args) -> int:
    import json
    import random

    from .fuzz import CHECK_MODES, check_program, fuzz_corpus, generate_weight_rule
    from .normtest import check_proposition

    for index, source, program in fuzz_corpus(args.seed, args.count,
                                              args.max_atoms, args.max_rules):
        scope_mode, vub_form = CHECK_MODES[index % len(CHECK_MODES)]
        strong = index % (2 * len(CHECK_MODES)) < len(CHECK_MODES)
        report = check_program(program, scope_mode=scope_mode, vub_form=vub_form,
                               strong=strong)
        if not report.ok:
            repro = f"fuzz-counterexample-{args.seed}-{index}.lp"
            flags = (["--global-scope"] * (scope_mode == "global")
                     + ["--vub-form"] * vub_form + ["--no-strong"] * (not strong))
            print(json.dumps({"program": index, "status": "fail",
                              "reproduce": " ".join(["asptoc check", repro, *flags]),
                              "checks": report.checks}))
            with open(repro, "w", encoding="utf-8") as handle:
                handle.write(source)
            print(json.dumps({"counterexample": repro, "source": source}))
            return EXIT_MISMATCH
    print(json.dumps({"status": "pass", "programs": args.count,
                      "seed": args.seed}))

    if args.props:
        rng = random.Random(args.seed)
        for i in range(args.props):
            rule = generate_weight_rule(rng)
            verdict = check_proposition(rule, 3)
            if not verdict.passed:
                print(json.dumps({"proposition": i, "status": "fail",
                                  "counterexample": verdict.counterexample}))
                return EXIT_MISMATCH
        print(json.dumps({"status": "pass", "propositions": args.props}))
    return EXIT_OK


def _block_model(fs, model):
    """Add to ``fs`` the formula that excludes ``model``'s base atoms."""
    true = model.prop_map
    literals = []
    for name in fs.base_atoms:
        var = Var(Base(name))
        literals.append(var if true.get(name) else Not(var))
    fs.add(f"block:{len(fs.formulas)}", Not(conj(*literals)))


def cmd_solve(args) -> int:
    import json
    import tempfile

    from .smtlib import read_solver_model, run_solver

    program = _parse(args.input)
    solver = args.solver or os.environ.get("TOC_SOLVER")
    if not solver:
        print("no solver configured (use --solver or TOC_SOLVER)", file=sys.stderr)
        return EXIT_SOLVER
    # the query is written as translate writes it; each blocking formula
    # is written into the same set, one more line before the tail
    fs = toc_program(program, scope_mode=args.scope_mode, into=written_set(SMTLIB))
    visible = program.visible_atoms
    # the ranks printed are those of the visible atoms, as the model is
    owners = {LevelVar(owner).name: owner for owner in fs.level_bounds if owner in visible}
    found = 0
    while True:
        with tempfile.NamedTemporaryFile("w", suffix=".smt2", delete=False) as tmp:
            tmp.writelines(fs.formulas.text(fs))
            path = tmp.name
        try:
            response = run_solver(solver, path, args.timeout)
        except SolverInvocationError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_SOLVER
        finally:
            os.unlink(path)
        try:
            model = read_solver_model(response, fs)
        except SolverResponseError as exc:
            print(f"{exc} ({response.cause})", file=sys.stderr)
            return EXIT_MODEL
        if model is None:
            if found == 0:
                print("UNSATISFIABLE")
            return EXIT_OK
        atoms = sorted(model.true_atoms() & visible)
        ranks = {owners[name]: value for name, value in model.ints if name in owners}
        print(json.dumps({"model": atoms, "ranks": ranks}))
        found += 1
        if not args.all or found >= args.limit:
            return EXIT_OK
        _block_model(fs, model)


def _ranged(lo: int, hi=None):
    """An argparse type accepting integers in ``[lo, hi]``; ``hi`` may be a
    function, called when an argument is converted."""
    def integer(text: str) -> int:
        value = int(text)
        top = hi() if callable(hi) else hi
        if value < lo or (top is not None and value > top):
            span = f"at least {lo}" if top is None else f"in {lo}..{top}"
            raise argparse.ArgumentTypeError(f"{value} is not {span}")
        return value
    return integer


def _pool_size() -> int:
    from .fuzz import ATOM_POOL

    return len(ATOM_POOL)


# the longest solver timeout: poll takes its timeout in milliseconds as a
# C int, so a wait past 2,147,483 s would fail in subprocess, not here
MAX_SECONDS = 10 ** 6


def _seconds(text: str) -> float:
    """An argparse type accepting a positive number of seconds, at most
    ``MAX_SECONDS``."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"{text} is not a positive number of seconds")
    if not value <= MAX_SECONDS:
        raise argparse.ArgumentTypeError(f"{text} is more than {MAX_SECONDS} seconds")
    return value


def _add_scope_flag(p):
    p.add_argument("--global-scope", dest="scope_mode", action="store_const",
                   const="global", default="scc",
                   help="rank all defined atoms in one scope")


@functools.cache  # built on the first call, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asptoc",
        description="translate ground answer-set programs into tight ordered "
                    "completion formulas and check or solve them")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="emit the translation")
    p.add_argument("input", help="program file (.lp) or - for stdin")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=FORMATS, default="smtlib")
    p.add_argument("--no-strong", action="store_true",
                   help="drop the strong ranking constraints")
    p.add_argument("--vub-form", action="store_true",
                   help="encode upper bounds with explicit violation atoms")
    _add_scope_flag(p)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("check", help="verify the translation against the oracle")
    p.add_argument("input")
    p.add_argument("--max-atoms", type=_ranged(1), default=14)
    p.add_argument("--no-strong", action="store_true",
                   help="check the translation without the strong ranking constraints")
    p.add_argument("--vub-form", action="store_true")
    _add_scope_flag(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fuzz", help="random differential testing in all scope/vub/strong modes")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=_ranged(0), default=100)
    p.add_argument("--max-atoms", type=_ranged(2, _pool_size), default=7)
    p.add_argument("--max-rules", type=_ranged(0), default=10)
    p.add_argument("--props", type=_ranged(0), default=0, metavar="N",
                   help="additionally check N random aggregation propositions")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("solve", help="solve through an external SMT solver")
    p.add_argument("input")
    p.add_argument("--solver", help="solver command (default $TOC_SOLVER)")
    p.add_argument("--all", action="store_true",
                   help="enumerate models with blocking constraints")
    p.add_argument("--limit", type=_ranged(1), default=64,
                   help="model cap for --all")
    p.add_argument("--timeout", type=_seconds, metavar="SECONDS",
                   help=f"kill a solver call running longer, at most {MAX_SECONDS} "
                        "(default: no limit)")
    _add_scope_flag(p)
    p.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnsupportedFeatureError, ValidationError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
