"""SMT-LIB2 serialization (QF_LIA) and solver-response parsing.

Propositional atoms become Bool constants and ranking variables Int
constants, named by the symbol naming of :mod:`asptoc.formulas`; a set with
ranking variables also declares ``__z`` and asserts it zero.
The translator keeps a sum only where it is a real aggregate (a sum
that amounts to a connective arrives as that connective), and each
pseudo-Boolean sum turns into a sum of conditional ``ite`` terms, so any
linear-integer-arithmetic solver can consume the output; difference atoms
keep their subtraction shape for solvers that specialize them.  Output is
byte-deterministic for a given formula set and option choice.

One writer, ``Written``, writes every formula's text, in one of two
formats (``FORMATS``): ``SMTLIB`` and ``DEBUG`` each hold the text
around a formula's name and term, the renderer of the declarations and
the lines after the last formula.  ``asptoc translate`` and ``solve``
translate into a ``written_set``, whose ``Written`` writes each formula
as the translator adds it and keeps only the text, joined
``WRITE_CHUNK`` formulas to a string; ``emit_smtlib`` replays a finished
list set's formulas through one.  ``Written.text`` then gives the whole
text: the declarations, rendered from the set's tables once its formulas
are written, the formulas, then the tail.  In a written set the ranking
scaffolding of a ranked scope is written in one call from fixed
templates (``Written.scaffold``), with no formula built; a list set
builds it (``mk_bounds``, ``mk_dep_gap``), so the tests hold the
templates to ``to_sexpr`` of those formulas.  Validation happens in the
one walk that writes each formula or template: every atom and variable
resolves through the set's symbol table (``FormulaSet.symbols``), which
only declarations grow.  A lookup miss means the formula reads an
undeclared symbol; only then does :func:`asptoc.formulas.check_declared`
walk that formula, built for it, to name them.
"""

from __future__ import annotations

import re
import warnings

from .formulas import (
    And,
    Diff,
    FalseF,
    FormulaSet,
    Iff,
    Implies,
    LevelVar,
    Not,
    Or,
    PB,
    TrueF,
    Var,
    Z,
    check_declared,
    scaffold,
)
from .node import Node

# lines joined to one string of text: one string per line costs a header
# each, and one join of the whole text would hold it twice
WRITE_CHUNK = 1024


class SolverResponseError(Exception):
    def __init__(self, message: str, line: str = ""):
        super().__init__(f"{message}: {line!r}" if line else message)
        self.line = line


def _int(k: int) -> str:
    return str(k) if k >= 0 else f"(- {-k})"


def to_sexpr(formula, table) -> str:
    """One formula as an SMT-LIB term.  Symbols resolve through ``table``
    (see ``FormulaSet.symbols``), raising ``KeyError`` on a miss.

    One recursive walk, testing the types in the order of how often the
    translator writes them.  A ``Var`` operand of a connective is resolved
    in place rather than by a call of its own, a sum is one list of
    ``ite`` terms (``0`` when empty, the term itself when alone), and a
    two-bound sum is the conjunction of its two checks.
    """
    t = type(formula)
    if t is Iff or t is Implies:
        left, right = formula
        left = table[left.atom.name] if type(left) is Var else to_sexpr(left, table)
        right = table[right.atom.name] if type(right) is Var else to_sexpr(right, table)
        return f"(= {left} {right})" if t is Iff else f"(=> {left} {right})"
    if t is Diff:
        lhs, rhs, k = formula
        return f"(<= (- {table[lhs.name]} {table[rhs.name]}) {_int(k)})"
    if t is And or t is Or:
        subs = " ".join([table[s.atom.name] if type(s) is Var else to_sexpr(s, table)
                         for s in formula.subs])
        return f"(and {subs})" if t is And else f"(or {subs})"
    if t is Not:
        sub = formula.sub
        return f"(not {table[sub.atom.name] if type(sub) is Var else to_sexpr(sub, table)})"
    if t is PB:
        terms, lower, upper = formula
        parts = [f"(ite (not {table[atom.name]}) {coef} 0)" if negated
                 else f"(ite {table[atom.name]} {coef} 0)" for coef, atom, negated in terms]
        total = parts[0] if len(parts) == 1 else "(+ " + " ".join(parts) + ")" if parts else "0"
        if upper is None:
            return f"(<= {_int(lower)} {total})"
        if lower is None:
            return f"(<= {total} {_int(upper)})"
        return f"(and (<= {_int(lower)} {total}) (<= {total} {_int(upper)}))"
    if t is Var:
        return table[formula.atom.name]
    if t is TrueF:
        return "true"
    if t is FalseF:
        return "false"
    raise TypeError(f"not a formula: {formula!r}")


def smtlib_header(fs: FormulaSet) -> list:
    """The lines before the first assertion: the logic, one declaration
    per symbol, sorted by kind, and ``z`` pinned to zero."""
    lines = ["(set-logic QF_LIA)\n"]
    for _, name in sorted(fs.base_atoms.items()):
        lines.append(f"(declare-const {name} Bool)\n")
    for name in sorted(fs.aux_atoms.values()):
        lines.append(f"(declare-const {name} Bool)\n")
    if fs.level_bounds:
        # only differences matter, so z is fixed at 0
        lines.append(f"(declare-const {Z.name} Int)\n")
        for owner in sorted(fs.level_bounds):
            lines.append(f"(declare-const {LevelVar(owner).name} Int)\n")
        lines.append(f"(assert (= {Z.name} 0))\n")
    return lines


def debug_header(fs: FormulaSet) -> list:
    """The debug format's declaration lines, sorted by kind."""
    lines = []
    for _, name in sorted(fs.base_atoms.items()):
        lines.append(f"(base {name})\n")
    for name in sorted(fs.aux_atoms.values()):
        lines.append(f"(aux {name})\n")
    for owner in sorted(fs.level_bounds):
        lo, hi = fs.level_bounds[owner]
        lines.append(f"(level {LevelVar(owner).name} {lo} {hi})\n")
    return lines


class Format(Node, fields="start mid end header tail"):
    """An output format.  A formula named ``name`` is written as the line
    ``start + name + mid + term + end``; ``header(fs)`` gives the lines of
    the set's declarations, which come first, and ``tail`` the lines after
    the last formula."""

    __slots__ = ()


SMTLIB = Format("; ", "\n(assert ", ")\n", smtlib_header, ("(check-sat)\n", "(get-model)\n"))
DEBUG = Format("(formula ", " ", ")\n", debug_header, ())
FORMATS = {"smtlib": SMTLIB, "debug": DEBUG}


class Written:
    """The formulas of a ``written_set``, kept as text only: each
    ``(name, formula)`` appended is written at once as its line in
    ``format``, its term resolved against the symbols declared so far, and
    the lines, one per formula, are joined ``WRITE_CHUNK`` to a string.
    A lookup miss means the formula reads a symbol the table lacks; it
    raises ``ValidationError`` in ``validate``'s wording, naming the
    formula's undeclared symbols.

    A ranked scope's scaffolding (``scaffold``) is written from fixed
    templates in the same frame and builds no formula: each symbol a
    template writes is looked up in ``symbols``, and the text is that of
    the formulas ``mk_bounds`` and ``mk_dep_gap`` build, which are built
    only on a lookup miss, to name the undeclared symbols."""

    # the format's frame is copied to slots, read once per formula
    __slots__ = ("format", "start", "mid", "end", "symbols", "chunks", "lines")

    def __init__(self, fmt: Format, symbols: dict):
        self.format = fmt
        self.start, self.mid, self.end = fmt.start, fmt.mid, fmt.end
        self.symbols = symbols
        self.chunks: list = []
        self.lines: list = []

    def __len__(self):
        """The number of formulas written."""
        return len(self.chunks) * WRITE_CHUNK + len(self.lines)

    def _flush(self):
        """Join the first ``WRITE_CHUNK`` lines to a chunk; the few after
        them wait for the next."""
        self.chunks.append("".join(self.lines[:WRITE_CHUNK]))
        del self.lines[:WRITE_CHUNK]

    def append(self, pair):
        name, formula = pair
        try:
            line = f"{self.start}{name}{self.mid}{to_sexpr(formula, self.symbols)}{self.end}"
        except KeyError:
            check_declared((pair,), self.symbols)
            raise
        lines = self.lines
        lines.append(line)
        if len(lines) >= WRITE_CHUNK:
            self._flush()

    def scaffold(self, level: dict, holds: dict, edges: dict):
        """The text of ``formulas.scaffold(level, holds, edges)``; on a
        lookup miss its templates are built in order, and the first that
        reads an undeclared symbol names them."""
        table, lines = self.symbols, self.lines
        start, mid, end = self.start, self.mid, self.end
        cap = len(level) + 1  # positive, so -cap is written (- cap)
        try:
            z = table[Z.name]
            for owner, x in level.items():
                v, h = table[x.name], table[holds[owner].atom.name]
                name = f"{start}bounds:{owner}:"
                below = f"(<= (- {z} {v}) (- "
                lines += (f"{name}min{mid}{below}1)){end}",
                          f"{name}max{mid}(<= (- {v} {z}) {cap}){end}",
                          f"{name}false{mid}(= (not {h}) {below}{cap}))){end}")
                if len(lines) >= WRITE_CHUNK:
                    self._flush()
            for a, arcs in edges.items():
                xa = table[level[a].name]
                for b, edge in arcs.items():
                    h, xb = table[holds[b].atom.name], table[level[b].name]
                    arc = f"{a}:{b}{mid}(= "
                    before = f" (and {h} (<= (- {xb} {xa}) (- "
                    lines.append(f"{start}dep:{arc}{table[edge[0].atom.name]}{before}1)))){end}")
                    if len(edge) > 1:
                        lines.append(f"{start}gap:{arc}{table[edge[1].atom.name]}{before}2)))){end}")
                    if len(lines) >= WRITE_CHUNK:
                        self._flush()
        except KeyError:
            for pairs in scaffold(level, holds, edges):
                check_declared(pairs, table)
            raise

    def text(self, fs: FormulaSet):
        """The whole text of ``fs``, whose formulas these are: its
        declarations, the formulas written, then the format's tail, as
        strings of at most ``WRITE_CHUNK`` lines, the last with the tail
        added.  Each header string is joined as it is read, so the header
        is held once."""
        header = self.format.header(fs)
        for i in range(0, len(header), WRITE_CHUNK):
            yield "".join(header[i:i + WRITE_CHUNK])
        yield from self.chunks
        yield "".join(self.lines + list(self.format.tail))


def written_set(fmt: Format) -> FormulaSet:
    """An empty formula set that keeps no formula: each one added is
    written as its line in ``fmt`` into ``formulas``, a ``Written``, so
    every symbol it reads must be declared before it is added; its ranking
    scaffolding is written from templates in the same format.
    ``formulas.text(fs)`` gives the whole text once translation ends."""
    symbols: dict = {}
    return FormulaSet(Written(fmt, symbols), symbols=symbols)


def emit_smtlib(fs: FormulaSet, *, model: bool = False) -> str:
    """The SMT-LIB text of the list set ``fs``, its formulas written in
    order through a ``Written`` over its symbols; ``model`` keeps the
    tail's ``(get-model)``."""
    written = Written(SMTLIB, fs.symbols)
    for pair in fs.formulas:
        written.append(pair)
    text = "".join(written.text(fs))
    return text if model else text.removesuffix("(get-model)\n")


_DEFINE_RE = re.compile(
    r"\(\s*define-fun\s+([A-Za-z_][A-Za-z0-9_]*|\|[^|\\]*\|)\s*\(\s*\)\s*"
    r"(Bool|Int)\s+(true|false|\d+|\(\s*-\s*\d+\s*\))\s*\)")


def read_solver_model(text: str, fs: FormulaSet):
    """Parse a solver response to the emission of ``fs``; ``None`` for unsat.

    Accepts ``(define-fun name () Bool true|false)`` and the Int analogue
    with plain or ``(- n)`` literals.  A Bool symbol maps to its key (a
    base atom's name, an auxiliary atom's symbol), an Int symbol to itself,
    both read off the declarations of ``fs``; a symbol ``fs`` does not
    declare with that sort is dropped with a warning, and omitted declared
    Booleans default to false.
    """
    stripped = text.strip()
    if not stripped:
        raise SolverResponseError("empty solver response")
    first = stripped.split(None, 1)[0]
    if first == "unsat":
        return None
    if first != "sat":
        raise SolverResponseError("response is neither sat nor unsat",
                                  stripped.splitlines()[0])

    from .dlcheck import DLModel

    bools = {sym: name for name, sym in fs.base_atoms.items()}
    bools.update((sym, sym) for sym in fs.aux_atoms.values())
    ranked = [Z, *map(LevelVar, fs.level_bounds)] if fs.level_bounds else []
    keys = {"Bool": bools, "Int": {v.name: v.name for v in ranked}}
    props = dict.fromkeys(bools.values(), False)
    ints: dict = {}
    for pos in [m.start() for m in re.finditer(r"\(\s*define-fun", stripped)]:
        m = _DEFINE_RE.match(stripped, pos)
        if not m:
            line = stripped[pos:].splitlines()[0]
            raise SolverResponseError("malformed model entry", line)
        symbol, sort, value = m.groups()
        key = keys[sort].get(symbol)
        if key is None:
            warnings.warn(f"ignoring unknown model symbol {symbol}")
        elif sort == "Bool":
            props[key] = value == "true"
        else:
            inner = value.strip("() \t\n")
            ints[key] = -int(inner[1:].strip()) if inner.startswith("-") else int(inner)
    return DLModel(tuple(sorted(props.items())), tuple(sorted(ints.items())))


class SolverInvocationError(Exception):
    pass


class SolverOutput(str):
    """A solver's stdout, the only text read; ``cause`` gives its exit
    status and last stderr line, to explain a response that is unreadable."""

    def __new__(cls, stdout: str, status: int, stderr: str):
        self = super().__new__(cls, stdout)
        tail = stderr.rstrip().rpartition("\n")[2]
        self.cause = f"solver exit status {status}, " + (f"stderr: {tail}" if tail else "no stderr")
        return self


def run_solver(command: str, path: str, timeout: float | None = None) -> SolverOutput:
    """Run an external solver command on a file; stdout is authoritative.
    A solver still running after ``timeout`` seconds is killed."""
    import shlex
    import subprocess

    argv = shlex.split(command) + [path]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except OSError as exc:
        raise SolverInvocationError(f"cannot run {command!r}: {exc}") from exc
    except subprocess.TimeoutExpired as exc:
        raise SolverInvocationError(
            f"solver {command!r} timed out after {timeout} s") from exc
    return SolverOutput(proc.stdout, proc.returncode, proc.stderr)
