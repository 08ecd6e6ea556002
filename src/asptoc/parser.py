"""Parser for the textual ground-program format.

Grammar (statements end with ".", comments run from "%" to end of line)::

    rule      := [head] [":-" body] "."
    head      := atom | "{" atom "}"
    body      := conj | agg
    conj      := lit ("," lit)*
    lit       := ["not"] atom
    agg       := INT "<=" "{" [wlit ("," wlit)*] "}" ["<=" INT]
    wlit      := lit ["=" INT]
    directive := "#hide" atom ("," atom)* "." | "#atom" atom "."

Identifiers match ``[a-z][A-Za-z0-9_]*``; the prefix ``__`` is reserved
for generated atoms and rejected, as is the keyword ``not``.  Aggregates
without any ``=INT`` are cardinality conditions (implicit weight 1, set
semantics, duplicates collapse); with weights, duplicate literals merge
by summing and zero-weight literals are dropped.  A choice head combined
with an aggregate body is not part of the supported fragment.

Every rule is built by one function, ``_canonical_rule``: a conjunction
is the unweighted aggregate whose bound is its count of distinct
literals, so ``a :- b, c.`` and ``a :- 2 <= { b, c }.`` parse to one
rule.  The rule keeps no source spelling.

Parsing splits the text rather than scanning it: comments are cut out,
punctuation that is always a token of its own is spaced out, and
``str.split`` yields chunks.  Each distinct chunk is classified once, by
a dict lookup or its first character; a rare chunk of several tokens
(``x-1``) is split by ``_SCAN``, the one definition of a token.  A flat
recursive descent walks an index over the token and kind lists.  No
position is kept per token.  A rejected input re-scans the text for the
offending token's offset and turns it into ``line:col`` (tabs and
carriage returns count one column each); a character no token starts
with is reported ahead of any grammar error.
"""

from __future__ import annotations

import re

from .program import (
    Polarity,
    Program,
    Rule,
    WeightedLiteral,
    program_of,
)

RESERVED_PREFIX = "__"


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class WeightError(ParseError):
    pass


class UnsupportedFeatureError(ParseError):
    pass


# One match per token; a comment matches with its group empty, whitespace
# is skipped by the search, and ``\S`` takes any character no token starts.
_TOKEN = r":-|<=|#[a-z]+|-?[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\S"
_SCAN = re.compile(rf"%[^\n]*|({_TOKEN})")
_ONE_TOKEN = re.compile(_TOKEN)  # by ``fullmatch``
_KINDS = {":-": "IF", "<=": "LEQ", ".": "DOT", ",": "COMMA", "{": "LBRACE",
          "}": "RBRACE", "=": "EQ", "|": "PIPE", "not": "NOT", "-": "CHAR", "#": "CHAR"}
# Kind by first character: ATOM is an identifier that is a legal atom name,
# NAME one the grammar rejects; CHAR is a character no token starts with.
_FIRST = {**dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "ATOM"),
          **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ_", "NAME"),
          **dict.fromkeys("0123456789-", "INT"), "#": "DIRECTIVE"}


class _Kinds(dict):
    """The kind of each distinct chunk, worked out on first sight; None
    for a chunk that holds more than one token."""

    def __missing__(self, chunk):
        kind = None
        if _ONE_TOKEN.fullmatch(chunk):
            kind = _KINDS.get(chunk) or _FIRST.get(chunk[0], "CHAR")
        self[chunk] = kind
        return kind


def _tokens(text: str) -> tuple[list[str], list[str]]:
    """The tokens ``_SCAN`` finds in ``text``, and their kinds.  Each
    character or pair spaced out here is always a whole token and no token
    holds whitespace, so ``split`` cuts only where the scanner does; a
    chunk it leaves whole is one token or is split again by the scanner."""
    if "%" in text:
        text = re.sub(r"%[^\n]*", "", text)
    for char in ".,{}|=":
        text = text.replace(char, f" {char} ")
    # only a source "<=" reads "< =" now; a source "< =" reads "<  ="
    chunks = text.replace("< =", "<=").replace(":-", " :- ").split()
    kind_of = _Kinds()
    kinds = list(map(kind_of.__getitem__, chunks))
    if None in kind_of.values():
        chunks = [tok for chunk, kind in zip(chunks, kinds)
                  for tok in ([chunk] if kind else _SCAN.findall(chunk))]
        kinds = list(map(kind_of.__getitem__, chunks))
    return chunks, kinds


class _Reject(Exception):
    """A grammar error at a token index, located by :func:`parse_program`."""


def _position(text: str, k: int) -> tuple[int, int]:
    """Line and column of token ``k``.  Past the last token is EOF, which
    a comment ending the text without a newline places at its ``%``."""
    starts = [m.start() for m in _SCAN.finditer(text) if m.group(1)]
    if k < len(starts):
        offset = starts[k]
    else:
        offset = text.find("%", text.rfind("\n") + 1)
        if offset < 0:
            offset = len(text)
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _expected(toks, kinds, i, kind) -> _Reject:
    if kind == "IDENT" and kinds[i] == "NAME":
        if toks[i].startswith(RESERVED_PREFIX):
            return _Reject(ParseError, f"prefix {RESERVED_PREFIX!r} is reserved", i)
        return _Reject(ParseError, f"invalid atom name {toks[i]!r}", i)
    return _Reject(ParseError, f"expected {kind}, found {toks[i]!r}", i)


def _literal(toks, kinds, i):
    """A literal's plain key ``(atom, negated)``; the rule builds one
    ``WeightedLiteral`` per distinct key."""
    negated = kinds[i] == "NOT"
    if negated:
        if kinds[i + 1] == "NOT":
            raise _Reject(ParseError, "double negation cannot be written in source", i)
        i += 1
    if kinds[i] != "ATOM":
        raise _expected(toks, kinds, i, "IDENT")
    return (toks[i], negated), i + 1


def _integer(toks, kinds, i, what):
    if kinds[i] != "INT":
        raise _expected(toks, kinds, i, "INT")
    try:
        value = int(toks[i])
    except ValueError:  # more digits than int() converts
        digits = len(toks[i].lstrip("-"))
        raise _Reject(ParseError, f"integer too long ({digits} digits)", i) from None
    if value < 0:
        raise _Reject(WeightError, f"negative {what} {value}", i)
    return value


def _aggregate(toks, kinds, i):
    lower = _integer(toks, kinds, i, "lower bound")
    for kind in ("LEQ", "LBRACE"):
        i += 1
        if kinds[i] != kind:
            raise _expected(toks, kinds, i, kind)
    i += 1
    keys: list[tuple[str, bool]] = []
    weights: list[int] = []
    weighted = False
    if kinds[i] != "RBRACE":
        while True:
            lit, i = _literal(toks, kinds, i)
            keys.append(lit)
            if kinds[i] == "EQ":
                weights.append(_integer(toks, kinds, i + 1, "weight"))
                weighted = True
                i += 2
            else:
                weights.append(1)
            if kinds[i] != "COMMA":
                break
            i += 1
    if kinds[i] != "RBRACE":
        raise _expected(toks, kinds, i, "RBRACE")
    upper = None
    if kinds[i + 1] == "LEQ":
        upper = _integer(toks, kinds, i + 2, "upper bound")
        i += 2
    return (keys, weights if weighted else None, lower, upper), i + 1


def _rule(toks, kinds, i):
    start = i
    head = None
    choice = kinds[i] == "LBRACE"
    if choice:
        i += 1
    if choice or kinds[i] in ("ATOM", "NAME"):
        if kinds[i] != "ATOM":
            raise _expected(toks, kinds, i, "IDENT")
        head = toks[i]
        i += 1
        if choice:
            if kinds[i] != "RBRACE":
                raise _expected(toks, kinds, i, "RBRACE")
            i += 1
        elif kinds[i] == "PIPE":
            raise _Reject(UnsupportedFeatureError, "disjunctive heads are not supported", i)
    elif kinds[i] != "IF":
        raise _Reject(ParseError, f"expected rule, found {toks[i]!r}", i)

    conj: list[tuple[str, bool]] = []
    agg = None
    if kinds[i] == "IF":
        i += 1
        if kinds[i] == "INT":
            agg, i = _aggregate(toks, kinds, i)
        elif kinds[i] != "DOT":
            lit, i = _literal(toks, kinds, i)
            conj.append(lit)
            while kinds[i] == "COMMA":
                lit, i = _literal(toks, kinds, i + 1)
                conj.append(lit)
    if kinds[i] != "DOT":
        raise _expected(toks, kinds, i, "DOT")
    if choice and agg is not None:
        raise _Reject(UnsupportedFeatureError,
                      "choice heads with aggregate bodies are not supported", start)
    return _canonical_rule(head, choice, *(agg or (conj, None, None, None))), i + 1


def _directive(toks, kinds, i, hidden: set, declared: set) -> int:
    name = toks[i]
    if name not in ("#hide", "#atom"):
        raise _Reject(ParseError, f"unknown directive {name}", i)
    while True:
        i += 1
        if kinds[i] != "ATOM":
            raise _expected(toks, kinds, i, "IDENT")
        declared.add(toks[i])
        if name == "#hide":
            hidden.add(toks[i])
        i += 1
        if name == "#atom" or kinds[i] != "COMMA":
            break
    if kinds[i] != "DOT":
        raise _expected(toks, kinds, i, "DOT")
    return i + 1


_POLARITY = (Polarity.POSITIVE, Polarity.NEGATIVE)  # by ``negated``
_new = tuple.__new__


def _canonical_rule(head, choice, keys, weights, lower, upper) -> Rule:
    """The one rule builder: ``(atom, negated)`` keys form a set without
    ``weights`` and sum by key with them; a conjunction passes no
    ``lower``, which becomes its count of distinct literals."""
    # the checked constructors only reject negative weights and bounds,
    # which ``_integer`` has already rejected, so the nodes are built bare
    if weights is None:
        body = [_new(WeightedLiteral, (atom, _POLARITY[negated], 1))
                for atom, negated in dict.fromkeys(keys)]
    else:
        merged: dict[tuple[str, bool], int] = {}  # first-seen order
        for key, w in zip(keys, weights):
            merged[key] = merged.get(key, 0) + w
        body = [_new(WeightedLiteral, (atom, _POLARITY[negated], w))
                for (atom, negated), w in merged.items() if w > 0]
    if lower is None:
        lower = len(body)
    if choice:
        body.append(_new(WeightedLiteral, (head, Polarity.DOUBLE_NEGATED, 1)))
        lower += 1
    return _new(Rule, (head, tuple(body), lower, upper))


def parse_program(text: str) -> Program:
    """Parse source text into a canonical :class:`Program`."""
    toks, kinds = _tokens(text)
    toks.append("")
    kinds.append("EOF")
    rules = []
    hidden: set[str] = set()
    declared: set[str] = set()
    i = 0
    try:
        while kinds[i] != "EOF":
            if kinds[i] == "DIRECTIVE":
                i = _directive(toks, kinds, i, hidden, declared)
            else:
                rule, i = _rule(toks, kinds, i)
                rules.append(rule)
    except _Reject as err:
        # the first character no token starts with outranks any grammar error
        if "CHAR" in kinds:
            k = kinds.index("CHAR")
            cls = ParseError
            message = ("malformed directive" if toks[k] == "#"
                       else f"unexpected character {toks[k]!r}")
        else:
            cls, message, k = err.args
        raise cls(message, *_position(text, k)) from None
    return program_of(rules, extra_atoms=declared, hidden=hidden)

