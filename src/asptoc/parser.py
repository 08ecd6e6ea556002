"""Parser and renderer for the textual ground-program format.

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .program import (
    Literal,
    Origin,
    Polarity,
    Program,
    Rule,
    WeightedLiteral,
    program_of,
)

RESERVED_PREFIX = "__"
IDENT_RE = re.compile(r"[a-z][A-Za-z0-9_]*")


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


@dataclass(frozen=True)
class SourceProgram:
    text: str
    origin_name: str = "<string>"


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    col: int


_SYMBOLS = [(":-", "IF"), ("<=", "LEQ"), (".", "DOT"), (",", "COMMA"),
            ("{", "LBRACE"), ("}", "RBRACE"), ("=", "EQ"), ("|", "PIPE")]

# One alternative per token class, tried in this order at each position.
# Whitespace other than a newline advances the column by one per character;
# a comment advances nothing (the newline ending it resets the column).
_TOKEN_RE = re.compile("|".join(
    [r"(?P<NEWLINE>\n)", r"(?P<SPACE>[^\S\n]+)", r"(?P<COMMENT>%[^\n]*)"]
    + [f"(?P<{kind}>{re.escape(sym)})" for sym, kind in _SYMBOLS]
    + [r"(?P<DIRECTIVE>#[a-z]+)", r"(?P<INT>-?[0-9]+)",
       r"(?P<WORD>[A-Za-z_][A-Za-z0-9_]*)"]))


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        m = _TOKEN_RE.match(text, i)
        if m is None:
            if text[i] == "#":
                raise ParseError("malformed directive", line, col)
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        kind, value = m.lastgroup, m.group()
        i = m.end()
        if kind == "NEWLINE":
            line += 1
            col = 1
            continue
        if kind == "COMMENT":
            continue
        if kind == "WORD":
            kind = "NOT" if value == "not" else "IDENT"
        if kind != "SPACE":
            tokens.append(Token(kind, value, line, col))
        col += len(value)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.value!r}", tok.line, tok.col)
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def atom(self) -> str:
        tok = self.expect("IDENT")
        if tok.value.startswith(RESERVED_PREFIX):
            raise ParseError(f"prefix {RESERVED_PREFIX!r} is reserved", tok.line, tok.col)
        if not IDENT_RE.fullmatch(tok.value):
            raise ParseError(f"invalid atom name {tok.value!r}", tok.line, tok.col)
        return tok.value

    def literal(self) -> Literal:
        if self.peek().kind == "NOT":
            tok = self.next()
            if self.peek().kind == "NOT":
                raise ParseError("double negation cannot be written in source",
                                 tok.line, tok.col)
            return Literal(self.atom(), Polarity.NEGATIVE)
        return Literal(self.atom())

    def integer(self) -> tuple[int, Token]:
        tok = self.expect("INT")
        return int(tok.value), tok

    def bound(self, what: str) -> int:
        value, tok = self.integer()
        if value < 0:
            raise WeightError(f"negative {what} {value}", tok.line, tok.col)
        return value

    def conj_body(self) -> list[Literal]:
        literals = [self.literal()]
        while self.peek().kind == "COMMA":
            self.next()
            literals.append(self.literal())
        return literals

    def agg_body(self) -> tuple[list[tuple[Literal, int | None]], int, int | None]:
        lower = self.bound("lower bound")
        self.expect("LEQ")
        self.expect("LBRACE")
        wlits: list[tuple[Literal, int | None]] = []
        if self.peek().kind != "RBRACE":
            while True:
                lit = self.literal()
                weight = None
                if self.peek().kind == "EQ":
                    self.next()
                    value, tok = self.integer()
                    if value < 0:
                        raise WeightError(f"negative weight {value}", tok.line, tok.col)
                    weight = value
                wlits.append((lit, weight))
                if self.peek().kind != "COMMA":
                    break
                self.next()
        self.expect("RBRACE")
        upper = None
        if self.peek().kind == "LEQ":
            self.next()
            upper = self.bound("upper bound")
        return wlits, lower, upper

    def statement(self):
        tok = self.peek()
        if tok.kind == "DIRECTIVE":
            return self.directive()
        return self.rule()

    def directive(self):
        tok = self.next()
        if tok.value == "#hide":
            atoms = [self.atom()]
            while self.peek().kind == "COMMA":
                self.next()
                atoms.append(self.atom())
            self.expect("DOT")
            return ("hide", atoms)
        if tok.value == "#atom":
            name = self.atom()
            self.expect("DOT")
            return ("atom", [name])
        raise ParseError(f"unknown directive {tok.value}", tok.line, tok.col)

    def rule(self):
        head = None
        choice = False
        tok = self.peek()
        if tok.kind == "LBRACE":
            self.next()
            head = self.atom()
            self.expect("RBRACE")
            choice = True
        elif tok.kind == "IDENT":
            head = self.atom()
            if self.peek().kind == "PIPE":
                raise UnsupportedFeatureError("disjunctive heads are not supported",
                                              self.peek().line, self.peek().col)
        elif tok.kind not in ("IF",):
            raise self.error(f"expected rule, found {tok.value!r}")

        body_literals: list[Literal] = []
        agg = None
        if self.peek().kind == "IF":
            self.next()
            if self.peek().kind == "INT":
                agg = self.agg_body()
            elif self.peek().kind != "DOT":
                body_literals = self.conj_body()
        self.expect("DOT")

        if choice and agg is not None:
            raise UnsupportedFeatureError(
                "choice heads with aggregate bodies are not supported",
                tok.line, tok.col)
        return ("rule", _canonical_rule(head, choice, body_literals, agg))


def _canonical_rule(head, choice, conj, agg) -> Rule:
    if agg is None:
        body = [WeightedLiteral(lit) for lit in dict.fromkeys(conj)]
        lower = len(body)
        if head is None:
            origin = Origin.CONSTRAINT
        elif choice:
            origin = Origin.CHOICE
        elif body:
            origin = Origin.NORMAL
        else:
            origin = Origin.FACT
        if choice:
            body.append(WeightedLiteral(Literal(head, Polarity.DOUBLE_NEGATED)))
            lower += 1
        return Rule(head, tuple(body), lower, None, choice, origin)

    wlits, lower, upper = agg
    weighted = any(w is not None for _, w in wlits)
    if weighted:
        merged: dict[Literal, int] = {}  # first-seen order
        for lit, w in wlits:
            merged[lit] = merged.get(lit, 0) + (1 if w is None else w)
        body = tuple(WeightedLiteral(lit, w) for lit, w in merged.items() if w > 0)
    else:
        body = tuple(WeightedLiteral(lit) for lit in dict.fromkeys(lit for lit, _ in wlits))
    if head is None:
        origin = Origin.CONSTRAINT
    elif upper is not None:
        origin = Origin.CONVEX
    elif weighted and body:
        origin = Origin.WEIGHT
    else:
        origin = Origin.CARDINALITY
    return Rule(head, body, lower, upper, False, origin)


def parse_program(src: SourceProgram | str) -> Program:
    """Parse source text into a canonical :class:`Program`."""
    if isinstance(src, str):
        src = SourceProgram(src)
    tokens = _tokenize(src.text)
    parser = _Parser(tokens)
    rules = []
    hidden: set[str] = set()
    declared: set[str] = set()
    while parser.peek().kind != "EOF":
        kind, payload = parser.statement()
        if kind == "rule":
            rules.append(payload)
        elif kind == "hide":
            hidden.update(payload)
            declared.update(payload)
        elif kind == "atom":
            declared.update(payload)
    return program_of(rules, extra_atoms=declared, hidden=hidden)


def _render_literal(lit: Literal) -> str:
    if lit.polarity is Polarity.NEGATIVE:
        return f"not {lit.atom}"
    if lit.polarity is Polarity.DOUBLE_NEGATED:
        raise ValueError("double negation has no source form")
    return lit.atom


def _render_rule(rule: Rule) -> str:
    body = rule.body
    if rule.choice:
        body = tuple(wl for wl in body
                     if not (wl.literal.polarity is Polarity.DOUBLE_NEGATED
                             and wl.literal.atom == rule.head))
    head = ""
    if rule.head is not None:
        head = "{%s}" % rule.head if rule.choice else rule.head

    if rule.origin in (Origin.NORMAL, Origin.CHOICE, Origin.FACT) or (
            rule.origin is Origin.CONSTRAINT and rule.upper is None
            and all(wl.weight == 1 for wl in body)
            and rule.lower == len(body)):
        parts = ", ".join(_render_literal(wl.literal) for wl in body)
        if not parts:
            return f"{head}."
        sep = " :- " if head else ":- "
        return f"{head}{sep}{parts}."

    bare = all(wl.weight == 1 for wl in body) and rule.origin in (
        Origin.CARDINALITY, Origin.CONVEX, Origin.CONSTRAINT)
    items = []
    for wl in body:
        text = _render_literal(wl.literal)
        items.append(text if bare else f"{text}={wl.weight}")
    inner = ", ".join(items)
    agg = f"{rule.lower} <= {{ {inner} }}" if items else f"{rule.lower} <= {{ }}"
    if rule.upper is not None:
        agg += f" <= {rule.upper}"
    sep = " :- " if head else ":- "
    return f"{head}{sep}{agg}."


def render_program(program: Program) -> str:
    """Render a program; ``parse_program(render_program(p))`` is identity."""
    lines = [_render_rule(rule) for rule in program.rules]
    mentioned = set()
    for rule in program.rules:
        if rule.head is not None:
            mentioned.add(rule.head)
        mentioned.update(rule.body_atoms())
    for atom in program.signature:
        if atom.name not in mentioned:
            lines.append(f"#atom {atom.name}.")
    hidden = sorted(a.name for a in program.signature if not a.visible)
    if hidden:
        lines.append("#hide " + ", ".join(hidden) + ".")
    return "\n".join(lines) + ("\n" if lines else "")
