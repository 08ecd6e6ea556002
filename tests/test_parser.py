"""Grammar coverage, diagnostics, and the parse/render round trip."""

import itertools
import pathlib
import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from asptoc.fuzz import fuzz_corpus
from asptoc.parser import (
    _FIRST,
    _KINDS,
    _SCAN,
    ParseError,
    UnsupportedFeatureError,
    WeightError,
    _tokens,
    parse_program,
)
from asptoc.program import Polarity, Rule, WeightedLiteral
from references import render_program

GOLDEN = pathlib.Path(__file__).parent / "golden"

# Pieces of the error corpus: every token class, whitespace that moves the
# column differently, and the inputs the parser refuses.
ERROR_FRAGMENTS = (
    "a", "b", "q7", "x_Y", "not", "not not", ":-", "<=", ".", ",", "{", "}",
    "=", "|", "#hide", "#atom", "#", "#1", "#Hide", "#foo", "0", "2", "12",
    "-1", "-x", "=-2", "-", "__a", "_b", "Ab", "\u00e9", "\u03bbx", "a\u00e4",
    ":", "<", "?", "@", "%c", "% c\n", " ", "  ", "\t", "\r", "\n", "\r\n",
    "\x0b", "\xa0",
)
ERROR_SNIPPETS = (
    "a :- b, not c.", "{a} :- 1 <= {b}.", "a | b :- c.", "a :- 1 <= { b=-2 }.",
    "a :- -1 <= { b }.", "a :- 1 <= { b } <= -3.", "a :- not not b.",
    "#hide a, b.", "#atom q.", "a :- 2 <= { b, not c=3 } <= 4.", ":- a, b.",
    "{a}.", "a.", "__x :- b.", "Ab :- c.", "a :- b % trailing", "a :- { b } <= 2.",
    "b :- 0 <= { }.", "c :- 3 <= { a=2, a=1, d=0 }.",
)
ERROR_SEPARATORS = ("", " ", " ", "\n", "\t", "\r\n", "\n% note\n")


def error_corpus(seed: int = 7, count: int = 2000) -> list[str]:
    """Seeded strings that reach every diagnostic: fragment soup, mutated
    programs, and programs ending in a comment without a newline."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        form = rng.random()
        if form < 0.4:
            parts = [rng.choice(ERROR_FRAGMENTS) for _ in range(rng.randint(1, 10))]
            corpus.append("".join(p + rng.choice(("", " ")) for p in parts))
            continue
        text = "".join(rng.choice(ERROR_SNIPPETS) + rng.choice(ERROR_SEPARATORS)
                       for _ in range(rng.randint(1, 4)))
        if form < 0.8:
            at = rng.randint(0, len(text))
            if rng.random() < 0.5:
                text = text[:at] + rng.choice(ERROR_FRAGMENTS) + text[at:]
            else:
                text = text[:at] + text[at + rng.randint(1, 4):]
        else:
            text += rng.choice(("", "\n")) + "% end without newline"
        corpus.append(text)
    return corpus


def parse_outcome(text: str) -> str:
    """``ok <rule count>`` or ``<class> <line>:<col> <message>``."""
    try:
        program = parse_program(text)
    except ParseError as err:
        return f"{type(err).__name__} {err.line}:{err.col} {err.message}"
    return f"ok {len(program.rules)}"


class TestGrammar:
    def test_normal_rule(self):
        p = parse_program("a :- b, not c.")
        (rule,) = p.rules
        assert rule.head == "a" and rule.upper is None
        assert rule.pos_atoms() == ("b",)
        assert [w.atom for w in rule.literals(Polarity.NEGATIVE)] == ["c"]
        assert rule.lower == 2

    def test_weight_rule(self):
        p = parse_program("a :- 7 <= { b1=7, b2=5, b3=3, b4=2, b5=1 }.")
        (rule,) = p.rules
        assert rule.lower == 7 and rule.upper is None
        assert [w.weight for w in rule.body] == [7, 5, 3, 2, 1]

    def test_convex_rule(self):
        p = parse_program("a :- 2 <= { b1, b2, b3, b4 } <= 3.")
        (rule,) = p.rules
        assert (rule.lower, rule.upper) == (2, 3)
        assert all(w.weight == 1 for w in rule.body)

    def test_fact_choice_constraint(self):
        p = parse_program("a. {b} :- a. :- 2 <= { a, b }.")
        fact, choice, constraint = p.rules
        assert fact == Rule("a", (), 0)
        assert choice.lower == 2 and choice.upper is None
        assert choice.body[-1] == WeightedLiteral("b", Polarity.DOUBLE_NEGATED)
        assert [w.weight for w in choice.body] == [1, 1]
        assert constraint.head is None and constraint.lower == 2
        assert [w.weight for w in constraint.body] == [1, 1]

    @pytest.mark.parametrize("src", ["a :- b, c.", "a :- 2 <= { b, c }.",
                                     "a :- 2 <= { b=1, c=1 }."])
    def test_rule_shape_does_not_depend_on_spelling(self, src):
        p = parse_program(src)
        assert p.rules == (Rule("a", (WeightedLiteral("b"), WeightedLiteral("c")), 2),)
        assert render_program(p) == "a :- b, c.\n"

    def test_directives(self):
        p = parse_program("a :- b.\n#atom q.\n#hide b, q.")
        assert set(p.atom_names) == {"a", "b", "q"}
        assert p.visible_atoms == {"a"}

    def test_comments_and_whitespace(self):
        p = parse_program("% intro\na :- b. % trailing\n\n  b.\n")
        assert len(p.rules) == 2

    def test_cardinality_set_semantics(self):
        p = parse_program("a :- 2 <= { b, b }.")
        (rule,) = p.rules
        assert len(rule.body) == 1 and rule.lower == 2

    def test_weight_duplicates_merge(self):
        p = parse_program("a :- 4 <= { b=2, b=3 }.")
        (rule,) = p.rules
        assert len(rule.body) == 1 and rule.body[0].weight == 5

    def test_zero_weights_dropped(self):
        p = parse_program("a :- 1 <= { b=0, c=2 }.")
        (rule,) = p.rules
        assert [w.atom for w in rule.body] == ["c"]


class TestDiagnostics:
    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("a :- \n b c.")
        assert err.value.line == 2

    def test_negative_weight(self):
        with pytest.raises(WeightError):
            parse_program("a :- 1 <= { b=-2 }.")

    def test_negative_bound(self):
        with pytest.raises(WeightError):
            parse_program("a :- -1 <= { b }.")

    def test_disjunctive_head(self):
        with pytest.raises(UnsupportedFeatureError):
            parse_program("a | b :- c.")

    def test_upper_without_lower(self):
        with pytest.raises(ParseError):
            parse_program("a :- { b } <= 2.")

    def test_reserved_prefix(self):
        with pytest.raises(ParseError) as err:
            parse_program("__x :- b.")
        assert "reserved" in err.value.message

    def test_double_negation_rejected(self):
        with pytest.raises(ParseError):
            parse_program("a :- not not b.")

    def test_choice_with_aggregate_body(self):
        with pytest.raises(UnsupportedFeatureError):
            parse_program("{a} :- 1 <= { b }.")

    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_program("a :- b")

    @pytest.mark.parametrize("text, line, col, message", [
        # a comment advances no column, so EOF sits where "%" was
        pytest.param("a :- b % trailing", 1, 8, "expected DOT, found ''",
                     id="comment-at-eof"),
        # tabs and carriage returns count one column each
        pytest.param("a :-\t\r b\t\r@.", 1, 11, "unexpected character '@'",
                     id="tab-cr-before-bad-char"),
        pytest.param("#1 a.", 1, 1, "malformed directive", id="directive-digit"),
        pytest.param("a. #1", 1, 4, "malformed directive", id="directive-digit-late"),
        pytest.param("-x.", 1, 1, "unexpected character '-'", id="minus-ident"),
        pytest.param("a :- -x.", 1, 6, "unexpected character '-'", id="minus-ident-body"),
        pytest.param("a.\n% comment line\nb :- ?.", 3, 6, "unexpected character '?'",
                     id="line3-after-comment"),
        pytest.param("a. % one\n% two\nb :- c d.", 3, 8, "expected DOT, found 'd'",
                     id="line3-after-comments"),
    ])
    def test_error_positions(self, text, line, col, message):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert (err.value.line, err.value.col, err.value.message) == (line, col, message)
        assert str(err.value) == f"{line}:{col}: {message}"

    def test_error_outcome_golden(self):
        corpus = error_corpus()
        expected = (GOLDEN / "parse_errors.txt").read_text(encoding="utf-8").split("\n")[:-1]
        assert len(expected) == len(corpus)
        for i, (text, want) in enumerate(zip(corpus, expected)):
            assert parse_outcome(text) == want, f"input {i}: {text!r}"
        for needle in ("ok ", "malformed directive", "unexpected character '-'",
                       "unexpected character '\u00e9'", "is reserved", "invalid atom name",
                       "disjunctive", "aggregate bodies", "negative weight",
                       "negative lower bound", "negative upper bound",
                       "double negation", "expected DOT, found ''"):
            assert any(needle in line for line in expected), needle

    def test_overlong_integer(self, int_digit_limit):
        # more digits than int() converts is a located error, and a bad
        # character anywhere in the text still outranks it
        text = f"a :- {'1' * 5000} <= {{ b }}."
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert str(err.value) == "1:6: integer too long (5000 digits)"
        with pytest.raises(ParseError) as err:
            parse_program(f"a :- 1 <= {{ b=-{'2' * 5000} }}.")
        assert str(err.value) == "1:15: integer too long (5000 digits)"
        with pytest.raises(ParseError) as err:
            parse_program(text + "\n?")
        assert str(err.value) == "2:1: unexpected character '?'"

    def test_comment_at_eof_without_newline(self):
        p = parse_program("a :- b.\n% no newline after the comment")
        assert [r.head for r in p.rules] == ["a"]


# Texts where a chunk between spaces holds several tokens, where "<=" or
# ":-" is spelt apart or run together, comments, and whitespace that is
# not ASCII.
TOKEN_EDGE_CASES = (
    "x-1", "a=-x", "5:-3", "::-", "<==", "< =", ":=", "#hidea.", "a%c\nb.",
    "a :- b. % comment at EOF", "a\u00e4", "a\xa0b", "a\x0bb", "a\x1cb",
    "a\u2028b", "a :- b.\r\nb.\r\n",
)


# Pieces of random tokenizer input: every ASCII punctuation character,
# letters and digits, "<=" and ":-" whole and spelt apart, comments, and
# whitespace and letters that are not ASCII.
TOKEN_PIECES = (
    *string.punctuation, *"aqzAZ09", "<=", ":-", "< =", ": -", "not", "#hide", "12",
    *" \t\r\n\x0b\x1c\x85\xa0\u2028\u3000", "\u00e4", "\u00e9", "\u03bb",
)


def scanned(text):
    """The tokens ``_SCAN`` finds in ``text`` and their kinds."""
    toks = list(filter(None, _SCAN.findall(text)))
    return toks, [_KINDS.get(tok) or _FIRST.get(tok[0], "CHAR") for tok in toks]


def test_tokens_are_the_scanners():
    # every text of two characters, and of three punctuation characters:
    # a token such as ">=" or "..." that _tokens would space apart fails
    chars = [piece for piece in TOKEN_PIECES if len(piece) == 1]
    texts = [*map("".join, itertools.product(chars, repeat=2)),
             *map("".join, itertools.product(string.punctuation, repeat=3)),
             *error_corpus(), *(src for _, src, _ in fuzz_corpus(1, 300)),
             *(path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.lp"))),
             *TOKEN_EDGE_CASES]
    for text in texts:
        assert _tokens(text) == scanned(text), repr(text)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=40).map("".join))
def test_tokens_are_the_scanners_on_random_text(text):
    assert _tokens(text) == scanned(text)


class TestRoundTrip:
    def roundtrip(self, src):
        p = parse_program(src)
        again = parse_program(render_program(p))
        assert again.rules == p.rules
        assert again.atom_names == p.atom_names and again.hidden == p.hidden
        return p

    def test_example1_roundtrip(self):
        self.roundtrip("{b1}. {b2}. a :- 1 <= { b1, b2 }.")

    def test_empty_program(self):
        p = parse_program("")
        assert render_program(p) == ""
        self.roundtrip("")

    def test_hide_roundtrips_visibility(self):
        p = self.roundtrip("a :- b. #hide b.")
        assert p.visible_atoms == {"a"}

    def test_declared_only_atom(self):
        self.roundtrip("a :- not b.\n#atom q.")

    def test_mixed_forms(self):
        self.roundtrip(
            "a. {b} :- a. c :- 2 <= { a, b, not d }. d :- 3 <= { a=2, b=4 }.\n"
            "e :- 1 <= { a=1, b=2 } <= 2. :- e, not c.")

    def test_unsatisfiable_empty_body_weight(self):
        self.roundtrip("a :- 3 <= { b=0 }.")

    @pytest.mark.parametrize("src", [":- .", ":- 0 <= { }."])
    def test_empty_constraint(self, src):
        p = self.roundtrip(src)
        assert p.rules == (Rule(None, (), 0),)
        assert render_program(p) == ":- .\n"


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_parser_total_on_arbitrary_text(text):
    try:
        parse_program(text)
    except ParseError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_generated_corpus_roundtrip(seed):
    import random

    from asptoc.fuzz import generate_source

    rng = random.Random(seed)
    src = generate_source(rng, want_recursive=seed % 2 == 0)
    p = parse_program(src)
    assert parse_program(render_program(p)).rules == p.rules
