"""Unit tests for the Delirium scanner."""

import hashlib
import os
import runpy

import pytest

from repro.errors import LexError
from repro.lang import Token, TokenKind, tokenize


def kinds(source: str) -> list[TokenKind]:
    return [t.kind for t in tokenize(source)]


def texts(source: str) -> list[str]:
    return [t.text for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source_is_just_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokenKind.EOF

    def test_integer_literal(self):
        tok = tokenize("42")[0]
        assert tok.kind is TokenKind.INT
        assert tok.value == 42

    def test_float_literal(self):
        tok = tokenize("3.25")[0]
        assert tok.kind is TokenKind.FLOAT
        assert tok.value == 3.25

    def test_float_with_exponent(self):
        assert tokenize("1e3")[0].value == 1000.0
        assert tokenize("2.5e-2")[0].value == 0.025
        assert tokenize("7E+1")[0].value == 70.0

    def test_string_literal_double_quotes(self):
        tok = tokenize('"hello world"')[0]
        assert tok.kind is TokenKind.STRING
        assert tok.value == "hello world"

    def test_string_literal_single_quotes(self):
        assert tokenize("'abc'")[0].value == "abc"

    def test_string_escapes(self):
        assert tokenize(r'"a\nb\tc\\d\"e"')[0].value == 'a\nb\tc\\d"e'

    def test_identifier(self):
        tok = tokenize("convol_bite")[0]
        assert tok.kind is TokenKind.IDENT
        assert tok.text == "convol_bite"

    def test_identifier_with_dollar_inside(self):
        # Compiler-generated names survive re-lexing.
        tok = tokenize("loop$1")[0]
        assert tok.kind is TokenKind.IDENT
        assert tok.text == "loop$1"

    def test_do_is_not_a_keyword(self):
        # The paper's retina listing binds a variable named `do`.
        tok = tokenize("do")[0]
        assert tok.kind is TokenKind.IDENT


class TestKeywords:
    @pytest.mark.parametrize(
        "word,kind",
        [
            ("let", TokenKind.LET),
            ("in", TokenKind.IN),
            ("if", TokenKind.IF),
            ("then", TokenKind.THEN),
            ("else", TokenKind.ELSE),
            ("iterate", TokenKind.ITERATE),
            ("while", TokenKind.WHILE),
            ("result", TokenKind.RESULT),
            ("NULL", TokenKind.NULL),
        ],
    )
    def test_keyword(self, word, kind):
        assert tokenize(word)[0].kind is kind

    def test_null_is_case_sensitive(self):
        assert tokenize("null")[0].kind is TokenKind.IDENT
        assert tokenize("Null")[0].kind is TokenKind.IDENT

    def test_keyword_prefix_is_identifier(self):
        assert tokenize("letter")[0].kind is TokenKind.IDENT
        assert tokenize("iterate_fast")[0].kind is TokenKind.IDENT


class TestPunctuation:
    def test_all_punctuation(self):
        assert kinds("( ) { } < > , =")[:-1] == [
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACE,
            TokenKind.RBRACE,
            TokenKind.LANGLE,
            TokenKind.RANGLE,
            TokenKind.COMMA,
            TokenKind.EQUALS,
        ]

    def test_tuple_binding_tokens(self):
        assert texts("<a,b,c,d>=target_split(scene)") == [
            "<", "a", ",", "b", ",", "c", ",", "d", ">", "=",
            "target_split", "(", "scene", ")",
        ]


class TestCommentsAndWhitespace:
    def test_hash_comment(self):
        assert kinds("a # comment here\nb") == [
            TokenKind.IDENT, TokenKind.IDENT, TokenKind.EOF
        ]

    def test_dash_dash_comment(self):
        assert kinds("a -- comment\nb") == [
            TokenKind.IDENT, TokenKind.IDENT, TokenKind.EOF
        ]

    def test_whitespace_insensitive(self):
        assert texts("f(a,b)") == texts("f (\n  a ,\tb\n)")


class TestPositions:
    def test_line_and_column_tracking(self):
        toks = tokenize("ab\n  cd")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_first_line_offset_for_chunked_lexing(self):
        toks = tokenize("x", first_line=42)
        assert toks[0].line == 42


class TestLexErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"never closed')

    def test_error_carries_position(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("ok\n  %")
        assert excinfo.value.line == 2

    def test_malformed_exponent(self):
        with pytest.raises(LexError):
            tokenize("1e+")


class TestTokenRepr:
    def test_token_is_frozen(self):
        tok = Token(TokenKind.INT, "1", 1, 1, 1)
        with pytest.raises(AttributeError):
            tok.text = "2"  # type: ignore[misc]


# ---------------------------------------------------------------------------
# The master-pattern scanner emits what the character loop did
# ---------------------------------------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def shipped_sources() -> dict[str, str]:
    """Every Delirium source the repository ships or generates."""
    from bench.workloads import WORKLOADS
    from repro.apps import (
        circuit, compiler_app, loganalytics, montecarlo, queens, raytracer,
        retina,
    )
    from repro.apps.retina import stream as retina_stream
    from repro.apps.tree import coordination as tree_coordination
    from repro.lang.prelude import PRELUDE_SOURCE

    out = {
        "queens.paper": queens.PAPER_EIGHT_QUEENS,
        "queens.4": queens.queens_source(4),
        "queens.6": queens.queens_source(6),
        "retina.v1": retina.RETINA_V1,
        "retina.v2": retina.RETINA_V2,
        "retina.stream": retina_stream.RETINA_STREAM_STEP,
        "montecarlo.pi": montecarlo.PI_PROGRAM,
        "montecarlo.option": montecarlo.OPTION_PROGRAM,
        "compiler_app": compiler_app.PARALLEL_COMPILER,
        "tree": tree_coordination.TREE_WALK,
        "raytracer": raytracer.RAYTRACER,
        "circuit": circuit.CIRCUIT_SIM,
        "loganalytics": loganalytics.LOG_PROGRAM,
        "prelude": PRELUDE_SOURCE,
        "bench.fanout": WORKLOADS["fanout"](7).source,
        "bench.pythia": WORKLOADS["pythia"](7).source,
    }
    for example, name in (("quickstart", "SOURCE"), ("dynamic_parallelism", "PROGRAM")):
        path = os.path.join(ROOT, "examples", f"{example}.py")
        out[f"examples.{example}"] = runpy.run_path(path)[name]
    return out


def stream_digest(tokens: list[Token]) -> str:
    h = hashlib.sha256()
    for t in tokens:
        h.update(repr((t.kind.name, t.text, t.value, t.line, t.column)).encode())
    return h.hexdigest()[:16]


#: ``(token count, digest)`` per source, recorded with the one-character-
#: per-call scanner this one replaced.
STREAMS = {
    "queens.paper": (173, "3025ed1c37c3d7f6"),
    "queens.4": (125, "3563557c1ee3140e"),
    "queens.6": (149, "56da1a1ce4dcfc52"),
    "retina.v1": (185, "bdf863d12fc4aa09"),
    "retina.v2": (239, "07463390449d55f8"),
    "retina.stream": (213, "ba71fabd6b9084b7"),
    "montecarlo.pi": (18, "a2c923a5f49e11e7"),
    "montecarlo.option": (18, "97390568e48e1a3f"),
    "compiler_app": (275, "389c9276b42ca173"),
    "tree": (56, "9b1481c8cb476f17"),
    "raytracer": (87, "24e4f449cfa54b12"),
    "circuit": (88, "6b84b9a0b5a8def4"),
    "loganalytics": (62, "996efd65e17ea08d"),
    "prelude": (187, "9266343b028762fb"),
    "bench.fanout": (451, "649553b955478fd2"),
    "bench.pythia": (1675, "42d724757413e170"),
    "examples.quickstart": (53, "89b5701fec3a3e12"),
    "examples.dynamic_parallelism": (15, "25750c04998bf3be"),
}


class TestSameStreamsAsTheCharacterLoop:
    def test_every_shipped_source(self):
        got = {
            name: (len(tokens), stream_digest(tokens))
            for name, text in shipped_sources().items()
            for tokens in [tokenize(text)]
        }
        assert got == STREAMS

    @pytest.mark.parametrize(
        "source, message, line, column",
        [
            ("ok\n  %", "unexpected character '%'", 2, 3),
            ("x 1.5e+y", "malformed exponent in numeric literal", 1, 3),
            ('a\n "never\nclosed', "unterminated string literal", 2, 2),
            ("'esc\\", "unterminated string escape", 1, 1),
        ],
    )
    def test_error_text_and_position(self, source, message, line, column):
        with pytest.raises(LexError) as info:
            tokenize(source, first_line=1)
        assert str(info.value).endswith(message)
        assert (info.value.line, info.value.column) == (line, column)

    def test_first_line_offsets_every_line(self):
        toks = tokenize("a\n\n 'two\nlines' b", first_line=10)
        assert [(t.line, t.column) for t in toks] == [
            (10, 1), (12, 2), (13, 8), (13, 9)
        ]

    def test_minus_digit_exponent_and_comment(self):
        assert [(t.kind, t.value) for t in tokenize("-3 1e+5 f(-2.5)--4\n5")[:-1]] == [
            (TokenKind.INT, -3),
            (TokenKind.FLOAT, 100000.0),
            (TokenKind.IDENT, None),
            (TokenKind.LPAREN, None),
            (TokenKind.FLOAT, -2.5),
            (TokenKind.RPAREN, None),
            (TokenKind.INT, 5),
        ]
        # No digits behind the exponent: the number ends before it.
        assert texts("1ex 2e") == ["1", "ex", "2", "e"]

    def test_dollar_only_inside_identifiers(self):
        assert texts("if$2 x$") == ["if$2", "x$"]
        with pytest.raises(LexError):
            tokenize("$x")
