"""Token definitions for the Delirium scanner.

The language is deliberately tiny (six constructs, section 3 of the paper),
so the token set is small: literals, identifiers, keywords, and a handful of
punctuation marks.  Angle brackets serve double duty for multiple-value
packages (``<a,b,c>``) — Delirium has no comparison operators at the syntax
level (comparisons are ordinary operators such as ``is_equal``), so there is
no ambiguity.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenKind(enum.Enum):
    """Kinds of lexical tokens."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    IDENT = "ident"
    # Keywords.
    LET = "let"
    IN = "in"
    IF = "if"
    THEN = "then"
    ELSE = "else"
    ITERATE = "iterate"
    WHILE = "while"
    RESULT = "result"
    NULL = "NULL"
    # Punctuation.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LANGLE = "<"
    RANGLE = ">"
    COMMA = ","
    EQUALS = "="
    EOF = "<eof>"


#: Reserved words, mapped to their token kinds.  ``NULL`` is case sensitive
#: exactly as written in the paper's examples.
KEYWORDS: dict[str, TokenKind] = {
    "let": TokenKind.LET,
    "in": TokenKind.IN,
    "if": TokenKind.IF,
    "then": TokenKind.THEN,
    "else": TokenKind.ELSE,
    "iterate": TokenKind.ITERATE,
    "while": TokenKind.WHILE,
    "result": TokenKind.RESULT,
    "NULL": TokenKind.NULL,
}


class Token(NamedTuple):
    """One lexical token (a tuple: the scanner builds one per lexeme).

    Attributes
    ----------
    kind:
        The :class:`TokenKind`.
    text:
        The exact source spelling (for literals, the unconverted text).
    value:
        The converted literal value for INT/FLOAT/STRING tokens, otherwise
        ``None``.
    line, column:
        1-based position of the first character of the token.
    """

    kind: TokenKind
    text: str
    value: object
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r} @{self.line}:{self.column})"
