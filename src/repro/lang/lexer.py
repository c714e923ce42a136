"""Scanner for Delirium source text.

One compiled master pattern recognises, at each position, the trivia in
front of a token (whitespace and comments) and then the token itself;
line and column are derived from match offsets, never counted character
by character.  Only string literals are scanned by hand (their escape
loop).  The result is a list of :class:`~repro.lang.tokens.Token` ending
in an ``EOF`` token.  Comments run from ``--`` or ``#`` to end of line
(the paper shows no comment syntax; both forms are accepted so examples
can be annotated).
"""

from __future__ import annotations

import re

from ..errors import LexError
from .tokens import KEYWORDS, Token, TokenKind

#: The punctuation kinds are named by their character.
_PUNCT = {kind.value: kind for kind in TokenKind if len(kind.value) == 1}

# Alternatives are tried in order, and the group numbers below name them.
# ``--`` opens a comment before ``-3`` can open a number.  Negative
# literals exist so constant-folded ASTs can be unparsed and re-parsed;
# Delirium has no infix operators, so a '-' directly before a digit is
# unambiguous.  An exponent is taken only when digits follow it (``1ex``
# is ``1`` then ``ex``); a signed one with something other than a digit
# behind the sign is the malformed-exponent error.  ``$`` is accepted
# inside identifiers so compiler-generated names (``loop$1``,
# ``if$2.then``) survive an unparse/re-parse round trip; user programs
# conventionally never contain it.
_MASTER = re.compile(
    r"""(?:[ \t\r\n]+|\#[^\n]*|--[^\n]*)*      # trivia
    (?: ([^\W\d][\w$]*)                         # 1 identifier / keyword
      | ([(){}<>,=])                            # 2 punctuation
      | (-?\d+(?:\.\d+)?[eE][+-](?=[^\d]))      # 3 malformed exponent
      | (-?\d+(?:\.\d+)?[eE][+-]?\d+|-?\d+\.\d+) # 4 float
      | (-?\d+)                                 # 5 integer
      | (["'])                                  # 6 string opening quote
      | (\Z)                                    # 7 end of input
      | (.)                                     # 8 anything else
    )""",
    re.VERBOSE | re.DOTALL,
)
_IDENT, _PUNCTUATION, _BAD_EXPONENT, _FLOAT, _INT, _QUOTE, _END = range(1, 8)

_ESCAPES = {"n": "\n", "t": "\t"}


class Lexer:
    """Tokenizes one source string.

    Use :func:`tokenize` for the common case; the class exists so the
    parallel-compilation case study can lex independent chunks with
    correct line offsets.

    Parameters
    ----------
    source:
        Delirium source text.
    first_line:
        Line number of the first line, used when lexing a chunk that was cut
        out of a larger file (parallel compilation, section 6 of the paper).
    """

    def __init__(self, source: str, first_line: int = 1) -> None:
        self.source = source
        self.first_line = first_line

    def _string(self, start: int, line: int, col: int) -> tuple[str, int]:
        """Scan the literal whose opening quote is at ``start``; returns
        its value and the offset just past the closing quote."""
        source = self.source
        quote = source[start]
        chars: list[str] = []
        pos, end = start + 1, len(source)
        while True:
            if pos >= end:
                raise LexError("unterminated string literal", line, col)
            ch = source[pos]
            pos += 1
            if ch == quote:
                return "".join(chars), pos
            if ch == "\\":
                if pos >= end:
                    raise LexError("unterminated string escape", line, col)
                ch = source[pos]
                pos += 1
                ch = _ESCAPES.get(ch, ch)
            chars.append(ch)

    def tokens(self) -> list[Token]:
        """Scan the whole source and return the token list (with EOF)."""
        source = self.source
        match = _MASTER.match
        out: list[Token] = []
        append = out.append
        line = self.first_line
        line_start = 0  # offset of the first character of ``line``
        pos = counted = 0  # newlines before ``counted`` are in ``line``
        while True:
            m = match(source, pos)
            which = m.lastindex
            start = m.start(which)
            if start != counted:  # passed trivia or a string: maybe newlines
                newlines = source.count("\n", counted, start)
                if newlines:
                    line += newlines
                    line_start = source.rfind("\n", counted, start) + 1
            col = start - line_start + 1
            pos = counted = m.end()
            if which == _IDENT:
                text = m[_IDENT]
                kind = KEYWORDS.get(text, TokenKind.IDENT)
                append(Token(kind, text, None, line, col))
            elif which == _PUNCTUATION:
                text = m[_PUNCTUATION]
                append(Token(_PUNCT[text], text, None, line, col))
            elif which == _INT:
                text = m[_INT]
                append(Token(TokenKind.INT, text, int(text), line, col))
            elif which == _FLOAT:
                text = m[_FLOAT]
                append(Token(TokenKind.FLOAT, text, float(text), line, col))
            elif which == _QUOTE:
                value, pos = self._string(start, line, col)
                append(Token(TokenKind.STRING, value, value, line, col))
            elif which == _END:
                append(Token(TokenKind.EOF, "", None, line, col))
                return out
            elif which == _BAD_EXPONENT:
                raise LexError("malformed exponent in numeric literal", line, col)
            else:
                raise LexError(f"unexpected character {m[which]!r}", line, col)


def tokenize(source: str, first_line: int = 1) -> list[Token]:
    """Tokenize ``source`` and return the token list ending in EOF.

    Raises
    ------
    LexError
        If the source contains characters outside the Delirium lexicon.
    """
    return Lexer(source, first_line=first_line).tokens()
