"""Lossless lexer for C source that tolerates arbitrarily broken input.

The grading corpus deliberately contains programs with syntax errors, so the
lexer never raises: anything it cannot classify becomes an ``Error`` token,
and concatenating all token texts always reproduces the input exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    INT_LITERAL = "int"
    FLOAT_LITERAL = "float"
    STRING_LITERAL = "string"
    CHAR_LITERAL = "char"
    PUNCTUATOR = "punctuator"
    COMMENT = "comment"
    WHITESPACE = "whitespace"
    ERROR = "error"


class Token(NamedTuple):
    kind: TokenKind
    text: str


@dataclass(frozen=True)
class TokenStream:
    tokens: tuple[Token, ...]


C11_KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Alignas _Alignof _Atomic _Bool _Complex _Generic _Imaginary _Noreturn
    _Static_assert _Thread_local
    """.split()
)

# Longest first so the alternation implements maximal munch.
PUNCTUATORS = sorted(
    [
        "%:%:", "...", "<<=", ">>=",
        "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
        "*=", "/=", "%=", "+=", "-=", "&=", "^=", "|=", "##",
        "<:", ":>", "<%", "%>", "%:",
        "[", "]", "(", ")", "{", "}", ".", "&", "*", "+", "-", "~", "!",
        "/", "%", "<", ">", "^", "|", "?", ":", ";", "=", ",", "#",
    ],
    key=len,
    reverse=True,
)

# Group name -> kind, in the order the alternation tries them. A keyword matches
# as an identifier, and `tokenize` looks it up in C11_KEYWORDS.
_GROUPS = [
    ("whitespace", r"\s+", TokenKind.WHITESPACE),
    ("block_comment", r"/\*.*?\*/", TokenKind.COMMENT),
    ("line_comment", r"//[^\n]*", TokenKind.COMMENT),
    ("string", r'"(?:\\.|[^"\\])*"', TokenKind.STRING_LITERAL),
    ("char", r"'(?:\\.|[^'\\])*'", TokenKind.CHAR_LITERAL),
    # An opener whose closed form failed to match above swallows the rest of
    # the input as one Error token.
    ("unterminated", r"/\*.*|[\"'].*", TokenKind.ERROR),
    (
        "float",
        r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fFlL]?"
        r"|\d+[eE][+-]?\d+[fFlL]?",
        TokenKind.FLOAT_LITERAL,
    ),
    ("int", r"0[xX][0-9a-fA-F]+[uUlL]*|\d+[uUlL]*", TokenKind.INT_LITERAL),
    ("ident", r"[A-Za-z_]\w*", TokenKind.IDENTIFIER),
    ("punct", "|".join(re.escape(p) for p in PUNCTUATORS), TokenKind.PUNCTUATOR),
    ("other", r".", TokenKind.ERROR),
]

_LEXEME = re.compile(
    "|".join(f"(?P<{name}>{pattern})" for name, pattern, _ in _GROUPS), re.DOTALL
)
_GROUP_KIND = {name: kind for name, _, kind in _GROUPS}


def tokenize(code: str) -> TokenStream:
    """Lex arbitrary text into a lossless token stream. Never raises."""
    return TokenStream(tuple(
        Token(TokenKind.KEYWORD if m.lastgroup == "ident" and m.group() in C11_KEYWORDS
              else _GROUP_KIND[m.lastgroup], m.group()) for m in _LEXEME.finditer(code)))


def detokenize(stream: TokenStream) -> str:
    """Reassemble the exact original source."""
    return "".join(tok.text for tok in stream.tokens)


INSIGNIFICANT = {TokenKind.WHITESPACE, TokenKind.COMMENT}


def significant_tokens(stream: TokenStream) -> list[Token]:
    """Tokens with whitespace and comments removed, order preserved."""
    return [tok for tok in stream.tokens if tok.kind not in INSIGNIFICANT]
