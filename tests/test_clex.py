import re
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from cgrader import synth
from cgrader.clex import (
    C11_KEYWORDS,
    PUNCTUATORS,
    TokenKind,
    detokenize,
    significant_tokens,
    tokenize,
)
from cgrader.corpus import Submission

SEED_DIR = Path(__file__).resolve().parent.parent / "seeds"


def kinds_and_texts(code):
    return [(t.kind, t.text) for t in tokenize(code).tokens]


# A second, independent lexer for `tokenize` to agree with: it matches each
# token, matches `_REFERENCE_UNTERMINATED` again at the same place, and looks
# identifiers up in `C11_KEYWORDS`.
_REFERENCE_LEXEME = re.compile(
    "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in [
            ("whitespace", r"\s+"),
            ("block_comment", r"/\*.*?\*/"),
            ("line_comment", r"//[^\n]*"),
            ("string", r'"(?:\\.|[^"\\])*"'),
            ("char", r"'(?:\\.|[^'\\])*'"),
            (
                "float",
                r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fFlL]?"
                r"|\d+[eE][+-]?\d+[fFlL]?",
            ),
            ("int", r"0[xX][0-9a-fA-F]+[uUlL]*|\d+[uUlL]*"),
            ("ident", r"[A-Za-z_]\w*"),
            ("punct", "|".join(re.escape(p) for p in PUNCTUATORS)),
            ("other", r"."),
        ]
    ),
    re.DOTALL,
)
_REFERENCE_UNTERMINATED = re.compile(r'/\*|"|\'')
_REFERENCE_KIND = {
    "whitespace": TokenKind.WHITESPACE,
    "block_comment": TokenKind.COMMENT,
    "line_comment": TokenKind.COMMENT,
    "string": TokenKind.STRING_LITERAL,
    "char": TokenKind.CHAR_LITERAL,
    "float": TokenKind.FLOAT_LITERAL,
    "int": TokenKind.INT_LITERAL,
    "punct": TokenKind.PUNCTUATOR,
    "other": TokenKind.ERROR,
}


def reference_tokenize(code):
    """(kind, text) of each token, lexed one token and two matches at a time."""
    tokens = []
    pos = 0
    while pos < len(code):
        match = _REFERENCE_LEXEME.match(code, pos)
        group = match.lastgroup
        text = match.group()
        if group not in ("block_comment", "string", "char") and \
                _REFERENCE_UNTERMINATED.match(code, pos):
            kind, text = TokenKind.ERROR, code[pos:]
        elif group == "ident":
            kind = TokenKind.KEYWORD if text in C11_KEYWORDS else TokenKind.IDENTIFIER
        else:
            kind = _REFERENCE_KIND[group]
        tokens.append((kind, text))
        pos += len(text)
    return tokens


def test_matches_reference_on_a_synth_corpus():
    seeds = [Submission(path.stem, path.read_text(encoding="utf-8"), 10.0)
             for path in sorted(SEED_DIR.glob("*.c"))]
    ds, _ = synth.synthesize_with_plans(seeds, 400, synth.Rubric(),
                                        np.random.default_rng(0))
    for row in seeds + list(ds.rows):
        assert kinds_and_texts(row.code) == reference_tokenize(row.code), row.id


@pytest.mark.parametrize("code", [
    "/*", "/* open", "x /* a */ y /* b", '"', '"abc', 'f("a\\"', "'", "'a", "c = '",
    '/* "x', '"/*', "'/*' /*", "do", "double", "do_x", "doubles", "int8", "_Bool",
    "_Boolx", "for(;;) do {} while (0);", "auto\u00e9", "if1", "else-",
])
def test_matches_reference_on_openers_and_keyword_prefixes(code):
    assert kinds_and_texts(code) == reference_tokenize(code)


@given(st.text())
@settings(max_examples=300)
def test_matches_reference_on_arbitrary_text(code):
    assert kinds_and_texts(code) == reference_tokenize(code)


@given(st.binary())
@settings(max_examples=300)
def test_matches_reference_on_arbitrary_bytes(data):
    code = data.decode("latin-1")
    assert kinds_and_texts(code) == reference_tokenize(code)


_C_FRAGMENTS = ["/*", "*/", "//", '"', "'", "\\", "\n", " ", "do", "double", "int",
                "x", "_", "0x1f", "1.5e3", "7", ".", "+", "=", ";", "(", "%:", "\u00e9"]


@given(st.lists(st.sampled_from(_C_FRAGMENTS), max_size=30).map("".join))
@settings(max_examples=300)
def test_matches_reference_on_c_fragments(code):
    assert kinds_and_texts(code) == reference_tokenize(code)


def test_empty_input():
    stream = tokenize("")
    assert stream.tokens == ()
    assert detokenize(stream) == ""


def test_simple_declaration():
    assert kinds_and_texts("int x;") == [
        (TokenKind.KEYWORD, "int"),
        (TokenKind.WHITESPACE, " "),
        (TokenKind.IDENTIFIER, "x"),
        (TokenKind.PUNCTUATOR, ";"),
    ]


def test_maximal_munch_equality():
    assert kinds_and_texts("x==1") == [
        (TokenKind.IDENTIFIER, "x"),
        (TokenKind.PUNCTUATOR, "=="),
        (TokenKind.INT_LITERAL, "1"),
    ]


def test_every_multichar_punctuator_is_one_token():
    for punct in PUNCTUATORS:
        if len(punct) < 2:
            continue
        tokens = tokenize(punct).tokens
        assert len(tokens) == 1, punct
        assert tokens[0].kind is TokenKind.PUNCTUATOR


def test_unterminated_string_becomes_single_error_token():
    code = 'printf("hi'
    tokens = tokenize(code).tokens
    assert tokens[-1].kind is TokenKind.ERROR
    assert tokens[-1].text == '"hi'
    assert detokenize(tokenize(code)) == code


def test_unterminated_block_comment():
    code = "int x; /* never closed"
    tokens = tokenize(code).tokens
    assert tokens[-1].kind is TokenKind.ERROR
    assert tokens[-1].text == "/* never closed"


def test_comments_and_literals():
    code = 'float f = 1.5e3; // note\n/* block */ char c = \'a\';'
    kinds = [t.kind for t in tokenize(code).tokens]
    assert TokenKind.FLOAT_LITERAL in kinds
    assert TokenKind.CHAR_LITERAL in kinds
    assert kinds.count(TokenKind.COMMENT) == 2


def test_significant_tokens_strips_whitespace_and_comments():
    texts = [t.text for t in significant_tokens(tokenize("int x; // c"))]
    assert texts == ["int", "x", ";"]
    assert significant_tokens(tokenize("  \n\t ")) == []
    assert [t.text for t in significant_tokens(tokenize("a b"))] == ["a", "b"]


def test_round_trip_on_real_program():
    code = '#include <stdio.h>\nint main(){return 0;}\n'
    assert detokenize(tokenize(code)) == code


@given(st.text())
@settings(max_examples=300)
def test_round_trip_arbitrary_text(code):
    stream = tokenize(code)
    assert detokenize(stream) == code
    if code:
        assert len(stream.tokens) >= 1


@given(st.binary())
@settings(max_examples=300)
def test_round_trip_arbitrary_bytes(data):
    code = data.decode("latin-1")
    assert detokenize(tokenize(code)) == code


@given(st.text())
@settings(max_examples=200)
def test_token_texts_nonempty(code):
    assert all(t.text for t in tokenize(code).tokens)
