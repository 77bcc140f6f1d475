"""The rule reader's token pattern against the hand-written lexer it replaced.

``rule_lexer_oracle.tokenize`` is the old lexer.  On every text where it
returns tokens or raises a ParseError, ``rule_language.tokenize`` must give
the same tokens (kind, value and the value's type, line, column, quoting)
or the same ParseError (message, line, column, expected, found).  Where the
oracle crashed with a bare ValueError, on a digit that ``str.isdigit``
accepts but ``int`` and ``float`` reject, the pattern raises a ParseError.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rule_lexer_oracle as oracle
from termxform.rule_language import ParseError, tokenize
from termxform.transform_prelude import PRELUDE_SRC

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import make  # noqa: E402
from scripts.demo_transform import SAMPLE_RULES  # noqa: E402


def _outcome(lex, text):
    try:
        return [(t.kind, t.value, type(t.value), t.line, t.col, t.quoted) for t in lex(text)]
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col, exc.expected, exc.found)


def _is_bad_digit(ch):
    return ch.isdigit() and not ch.isdecimal()


def _assert_same(text):
    try:
        expected = _outcome(oracle.tokenize, text)
    except ValueError:
        assert any(_is_bad_digit(ch) for ch in text)
        _assert_bad_numeral_rejected(text)
        return
    assert _outcome(tokenize, text) == expected


def _assert_bad_numeral_rejected(text):
    try:
        tokenize(text)
    except ParseError:
        return
    # The one way past a ParseError: a number's exponent needs a decimal
    # digit, so in 1e² the e² is read as a name, as it is anywhere else.
    assert any(
        text[i].isdecimal() and text[i + 1] in "eE" and _is_bad_digit(text[i + 2])
        for i in range(len(text) - 2)
    )


_LEXER_HEAVY = list("'%.eE_aXz0123456789٣²½\r\x0c\n \t()[],|!;+-*/\\^<>=~:?@#&$")


@settings(max_examples=2000, deadline=None)
@given(st.text())
def test_arbitrary_text_lexes_as_the_oracle_lexes_it(text):
    _assert_same(text)


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet=st.sampled_from(_LEXER_HEAVY), max_size=30))
def test_lexer_heavy_text_lexes_as_the_oracle_lexes_it(text):
    _assert_same(text)


@pytest.mark.parametrize(
    "text",
    [
        "'''",
        "'a''",
        "'a'''",
        "'it''s' 'a\nb' c",
        "'f'(x) !(a) ;(b) f (x) f(x)",
        "X(1)",
        "X (1)",
        "7.e",
        "7. ",
        "7.",
        "a.b",
        "a.%c",
        "1e3 1.5e-2 1E+4 1e 1.5e 2.",
        "٣ ١.٥",
        "½",
        "\x0c",
        " ",
        "ǅx Éa _ _1 x²",
        "a :- b, \\+ c ; d -> e.\n% tail comment",
        "",
        "\n\n  ",
    ],
)
def test_edge_cases_lex_as_the_oracle_lexes_them(text):
    _assert_same(text)


def test_the_prelude_lexes_as_the_oracle_lexes_it():
    _assert_same(PRELUDE_SRC)


@pytest.mark.parametrize("name", ["template-rows", "goal-query"])
def test_the_workload_rules_lex_as_the_oracle_lexes_them(name):
    _assert_same(make(name, 17, 45).rules)


def test_the_demo_rules_lex_as_the_oracle_lexes_them():
    _assert_same(SAMPLE_RULES)


@pytest.mark.parametrize("text, col", [("²", 1), ("1²", 2), ("1.5²", 4), ("a :- X is 1+²", 13)])
def test_a_digit_that_is_not_decimal_is_an_unexpected_character(text, col):
    # The oracle took ² for a digit and crashed in int() or float().
    with pytest.raises(ValueError, match="invalid literal|could not convert"):
        oracle.tokenize(text)
    with pytest.raises(ParseError, match="unexpected character") as info:
        tokenize(text)
    assert (info.value.line, info.value.col, info.value.found) == (1, col, repr("²"))


def test_a_digit_that_is_not_decimal_after_a_number_and_a_dot_makes_the_dot_unexpected():
    with pytest.raises(ValueError, match="could not convert"):
        oracle.tokenize("1.²")
    with pytest.raises(ParseError, match="unexpected '.'") as info:
        tokenize("1.²")
    assert (info.value.col, info.value.found) == (2, repr(".²"))


def test_a_digit_that_is_not_decimal_after_a_number_and_an_e_is_part_of_a_name():
    with pytest.raises(ValueError, match="could not convert"):
        oracle.tokenize("1e²")
    assert [(t.kind, t.value, t.col) for t in tokenize("1e²")] == [
        ("int", 1, 1),
        ("atom", "e²", 2),
        ("eof", None, 4),
    ]
