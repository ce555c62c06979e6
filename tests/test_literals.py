"""Word literal grammar: finite digit strings, u(v) lassos, and K[N,j]
carrier addresses."""

import itertools

import pytest

from omegapower import (
    FiniteWord,
    FiniteWord as word,
    KnjEncodedWord,
    LassoWord,
    LiteralSyntaxError,
    format_word,
    parse_word_literal,
)
from omegapower.literals import EPSILON


def test_finite_literals():
    assert parse_word_literal("0123") == word("0123")
    assert parse_word_literal("") == word("")
    assert parse_word_literal(EPSILON) == word("")
    assert isinstance(parse_word_literal("012", 3), FiniteWord)


def test_lasso_literal():
    got = parse_word_literal("1(12)", 3)
    assert isinstance(got, LassoWord)
    assert got.spoke == word("1", 3)
    assert got.cycle == word("12", 3)


def test_lasso_literal_normalizes():
    assert str(parse_word_literal("0(0)")) == "(0)"
    assert str(parse_word_literal("1(0101)")) == "(10)"
    assert str(parse_word_literal("10(01)")) == "10(01)"


def test_carrier_literal():
    got = parse_word_literal("K[0,0]1(0)")
    assert isinstance(got, KnjEncodedWord)
    assert got.n == 0 and got.j == 0
    assert got.m == LassoWord("1", "0", size=2)
    assert parse_word_literal("K[4,1](1)").n == 4


def test_syntax_errors_carry_positions():
    with pytest.raises(LiteralSyntaxError) as info:
        parse_word_literal("1(12")
    assert info.value.position is not None
    with pytest.raises(LiteralSyntaxError):
        parse_word_literal("1)2(")
    with pytest.raises(LiteralSyntaxError):
        parse_word_literal("K[0,0]")
    with pytest.raises(LiteralSyntaxError):
        parse_word_literal("K[1,0](1)")  # address outside the bound
    with pytest.raises(LiteralSyntaxError):
        parse_word_literal("abc")
    with pytest.raises(LiteralSyntaxError):
        parse_word_literal(5)
    # the carrier address is ASCII digits, like the letters
    for text in ("K[٠,٠](1)", "K[1,١](1)"):
        with pytest.raises(LiteralSyntaxError) as info:
            parse_word_literal(text)
        assert info.value.position == 0


def test_alphabet_bounds():
    assert parse_word_literal("012", 3) == word("012", 3)
    with pytest.raises(LiteralSyntaxError):
        parse_word_literal("013", 3)
    with pytest.raises(LiteralSyntaxError):
        parse_word_literal("0(3)", 3)


def test_format_parse_roundtrip():
    # every finite word up to length 5 and every lasso u(v) with |u| <= 2
    # and |v| <= 3, over each alphabet
    samples = [KnjEncodedWord(3, 1, LassoWord("", "10"))]
    for size in (2, 3, 4):
        texts = [
            "".join(t) for n in range(6) for t in itertools.product("0123"[:size], repeat=n)
        ]
        samples += [word(t, size) for t in texts]
        samples += [
            LassoWord(u, v, size)
            for u in texts
            if len(u) <= 2
            for v in texts
            if 1 <= len(v) <= 3
        ]
    for w in samples:
        text = format_word(w)
        again = parse_word_literal(text, w.size)
        assert (again, again.size) == (w, w.size), text
        assert format_word(again) == text


def test_carrier_address_errors_point_at_the_address():
    with pytest.raises(LiteralSyntaxError, match="N=1 exceeds M_0=0") as info:
        parse_word_literal("K[1,0](1)")
    assert info.value.position == 1
    # past the interpreter's digit limit for int(), not a traceback
    with pytest.raises(LiteralSyntaxError, match="too many digits") as info:
        parse_word_literal("K[0," + "9" * 5000 + "](1)")
    assert info.value.position == 1
