"""Word types: finite words, canonical lassos, carrier-set words, and the
run-length reference view that the block parse is checked against."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omegapower import (
    FiniteWord,
    FiniteWord as word,
    InvalidAddress,
    KnjEncodedWord,
    LassoWord,
    WorkbenchError,
    canonical_parts,
    m_offset,
    prefix,
)

from word_reference import block_start, brute_normalize_parts, run_decompose, run_recompose


def test_finite_word_letters_are_plain_ints():
    letters = (0, 1, 2)
    assert FiniteWord(letters, 3).letters is letters
    for given_letters in ([True, 0], (True, 0), "10", iter([1, 0])):
        w = FiniteWord(given_letters, 2)
        assert w.letters == (1, 0) and str(w) == "10"
        assert all(type(x) is int for x in w.letters)


def test_finite_word_basics():
    w = word("0123")
    assert len(w) == 4
    assert list(w) == [0, 1, 2, 3]
    assert w[1] == 1
    assert w[1:3] == word("12")
    assert str(word("")) == "ε"
    assert str(w) == "0123"


def test_finite_word_equality_ignores_alphabet_size():
    assert word("01", 2) == word("01", 4)
    assert hash(word("01", 2)) == hash(word("01", 4))
    assert word("01") != word("10")


def test_finite_word_rejects_out_of_range_letters():
    with pytest.raises(WorkbenchError):
        word("014", 4)
    with pytest.raises(WorkbenchError):
        word("3", 3)
    with pytest.raises(WorkbenchError):
        FiniteWord((0,), size=5)
    # the alphabet size is an int: a size 2.5 would let the letter 2 pass
    for letters, size in (((2,), 2.5), ((1,), 2.0), ((1,), "3")):
        with pytest.raises(WorkbenchError, match="unsupported alphabet size"):
            FiniteWord(letters, size)


def test_word_constructors_refuse_what_is_not_a_letter():
    for make in (
        lambda: FiniteWord("2a"),
        lambda: FiniteWord("ε"),
        lambda: FiniteWord([None]),
        lambda: LassoWord("2a", "1"),
        lambda: FiniteWord([1.7, 0]),
        lambda: FiniteWord(5),
        lambda: LassoWord(3, "1"),
        # a str letter is ASCII digits: no other script, sign or space
        lambda: FiniteWord("١٠"),
        lambda: FiniteWord("１0"),
        lambda: FiniteWord(["+1", " 0 "]),
        lambda: FiniteWord([" 1"]),
        lambda: LassoWord("١", "0"),
    ):
        with pytest.raises(WorkbenchError, match="not a letter"):
            make()


def test_finite_word_immutable():
    w = word("01")
    with pytest.raises(AttributeError):
        w.letters = (1,)


def test_canonical_parts_primitive_cycle():
    assert canonical_parts((), (1, 2, 1, 2)) == ((), (1, 2))
    assert canonical_parts((0,), (1,)) == ((0,), (1,))


def test_canonical_parts_absorbs_shared_tail():
    # u v^w has a shorter presentation whenever u ends with v's last letter
    assert canonical_parts((0,), (0,)) == ((), (0,))
    assert canonical_parts((1,), (0, 1)) == ((), (1, 0))
    assert canonical_parts((0, 1), (1, 0)) == ((0, 1), (1, 0))


def test_canonical_parts_rejects_empty_cycle():
    with pytest.raises(WorkbenchError):
        canonical_parts((0,), ())


def test_lasso_construction_canonicalizes():
    assert str(LassoWord("0", "0")) == "(0)"
    assert str(LassoWord("1", "01")) == "(10)"
    assert LassoWord("1", "01") == LassoWord("", "10")
    assert str(LassoWord("", "1212", size=3)) == "(12)"
    w = LassoWord("11", "0")
    assert LassoWord(w.spoke, w.cycle, size=w.size) == w


def test_lasso_equals_brute_normalization():
    # oracle route: ascending search for the least equivalent presentation
    for lu in range(3):
        for lv in range(1, 4):
            for u in itertools.product((0, 1), repeat=lu):
                for v in itertools.product((0, 1), repeat=lv):
                    assert canonical_parts(u, v) == brute_normalize_parts(u, v)


def test_lasso_letters_and_prefix():
    w = LassoWord("1", "12", size=3)
    assert [w.letter_at(i) for i in range(6)] == [1, 1, 2, 1, 2, 1]
    assert w.prefix(0) == word("")
    assert w.prefix(4) == word("1121", 3)
    assert prefix(w, 5) == word("11212", 3)
    assert w.letter_at(3) == 1


def test_trusted_construction_matches_the_checked_constructors():
    for u, v in [((), (0,)), ((0, 1, 1), (0, 1)), ((2, 1), (2, 1, 2, 1)), ((1,), (0, 1))]:
        w = LassoWord._trusted(*canonical_parts(u, v), 3)
        checked = LassoWord(u, v, size=3)
        assert (str(w), w.size, hash(w)) == (str(checked), checked.size, hash(checked))
    f = FiniteWord._trusted((1, 2), 3)
    assert (f, f.size, hash(f)) == (word("12", 3), 3, hash(word("12", 3)))
    # internal results keep the alphabet of the word they come from
    w = LassoWord("1", "12", size=3)
    assert w.prefix(1).size == w.prefix(4).size == 3
    assert word("0120", 4)[1:3].size == 4
    # carrier prefixes
    for n, j, m in itertools.product(range(3), range(2), ["(1)", "0(01)", "11(0)"]):
        if n > m_offset(j):
            continue
        spoke, _, cyc = m.partition("(")
        w = KnjEncodedWord(n, j, LassoWord(spoke, cyc.rstrip(")"), size=2))
        # by definition: 2^N, then m_i 2^{M_{j+i+1}} 3 2^{M_{j+i+1}} per block
        spelled = (2,) * n
        for i in range(3):
            run = m_offset(j + i + 1)
            spelled += (w.m.letter_at(i),) + (2,) * run + (3,) + (2,) * run
        for k in (0, 1, 7, 30):
            got = w.prefix(k)
            checked = FiniteWord(got.letters, 4)
            assert (got, got.size, hash(got)) == (checked, checked.size, hash(checked))
            assert got.letters == spelled[:k]


def test_lasso_from_finite_words_keeps_their_alphabet():
    assert LassoWord(word("1", 3), word("10", 2)).size == 3
    assert LassoWord(word("1", 2), word("12", 3)).size == 3
    assert LassoWord(word("1", 2), "1").size == 2


def test_prefix_needs_an_infinite_word_and_a_length():
    w = LassoWord("1", "0")
    with pytest.raises(WorkbenchError):
        prefix(w, -1)
    carrier = KnjEncodedWord(0, 0, LassoWord("", "1"))
    for w in (LassoWord((1, 2), (0,), size=3), carrier):
        with pytest.raises(WorkbenchError, match="nonnegative"):
            w.prefix(-1)
    with pytest.raises(WorkbenchError):
        prefix(word("01"), 1)


def test_words_are_immutable_and_unequal_across_kinds():
    lasso = LassoWord("", "01")
    carrier = KnjEncodedWord(0, 0, LassoWord("", "1"))
    with pytest.raises(AttributeError):
        lasso.spoke = word("1")
    with pytest.raises(AttributeError):
        carrier.n = 1
    assert word("01") != (0, 1)
    assert lasso != word("01")
    assert carrier != LassoWord("", "1")


def test_lasso_hash_and_repr():
    assert hash(LassoWord("", "01")) == hash(LassoWord("", "0101"))
    assert repr(LassoWord("", "01")) == "LassoWord('(01)')"


M1 = m_offset(1)
M2 = m_offset(2)


def test_carrier_word_frozen_prefixes():
    one = KnjEncodedWord(0, 0, LassoWord("", "1"))
    zero = KnjEncodedWord(0, 0, LassoWord("", "0"))
    assert str(prefix(one, 11)) == "12222322221"
    assert str(prefix(zero, 11)) == "02222322220"


def test_carrier_word_leading_run():
    w = KnjEncodedWord(4, 1, LassoWord("", "1"))
    assert str(prefix(w, 8)) == "22221222"
    # block i carries two runs of length M_{j+i+1}
    assert w.block_run(0) == M2
    assert str(w) == "K[4,1](1)"


def test_carrier_word_block_structure():
    w = KnjEncodedWord(0, 0, LassoWord("1", "0"))
    # lead is empty, then blocks m_i 2^{M_{i+1}} 3 2^{M_{i+1}}
    assert block_start(w, 0) == 0
    assert block_start(w, 1) == 1 + 2 * M1 + 1
    letters = prefix(w, block_start(w, 1) + 2).letters
    assert letters[block_start(w, 0)] == 1
    assert letters[block_start(w, 1)] == 0
    assert letters[block_start(w, 1) + 1] == 2


def test_carrier_word_rejects_deep_lead():
    with pytest.raises(InvalidAddress):
        KnjEncodedWord(1, 0, LassoWord("", "1"))
    with pytest.raises(InvalidAddress):
        KnjEncodedWord(m_offset(1) + 1, 1, LassoWord("", "1"))


def test_carrier_word_rejects_bad_fields():
    one = LassoWord("", "1")
    with pytest.raises(InvalidAddress, match="nonnegative"):
        KnjEncodedWord(-1, 0, one)
    with pytest.raises(InvalidAddress, match="nonnegative"):
        KnjEncodedWord(0, -1, one)
    with pytest.raises(InvalidAddress, match="ints"):
        KnjEncodedWord(0, 0.0, one)
    with pytest.raises(WorkbenchError, match="lasso"):
        KnjEncodedWord(0, 0, word("1"))
    with pytest.raises(WorkbenchError, match="binary"):
        KnjEncodedWord(0, 0, LassoWord("1", "2"))


def test_carrier_word_hash_and_repr():
    a = KnjEncodedWord(0, 0, LassoWord("", "1"))
    assert {a, KnjEncodedWord(0, 0, LassoWord("1", "1"))} == {a}
    assert len({a, KnjEncodedWord(0, 0, LassoWord("", "0"))}) == 2
    assert repr(a) == "KnjEncodedWord(0, 0, LassoWord('(1)'))"


def test_carrier_word_equality():
    a = KnjEncodedWord(0, 0, LassoWord("", "1"))
    b = KnjEncodedWord(0, 0, LassoWord("1", "1"))
    assert a == b  # the m lassos normalize to the same word
    assert a != KnjEncodedWord(0, 0, LassoWord("", "0"))


def test_run_decompose_recompose():
    s = word("2212230222", 4)
    runs = run_decompose(s)
    assert runs == [(None, 2), (1, 2), (3, 0), (0, 3)]
    assert run_recompose(runs) == s
    assert run_decompose(word("", 4)) == []
    assert run_recompose([]) == word("", 4)


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=24))
def test_run_roundtrip_random(letters):
    s = FiniteWord(letters, 4)
    assert run_recompose(run_decompose(s)) == s
