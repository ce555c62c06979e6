"""Carrier-set codec: the binary-lasso address map, its inverse, and
prefix consistency against the block template."""

import itertools

import pytest

from omegapower import (
    FiniteWord as word,
    InvalidAddress,
    KnjAddress,
    KnjEncodedWord,
    LassoWord,
    NotInKnj,
    corpus_lassos,
    knj_prefix_consistent,
    m_offset,
    phi,
    phi_inverse,
    prefix,
)

from word_reference import block_start


def lasso(text):
    spoke, _, cyc = text.partition("(")
    return LassoWord(spoke, cyc.rstrip(")"), size=2)


def test_codec_frozen_examples():
    w = phi_inverse(lasso("(1)"), KnjAddress(0, 0))
    assert isinstance(w, KnjEncodedWord)
    assert str(prefix(w, 11)) == "12222322221"
    assert phi(w) == lasso("(1)")

    z = phi_inverse(lasso("(0)"), KnjAddress(0, 0))
    assert str(prefix(z, 11)) == "02222322220"
    assert phi(z) == lasso("(0)")

    m = phi_inverse(lasso("1(0)"), KnjAddress(4, 1))
    assert phi(m) == lasso("1(0)")
    assert str(prefix(m, 8)) == "22221222"


def test_address_guard():
    assert KnjAddress(0, 0).n == 0
    assert KnjAddress(m_offset(2), 2).j == 2
    with pytest.raises(InvalidAddress):
        KnjAddress(1, 0)
    with pytest.raises(InvalidAddress):
        KnjAddress(m_offset(1) + 1, 1)
    with pytest.raises(InvalidAddress):
        KnjAddress(-1, 0)


@pytest.mark.parametrize(
    "n, j",
    [(-1, 0), (0, -1), (1, 0), (m_offset(1) + 1, 1), (0, 0.0), (0.0, 1), (True, 1), ("0", 0)],
)
def test_an_address_and_a_carrier_word_refuse_alike(n, j):
    with pytest.raises(InvalidAddress) as by_address:
        KnjAddress(n, j)
    with pytest.raises(InvalidAddress) as by_word:
        KnjEncodedWord(n, j, LassoWord("", "1"))
    assert str(by_address.value) == str(by_word.value)


def test_phi_rejects_non_carrier_words():
    with pytest.raises(NotInKnj):
        phi(LassoWord("", "2", size=4))
    with pytest.raises(NotInKnj):
        phi(word("1222", 4))


def test_prefix_consistent_frozen():
    addr = KnjAddress(0, 0)
    assert knj_prefix_consistent(word("1222", 4), addr)
    assert not knj_prefix_consistent(word("12223", 4), addr)
    assert knj_prefix_consistent(word("", 4), addr)


def test_prefix_consistent_all_true_prefixes():
    addr = KnjAddress(3, 1)
    w = phi_inverse(lasso("01(1)"), addr)
    for n in range(300):
        assert knj_prefix_consistent(prefix(w, n), addr)
    # the same prefixes read against a different lead length must die
    # as soon as the template diverges
    other = KnjAddress(2, 1)
    assert not knj_prefix_consistent(prefix(w, 50), other)


def test_prefix_consistent_rejects_tampering():
    addr = KnjAddress(0, 0)
    w = phi_inverse(lasso("(1)"), addr)
    good = list(prefix(w, 40))
    good[7] = 0 if good[7] == 2 else 2
    assert not knj_prefix_consistent(word(good, 4), addr)


def test_roundtrip_grid():
    for j in range(3):
        for n in range(m_offset(j) + 1):
            addr = KnjAddress(n, j)
            for m in corpus_lassos(2, 5, 5):
                w = phi_inverse(m, addr)
                assert w.n == n and w.j == j
                assert phi(w) == m


def test_injectivity_at_first_differing_block():
    # two addresses with different m disagree exactly at the block start
    # of the first m-bit where the lassos differ
    ms = list(corpus_lassos(2, 2, 2))
    for a, b in itertools.combinations(ms, 2):
        wa = phi_inverse(a, KnjAddress(0, 0))
        wb = phi_inverse(b, KnjAddress(0, 0))
        k = next(i for i in range(16) if a.letter_at(i) != b.letter_at(i))
        pos = block_start(wa, k)
        assert block_start(wb, k) == pos
        la, lb = prefix(wa, pos + 1).letters, prefix(wb, pos + 1).letters
        assert la[:pos] == lb[:pos] and la[pos] != lb[pos]
