"""Pair enumeration: length-major lexicographic order, index arithmetic,
block offsets, and the two-successor step relation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegapower import (
    QPair,
    WorkbenchError,
    index_of_q,
    m_index,
    m_offset,
    q_of_index,
    successors,
)
from omegapower.oracles import enumerate_pairs

from pair_reference import index_of_pair_bits, pair_bits_of_index


def bits(s):
    return tuple(int(c) for c in s)


FIRST_SEVEN = [
    (0, "", ""),
    (1, "0", "0"),
    (2, "0", "1"),
    (3, "1", "0"),
    (4, "1", "1"),
    (5, "00", "00"),
    (6, "00", "01"),
]


def test_first_indices_frozen():
    for n, b, a in FIRST_SEVEN:
        assert q_of_index(n) == QPair(bits(b), bits(a))


def test_index_20_closes_length_two():
    assert q_of_index(20) == QPair((1, 1), (1, 1))


def test_offsets_frozen():
    assert [m_offset(j) for j in range(7)] == [0, 4, 20, 84, 340, 1364, 5460]


def test_offset_closed_form():
    for j in range(12):
        assert m_offset(j) == sum(4 ** i for i in range(1, j + 1))


def test_offset_fits_native_width_below_19():
    # indices stay comfortably inside 64-bit arithmetic for every block
    # depth the workbench ever touches
    assert m_offset(19) < 2 ** 63


def test_m_index_inverts_offsets():
    for j in range(65):
        assert m_index(m_offset(j)) == j
        assert m_index(m_offset(j) + 1) is None
        # at j = 0 this is -1, where 3 * -1 + 4 = 1 is an odd-length power of two
        assert m_index(m_offset(j) - 1) is None
    assert m_index(5) is None
    assert m_index(19) is None
    assert m_index(-3) is None


def test_last_pair_of_each_length_is_all_ones():
    for j in range(7):
        q = q_of_index(m_offset(j))
        assert q == QPair((1,) * j, (1,) * j)
        if j:
            assert len(q_of_index(m_offset(j) + 1)) == j + 1


def test_pair_length_at_block_boundaries():
    # q_of_index takes the length in closed form; the definition is the
    # smallest L with M_L >= n
    def length_by_search(n):
        length = 0
        while m_offset(length) < n:
            length += 1
        return length

    for j in range(61):
        for n in (m_offset(j) - 1, m_offset(j), m_offset(j) + 1):
            if n >= 0:
                assert len(q_of_index(n)) == length_by_search(n)
                assert index_of_q(q_of_index(n)) == n


def test_order_matches_definitional_enumeration():
    listed = enumerate_pairs(3)
    for n, pair in enumerate(listed):
        assert q_of_index(n) == pair
        assert index_of_q(pair) == n
    assert len(listed) == m_offset(3) + 1


def test_roundtrip_range():
    for n in range(2000):
        assert index_of_q(q_of_index(n)) == n


@given(st.integers(min_value=0, max_value=10 ** 9))
def test_roundtrip_random(n):
    assert index_of_q(q_of_index(n)) == n


def _agrees_with_per_bit_reference(n):
    beta, alpha = pair_bits_of_index(n)
    q = q_of_index(n)
    assert (q.beta, q.alpha) == (beta, alpha)
    assert index_of_q(q) == index_of_pair_bits(beta, alpha) == n


def test_index_arithmetic_matches_per_bit_reference():
    for n in range(5000):
        _agrees_with_per_bit_reference(n)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.integers(min_value=0, max_value=m_offset(40)))
def test_index_arithmetic_matches_per_bit_reference_past_64_bits(n):
    _agrees_with_per_bit_reference(n)


def test_index_arithmetic_edge_pairs():
    assert q_of_index(0) == QPair((), ())
    assert q_of_index(0).beta == q_of_index(0).alpha == ()
    assert index_of_q(QPair((), ())) == 0
    # bool is an int subclass, so True and False are valid bits
    for beta in ((True, False), (False, True)):
        for alpha in ((True, True), (False, False)):
            pair = QPair(beta, alpha)
            assert index_of_q(pair) == index_of_pair_bits(beta, alpha)
            assert q_of_index(index_of_q(pair)) == pair
    last = m_offset(40)
    assert last > 2**64
    assert q_of_index(last) == QPair((1,) * 40, (1,) * 40)
    assert index_of_q(QPair((0,) * 41, (0,) * 41)) == last + 1


def test_successors_frozen():
    assert successors(0, 1) == frozenset({2, 4})
    assert successors(1, 0) == frozenset({5, 9})
    assert successors(0, 0) == frozenset({1, 3})


def test_is_transition_frozen():
    assert 4 in successors(0, 1)
    assert 3 not in successors(0, 1)
    assert 1 not in successors(1, 0)


def test_successors_extend_by_one_letter():
    for n in range(200):
        q = q_of_index(n)
        for m in (0, 1):
            succ = successors(n, m)
            assert len(succ) == 2
            for p in succ:
                ext = q_of_index(p)
                assert len(ext) == len(q) + 1
                assert ext.beta[:-1] == q.beta
                assert ext.alpha == q.alpha + (m,)


def test_rejects_bad_arguments():
    with pytest.raises(WorkbenchError):
        q_of_index(-1)
    with pytest.raises(WorkbenchError):
        m_offset(-1)
    with pytest.raises(WorkbenchError):
        successors(0, 2)
    with pytest.raises(WorkbenchError):
        QPair((0,), ())
    with pytest.raises(WorkbenchError):
        QPair((2,), (0,))


def test_pair_str_and_letters():
    assert str(q_of_index(0)) == "(ε,ε)"
    assert str(q_of_index(6)) == "(00,01)"
    assert q_of_index(6).letters() == ((0, 0), (0, 1))
