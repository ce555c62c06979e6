"""Per-bit references for the pair index arithmetic.

Kept with the tests: the package turns a pair index into bits and back
through one binary-digit string (pairs.q_of_index, pairs.index_of_q).
These find the length by searching the block offsets and walk the two
components one bit at a time, so the shipped code can be checked against
them.
"""

from omegapower.pairs import m_offset


def bits_of(value, width):
    """The width-bit binary word of value, most significant bit first."""
    return tuple(value >> k & 1 for k in range(width - 1, -1, -1))


def pair_bits_of_index(n):
    """(beta, alpha) of the pair of index n, as bit tuples: its length L is
    the smallest with M_L >= n, and n - M_(L-1) - 1 ranks it among the
    pairs of that length, beta as the major key."""
    length = 0
    while m_offset(length) < n:
        length += 1
    rank = n - m_offset(length - 1) - 1 if length else 0
    return bits_of(rank >> length, length), bits_of(rank & ((1 << length) - 1), length)


def index_of_pair_bits(beta, alpha):
    """The index of the pair (beta, alpha), folding in one bit at a time."""
    length = len(beta)
    if length == 0:
        return 0
    b = a = 0
    for x, y in zip(beta, alpha):
        b = (b << 1) | x
        a = (a << 1) | y
    return m_offset(length - 1) + 1 + (b << length) + a
