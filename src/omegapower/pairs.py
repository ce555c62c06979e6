"""Enumeration of equal-length binary word pairs and their block offsets.

Q is the set of pairs (beta, alpha) of binary words with |beta| = |alpha|,
listed by length and then lexicographically with beta as the major key.
Index 0 is the empty pair.  There are 4^L pairs of length L, so the last
pair of length j sits at index

    M_j = sum_{0 < i <= j} 4^i = (4^(j+1) - 4) // 3

which doubles as the run-length budget of the carrier-set codec.  A step
n -m-> p appends the input bit m to the alpha part and a free bit b to the
beta part, so every index has exactly two successors per input bit.
"""

from dataclasses import dataclass

from .errors import WorkbenchError

Bits = tuple  # tuple of 0/1 ints


@dataclass(frozen=True)
class QPair:
    """An equal-length pair of binary words (beta first)."""

    beta: Bits
    alpha: Bits

    def __post_init__(self):
        if len(self.beta) != len(self.alpha):
            raise WorkbenchError("pair components must have equal length")
        for b in self.beta + self.alpha:
            if b not in (0, 1):
                raise WorkbenchError("pair components must be binary")

    @classmethod
    def _trusted(cls, beta: Bits, alpha: Bits) -> "QPair":
        """A pair from equal-length bit tuples already known to be binary,
        for q_of_index; public construction checks every bit."""
        p = object.__new__(cls)
        object.__setattr__(p, "beta", beta)
        object.__setattr__(p, "alpha", alpha)
        return p

    def __len__(self):
        return len(self.beta)

    def letters(self):
        """The pair word: one (beta bit, alpha bit) letter per position."""
        return tuple(zip(self.beta, self.alpha))

    def __str__(self):
        b = "".join(map(str, self.beta)) or "ε"
        a = "".join(map(str, self.alpha)) or "ε"
        return f"({b},{a})"


def m_offset(j: int) -> int:
    """M_j, the index of the last pair of length j."""
    if j < 0:
        raise WorkbenchError("block offset undefined for negative j")
    return (4 ** (j + 1) - 4) // 3


def m_index(value: int):
    """Inverse of m_offset: j with M_j == value, or None.

    3 M_j + 4 = 4^(j+1), so value is an offset iff 3 value + 4 is a power of
    two with an odd bit length 2j + 3."""
    x = 3 * value + 4
    if value < 0 or x & (x - 1) or not x.bit_length() & 1:
        return None
    return (x.bit_length() - 3) // 2


def _bits_of(value: int, width: int) -> Bits:
    return tuple([value >> k & 1 for k in range(width - 1, -1, -1)])


def split_index(n: int):
    """(length, beta, alpha) of the pair of index n, its two components as
    integers whose length-bit binary forms are the bit words."""
    if n < 0:
        raise WorkbenchError("pair index must be nonnegative")
    # the smallest L with M_L >= n: 4^(L+1) >= 3n + 4, i.e. 2L + 2 >= bits of 3n + 3
    length = max(0, ((3 * n + 3).bit_length() + 1) // 2 - 1)
    if length == 0:
        return 0, 0, 0
    rank = n - (4 ** length - 4) // 3 - 1  # minus M_{L-1} + 1, the first index of length L
    return length, rank >> length, rank & ((1 << length) - 1)


def q_of_index(n: int) -> QPair:
    length, beta, alpha = split_index(n)
    return QPair._trusted(_bits_of(beta, length), _bits_of(alpha, length))


def index_of_q(pair: QPair) -> int:
    length = len(pair)
    if length == 0:
        return 0
    beta = 0
    alpha = 0
    for b, a in zip(pair.beta, pair.alpha):
        beta = (beta << 1) | b
        alpha = (alpha << 1) | a
    return m_offset(length - 1) + 1 + (beta << length) + alpha


def successors(n: int, m: int) -> frozenset:
    """Indices reachable from index n by one step on input bit m."""
    if m not in (0, 1):
        raise WorkbenchError("input bit must be 0 or 1")
    p = q_of_index(n)
    return frozenset(
        index_of_q(QPair(p.beta + (b,), p.alpha + (m,))) for b in (0, 1)
    )
