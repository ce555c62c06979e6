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

from .errors import WorkbenchError, all_bits, check_count


@dataclass(frozen=True)
class QPair:
    """An equal-length pair of binary words (beta first)."""

    beta: tuple  # bits, as all_bits reads them
    alpha: tuple

    def __post_init__(self):
        if len(self.beta) != len(self.alpha):
            raise WorkbenchError("pair components must have equal length")
        if not all_bits(self.beta + self.alpha):
            raise WorkbenchError("pair components must be binary")

    @classmethod
    def _trusted(cls, beta: tuple, alpha: tuple) -> "QPair":
        """A pair from equal-length bit tuples already known to be binary,
        for q_of_index; public construction checks every bit."""
        p = object.__new__(cls)
        # frozen blocks setattr, not the instance dict the fields live in
        fields = p.__dict__
        fields["beta"] = beta
        fields["alpha"] = alpha
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
    return (4 ** (check_count(j, "block depth j") + 1) - 4) // 3


def m_index(value: int):
    """Inverse of m_offset: j with M_j == value, or None.

    3 M_j + 4 = 4^(j+1), so value is an offset iff 3 value + 4 is a power of
    two with an odd bit length 2j + 3."""
    x = 3 * check_count(value, "block offset", signed=True) + 4
    if value < 0 or x & (x - 1) or not x.bit_length() & 1:
        return None
    return (x.bit_length() - 3) // 2


def _length_rank(n: int):
    """(L, rank) of the pair of index n: its length and its place among the
    4^L pairs of that length, whose 2L binary digits are beta then alpha."""
    check_count(n, "pair index")
    # the smallest L with M_L >= n: 4^(L+1) >= 3n + 4, i.e. 2L + 2 >= bits of 3n + 3
    length = ((3 * n + 3).bit_length() + 1) // 2 - 1
    # minus (4^L - 1) // 3 = M_(L-1) + 1, the first index of length L (0 for L = 0)
    return length, n - ((1 << 2 * length) - 1) // 3


def split_index(n: int):
    """(length, beta, alpha) of the pair of index n, its two components as
    integers whose length-bit binary forms are the bit words."""
    length, rank = _length_rank(n)
    return length, rank >> length, rank & ((1 << length) - 1)


def join_index(length: int, beta: int, alpha: int) -> int:
    """Inverse of split_index: the index of the pair of that length whose
    components, as integers, are beta and alpha."""
    return ((1 << 2 * length) - 1) // 3 + (beta << length | alpha)


# binary digits to bits and back, for bytes.translate
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def q_of_index(n: int) -> QPair:
    length, rank = _length_rank(n)
    # a leading 1 keeps all 2L digits of beta alpha, leading zeros included
    bits = tuple(f"{1 << 2 * length | rank:b}".encode().translate(_DIGIT_BITS))
    return QPair._trusted(bits[1 : length + 1], bits[length + 1 :])


def index_of_q(pair: QPair) -> int:
    length = len(pair.beta)
    if length == 0:
        return 0
    digits = bytes(pair.beta + pair.alpha).translate(_BIT_DIGITS)
    return ((1 << 2 * length) - 1) // 3 + int(digits, 2)


def successors(n: int, m: int) -> frozenset:
    """Indices reachable from index n by one step on input bit m (QPair checks m)."""
    p = q_of_index(n)
    return frozenset(
        index_of_q(QPair(p.beta + (b,), p.alpha + (m,))) for b in (0, 1)
    )
