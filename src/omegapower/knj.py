"""Carrier-set codec: addresses (N, j), the block-letter map and its inverse.

A carrier word with address (N, j), N <= M_j, expands to

    2^N  m_0 2^{M_{j+1}} 3 2^{M_{j+1}}  m_1 2^{M_{j+2}} 3 2^{M_{j+2}} ...

phi reads the block letters m back off; phi_inverse builds the word.
knj_prefix_consistent checks whether a finite word matches this template
for some choice of block letters (the m_i positions are free bits).
"""

from dataclasses import dataclass

from . import pairs
from .errors import InvalidAddress, NotInKnj
from .words import FiniteWord, KnjEncodedWord, LassoWord


@dataclass(frozen=True)
class KnjAddress:
    n: int
    j: int

    def __post_init__(self):
        if self.j < 0 or self.n < 0:
            raise InvalidAddress("address components must be nonnegative")
        if self.n > pairs.m_offset(self.j):
            raise InvalidAddress(
                f"N={self.n} exceeds M_{self.j}={pairs.m_offset(self.j)}"
            )


def phi_inverse(m: LassoWord, addr: KnjAddress) -> KnjEncodedWord:
    return KnjEncodedWord(addr.n, addr.j, m)


def phi(w) -> LassoWord:
    """Block letters of a carrier word."""
    if isinstance(w, KnjEncodedWord):
        return w.m
    raise NotInKnj(f"{w} is not a carrier-set word")


def knj_prefix_consistent(s: FiniteWord, addr: KnjAddress) -> bool:
    """True iff s is a prefix of some carrier word with address addr."""
    letters = s.letters
    n = len(letters)
    take = min(addr.n, n)
    if letters[:take] != (2,) * take:
        return False
    pos, block = take, 0
    while pos < n:
        if letters[pos] not in (0, 1):  # free block letter
            return False
        pos += 1
        run = pairs.m_offset(addr.j + block + 1)
        for count, x in ((run, 2), (1, 3), (run, 2)):
            take = min(count, n - pos)
            if letters[pos : pos + take] != (x,) * take:
                return False
            pos += take
        block += 1
    return True
