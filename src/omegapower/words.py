"""Word types: finite words, ultimately periodic words, carrier-set words.

Finite words are tuples of small ints with a declared alphabet size.
LassoWord u(v) denotes u v v v ...; it is canonicalized on construction
(primitive cycle, minimal spoke), so structural equality coincides with
equality of the denoted omega-words.  KnjEncodedWord(N, j, m) denotes

    2^N  m_0 2^{M_{j+1}} 3 2^{M_{j+1}}  m_1 2^{M_{j+2}} 3 2^{M_{j+2}} ...

over the 4-letter alphabet, where m is a binary lasso and M is the block
offset from pairs.m_offset.  Block i of the expansion means the segment
m_i 2^M 3 2^M.  Such words are never ultimately periodic (the runs grow),
which is why they get their own representation.
"""

import operator

from .errors import InvalidAddress, WorkbenchError, all_bits, check_count, check_size
from . import pairs


class FiniteWord:
    __slots__ = ("letters", "size")

    def __init__(self, letters=(), size=None):
        letters = _int_letters(letters)
        if size is None:
            size = max(2, max(letters) + 1) if letters else 2
        check_size(size)
        for x in letters:
            if not 0 <= x < size:
                raise WorkbenchError(f"letter {x} outside alphabet of size {size}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "size", size)

    @classmethod
    def _trusted(cls, letters: tuple, size: int) -> "FiniteWord":
        """A word from a tuple of ints already known to lie in range(size),
        for internal producers; public construction checks every letter."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        object.__setattr__(w, "size", size)
        return w

    def __setattr__(self, *_):
        # words are hashed and shared as dict keys: letters never change
        raise AttributeError("FiniteWord is immutable")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return FiniteWord._trusted(self.letters[key], self.size)
        return self.letters[key]

    def __eq__(self, other):
        # alphabet size is presentation only; words compare by letters
        if isinstance(other, FiniteWord):
            return self.letters == other.letters
        # a finite word equals no lasso, carrier or letter tuple
        return NotImplemented

    def __hash__(self):
        return hash(self.letters)

    def __str__(self):
        return "".join(map(str, self.letters)) if self.letters else "ε"

    def __repr__(self):
        return f"FiniteWord({str(self)!r}, size={self.size})"


def _int_letters(letters) -> tuple:
    """Each letter as an int, in an exact-size tuple (tuple(genexpr) grows
    its result by resizing).  A word gives its letters and a tuple of ints
    is kept as it is.  Otherwise a str letter counts only if it is ASCII
    digits, and any other letter goes through operator.index, so 1.7, "+1"
    and "١" are refused, not read as 1.  A letter that neither takes, or an
    argument that is not iterable, is a WorkbenchError."""
    if isinstance(letters, FiniteWord):
        return letters.letters
    if type(letters) is tuple and all(type(x) is int for x in letters):
        return letters
    try:
        letters = iter(letters)
    except TypeError:
        raise WorkbenchError(f"not a letter sequence: {letters!r}") from None
    out = []
    for x in letters:
        try:
            ascii_digits = isinstance(x, str) and x.isascii() and x.isdigit()
            out.append(int(x) if ascii_digits else operator.index(x))
        except (TypeError, ValueError):
            raise WorkbenchError(f"not a letter: {x!r}") from None
    return tuple(out)


def _primitive(cycle: tuple) -> tuple:
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle[:d] * (n // d) == cycle:
            return cycle[:d]
    return cycle


def canonical_parts(spoke, cycle):
    """Canonical (spoke, cycle) letter tuples: primitive cycle, shortest
    spoke (a shared tail is absorbed into a rotation of the cycle)."""
    spoke = tuple(spoke)
    cycle = _primitive(tuple(cycle))
    n = len(cycle)
    if not n:
        raise WorkbenchError("lasso cycle must be nonempty")
    # absorbing k trailing spoke letters rotates the cycle right by k, so
    # the next one, spoke[-1-k], is absorbed iff it equals cycle[-1-k]
    # (cyclically); count them all, then cut and rotate once
    ls = len(spoke)
    k = 0
    while k < ls and spoke[ls - 1 - k] == cycle[(-1 - k) % n]:
        k += 1
    if k:
        r = n - k % n
        spoke, cycle = spoke[: ls - k], cycle[r:] + cycle[:r]
    return spoke, cycle


class LassoWord:
    """The omega-word spoke . cycle^omega, stored canonically."""

    __slots__ = ("spoke", "cycle")

    def __init__(self, spoke, cycle, size=None):
        if size is None:
            if isinstance(spoke, FiniteWord):
                size = spoke.size
            if isinstance(cycle, FiniteWord):
                size = max(size or 2, cycle.size)
        u, v = canonical_parts(_int_letters(spoke), _int_letters(cycle))
        if size is None:
            size = max(2, max(u + v) + 1)
        object.__setattr__(self, "spoke", FiniteWord(u, size))
        object.__setattr__(self, "cycle", FiniteWord(v, size))

    @classmethod
    def _trusted(cls, u: tuple, v: tuple, size: int) -> "LassoWord":
        """The lasso u(v) from canonical_parts output whose letters are
        already known to lie in range(size), for internal producers;
        public construction canonicalizes and checks every letter."""
        w = object.__new__(cls)
        object.__setattr__(w, "spoke", FiniteWord._trusted(u, size))
        object.__setattr__(w, "cycle", FiniteWord._trusted(v, size))
        return w

    def __setattr__(self, *_):
        # structural equality means the denoted omega-word only while the
        # stored parts stay canonical, so they never change
        raise AttributeError("LassoWord is immutable")

    @property
    def size(self):
        return max(self.spoke.size, self.cycle.size)

    def letter_at(self, i: int) -> int:
        check_count(i, "letter position")
        u, v = self.spoke.letters, self.cycle.letters
        if i < len(u):
            return u[i]
        return v[(i - len(u)) % len(v)]

    def prefix(self, n: int) -> FiniteWord:
        check_count(n, "prefix length")
        u, v = self.spoke.letters, self.cycle.letters
        if n <= len(u):
            return FiniteWord._trusted(u[:n], self.size)
        rest = n - len(u)
        reps, tail = divmod(rest, len(v))
        return FiniteWord._trusted(u + v * reps + v[:tail], self.size)

    def __eq__(self, other):
        if isinstance(other, LassoWord):
            return (
                self.spoke.letters == other.spoke.letters
                and self.cycle.letters == other.cycle.letters
            )
        # a lasso never equals a finite word, and never a carrier, whose runs
        # grow
        return NotImplemented

    def __hash__(self):
        return hash((self.spoke.letters, self.cycle.letters))

    def __str__(self):
        u = "".join(map(str, self.spoke.letters))
        v = "".join(map(str, self.cycle.letters))
        return f"{u}({v})"

    def __repr__(self):
        return f"LassoWord({str(self)!r})"


def lasso_positions(w: LassoWord):
    """The positions 0 .. |uv|-1 of u(v) as a product component: the letters
    of uv, and the position after each (the last one steps back to |u|, the
    start of the cycle)."""
    letters = w.spoke.letters + w.cycle.letters
    return letters, list(range(1, len(letters))) + [len(w.spoke.letters)]


def check_address(n: int, j: int) -> None:
    """Refuse a carrier address (N, j) unless N, j are counts and N <= M_j."""
    check_count(n, "address N", InvalidAddress)
    check_count(j, "address j", InvalidAddress)
    if n > pairs.m_offset(j):
        raise InvalidAddress(f"N={n} exceeds M_{j}={pairs.m_offset(j)}")


class KnjEncodedWord:
    """Carrier-set word: address (N, j) plus the binary block-letter lasso m."""

    __slots__ = ("n", "j", "m")

    def __init__(self, n: int, j: int, m: LassoWord):
        check_address(n, j)
        if not isinstance(m, LassoWord):
            raise WorkbenchError("block letters must form a lasso")
        if not all_bits(m.spoke.letters + m.cycle.letters):
            raise WorkbenchError("block letters must be binary")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "m", m)

    def __setattr__(self, *_):
        # __init__ checked the address and the block letters once; they hold
        # only while the fields never change
        raise AttributeError("KnjEncodedWord is immutable")

    size = 4

    def block_run(self, i: int) -> int:
        """Length of each 2-run in block i."""
        return pairs.m_offset(self.j + check_count(i, "block index") + 1)

    def prefix(self, n: int) -> FiniteWord:
        check_count(n, "prefix length")
        out = [2] * min(self.n, n)
        b = 0
        while len(out) < n:
            run = self.block_run(b)
            for letter, count in ((self.m.letter_at(b), 1), (2, run), (3, 1), (2, run)):
                out += [letter] * min(count, n - len(out))
            b += 1
        # letters 2 and 3 plus block letters, which __init__ checked binary
        return FiniteWord._trusted(tuple(out), 4)

    def __eq__(self, other):
        if isinstance(other, KnjEncodedWord):
            return (self.n, self.j, self.m) == (other.n, other.j, other.m)
        # a carrier is never ultimately periodic, so it equals no lasso
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.j, self.m))

    def __str__(self):
        return f"K[{self.n},{self.j}]{self.m}"

    def __repr__(self):
        return f"KnjEncodedWord({self.n}, {self.j}, {self.m!r})"


def prefix(w, n: int) -> FiniteWord:
    if isinstance(w, (LassoWord, KnjEncodedWord)):
        return w.prefix(n)
    raise WorkbenchError(f"not an infinite word: {w!r}")
