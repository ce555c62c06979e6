"""Inverse and by-definition references for the word types.

Kept with the tests: the package canonicalizes lassos algebraically
(words.canonical_parts), splits finite words into runs of 2s
(words.run_decompose) and reads carrier letters block by block
(KnjEncodedWord.prefix).  These read the same objects the slow, direct way,
so the shipped code can be checked against them.
"""

import math

from omegapower.words import FiniteWord, KnjEncodedWord


def brute_normalize_parts(spoke, cycle):
    """Smallest (cycle length, then spoke length) representation of the
    lasso given by raw letter tuples, by direct prefix comparison."""
    u, v = tuple(spoke), tuple(cycle)

    def letter(i):
        return u[i] if i < len(u) else v[(i - len(u)) % len(v)]

    for lv in range(1, len(v) + 1):
        for lu in range(len(u) + len(v) + 1):
            cu = tuple(letter(i) for i in range(lu))
            cv = tuple(letter(lu + i) for i in range(lv))
            horizon = max(lu, len(u)) + 2 * math.lcm(lv, len(v)) + lv + len(v)

            def cand(i):
                return cu[i] if i < lu else cv[(i - lu) % lv]

            if all(cand(i) == letter(i) for i in range(horizon)):
                return cu, cv
    return u, v


def run_recompose(runs, size=4) -> FiniteWord:
    """The word that run_decompose splits into runs: each delimiter (none
    for a leading run) followed by its run of 2s."""
    out = []
    for d, k in runs:
        if d is not None:
            out.append(d)
        out.extend([2] * k)
    return FiniteWord(out, size)


def block_start(w: KnjEncodedWord, i: int) -> int:
    """Position of block i's letter m_i in the carrier word w."""
    pos = w.n
    for k in range(i):
        pos += 2 * w.block_run(k) + 2
    return pos
