"""Inverse and by-definition references for the word types.

Kept with the tests: the package canonicalizes lassos algebraically
(words.canonical_parts), parses block-coded words with one regular
expression over the letter bytes (construction._delimited_blocks) and reads
carrier letters block by block (KnjEncodedWord.prefix).  These read the
same objects the slow, direct way, so the shipped code can be checked
against them.
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


def run_decompose(s: FiniteWord):
    """Runs of 2s between delimiter letters.

    Returns [(delimiter, following 2-run length), ...]; a nonempty leading
    2-run is reported with delimiter None.  Lossless: writing each delimiter
    followed by its run of 2s gives back s.
    """
    out = []
    d, k = None, 0
    for x in s.letters:
        if x == 2:
            k += 1
            continue
        if d is not None or k:
            out.append((d, k))
        d, k = x, 0
    if d is not None or k:
        out.append((d, k))
    return out


def run_recompose(runs, size=4) -> FiniteWord:
    """The word that run_decompose splits into runs: each delimiter (none
    for a leading run) followed by its run of 2s."""
    out = []
    for d, k in runs:
        if d is not None:
            out.append(d)
        out.extend([2] * k)
    return FiniteWord(out, size)


def delimited_blocks(s: FiniteWord):
    """(leading 2-run, [(m, P, R), ...]) if s is 2^N (m 2^P 3 2^R)+ with m
    in {0, 1}, else None: read off the runs, delimiters pairing up as a
    block letter then a 3."""
    runs = run_decompose(s)
    lead = 0
    if runs and runs[0][0] is None:
        lead = runs.pop(0)[1]
    if not runs or len(runs) % 2 != 0:
        return None
    blocks = []
    for (m, p), (d, r) in zip(runs[::2], runs[1::2]):
        if m not in (0, 1) or d != 3:
            return None
        blocks.append((m, p, r))
    return lead, blocks


def block_start(w: KnjEncodedWord, i: int) -> int:
    """Position of block i's letter m_i in the carrier word w."""
    pos = w.n
    for k in range(i):
        pos += 2 * w.block_run(k) + 2
    return pos
