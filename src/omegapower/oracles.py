"""Second-route evaluators for cross-checking the primary deciders.

Each function re-answers a question some primary decider answers, with as
little shared machinery as possible: factor-cut searches instead of
classification maps, brute prefix comparison instead of algebraic
canonicalization.  The primary deciders never import this module.
"""

import itertools
import math

from . import pairs
from .erasing import erase_fin
from .verdicts import Member
from .words import FiniteWord, LassoWord, prefix


def enumerate_pairs(max_len: int):
    """All pairs of length <= max_len in definitional order: by length,
    then lexicographically with the guessed component as the major key."""
    out = [pairs.QPair((), ())]
    for length in range(1, max_len + 1):
        for beta in itertools.product((0, 1), repeat=length):
            for alpha in itertools.product((0, 1), repeat=length):
                out.append(pairs.QPair(beta, alpha))
    return out


def omega_factor_evidence(w: LassoWord, member, max_factor: int) -> Member:
    """Cut-graph search for an infinite factorization of a lasso into
    member-words of length <= max_factor.

    YES is a certificate (a reachable factor cycle replays forever).  NO
    refutes factorizations whose factor lengths stay within the cap, which
    is evidence, not proof, against longer-factor decompositions.
    """
    u, v = w.spoke.letters, w.cycle.letters
    ulen, vlen = len(u), len(v)

    def norm(pos):
        return pos if pos < ulen else ulen + (pos - ulen) % vlen

    # every segment starts before ulen + vlen and is at most max_factor long
    letters = w.prefix(ulen + vlen + max_factor).letters
    edges = {}
    stack = [0]
    seen = {0}
    while stack:
        pos = stack.pop()
        outs = []
        for f in range(1, max_factor + 1):
            segment = FiniteWord._trusted(letters[pos : pos + f], w.size)
            if member(segment):
                node = norm(pos + f)
                outs.append(node)
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
        edges[pos] = outs
    for node in edges:
        frontier = list(edges[node])
        visited = set(frontier)
        while frontier:
            cur = frontier.pop()
            if cur == node:
                return Member.YES
            for t in edges[cur]:
                if t not in visited:
                    visited.add(t)
                    frontier.append(t)
    return Member.NO


def stabilized_erase_prefix(a: LassoWord, depth: int) -> FiniteWord:
    """Stabilized prefix of the erase image of a T-lasso: erase two prefix
    depths directly and keep the positions on which they agree."""
    e1 = erase_fin(prefix(a, depth))
    e2 = erase_fin(prefix(a, 3 * depth))
    keep = 0
    while keep < len(e1) and keep < len(e2) and e1.letters[keep] == e2.letters[keep]:
        keep += 1
    return FiniteWord(e1.letters[:keep], 2)


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
