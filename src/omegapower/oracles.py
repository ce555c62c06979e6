"""Second-route evaluators for cross-checking the primary deciders.

Each function re-answers a question some primary decider answers, with as
little shared machinery as possible: factor-cut searches instead of
classification maps and product automata, a definitional listing of pairs
instead of index arithmetic.  The primary deciders never import this module.
"""

import itertools

from . import pairs
from .verdicts import Member
from .words import FiniteWord, LassoWord


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
