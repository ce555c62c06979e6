"""Second-route evaluators for cross-checking the primary deciders.

Each function re-answers a question some primary decider answers, with as
little shared machinery as possible: a factor-cut graph, searched by
lasso.accepting_lasso, instead of classification maps, and a definitional
listing of pairs instead of index arithmetic.  The primary deciders never
import this module.
"""

import itertools

from . import pairs
from .lasso import accepting_lasso
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

    Every factor is a hit edge between cut positions.  YES is a certificate
    (a reachable factor cycle replays forever).  NO refutes factorizations
    whose factor lengths stay within the cap, which is evidence, not proof,
    against longer-factor decompositions.
    """
    u, v = w.spoke.letters, w.cycle.letters
    ulen, vlen = len(u), len(v)

    def norm(pos):
        return pos if pos < ulen else ulen + (pos - ulen) % vlen

    # every segment starts before ulen + vlen and is at most max_factor long
    letters = w.prefix(ulen + vlen + max_factor).letters

    def step(pos):
        return [
            (norm(pos + f), f, True)
            for f in range(1, max_factor + 1)
            if member(FiniteWord._trusted(letters[pos : pos + f], w.size))
        ]

    return Member.of(accepting_lasso(0, step) is not None)
