"""Canonicalize-then-filter reference for the seeded random lasso sampler.

Kept with the tests: corpus.random_lassos tests its filter on the raw
(spoke, cycle) of each draw and canonicalizes only the kept ones; this is
the earlier form, which builds a range-checked canonical LassoWord for
every draw, deduplicates all of them, and filters the LassoWord.  Both
draw from the same random stream, so they must return the same list.
"""

import random

from omegapower.words import LassoWord


def filter_after_canonical(size, count, max_spoke, max_cycle, seed, keep=None):
    """Up to count distinct random lassos; keep takes a LassoWord."""
    rng = random.Random(seed)
    out = []
    seen = set()
    for _ in range(count * 200):
        if len(out) >= count:
            break
        u = [rng.randrange(size) for _ in range(rng.randint(0, max_spoke))]
        v = [rng.randrange(size) for _ in range(rng.randint(1, max_cycle))]
        w = LassoWord(u, v, size=size)
        if w in seen:
            continue
        seen.add(w)
        if keep is None or keep(w):
            out.append(w)
    return out
