"""Lasso corpora for the verification suites.

Exhaustive enumeration yields each ultimately periodic word exactly once:
a candidate (u, v) is kept only when it is its own canonical form, so the
words come out deduplicated without bookkeeping.  Random generation is
seeded and deduplicates on the canonical form.

A filter keep(spoke, cycle) receives the raw letter tuples or lists of a
candidate, before any LassoWord is built, and must answer a property of
the omega-word spoke cycle^omega, the same for every representation of it
(erasing.t_lasso and erasing.t_keep are such filters).  Only kept
candidates are canonicalized, so a rejected random draw costs no LassoWord
and takes no place in the deduplication set.
"""

import itertools
import random

from .errors import check_count, check_size
from .words import LassoWord, canonical_parts


def corpus_lassos(size: int, max_spoke: int, max_cycle: int, keep=None):
    """All distinct lassos over 0..size-1 with canonical |u| <= max_spoke
    and |v| <= max_cycle, by |u|, then |v|, then lex: (001) comes before
    0(1).  The suite digests depend on this order."""
    letters = range(check_size(size))
    for lu in range(check_count(max_spoke, "max_spoke") + 1):
        for lv in range(1, check_count(max_cycle, "max_cycle") + 1):
            for u in itertools.product(letters, repeat=lu):
                for v in itertools.product(letters, repeat=lv):
                    if keep is not None and not keep(u, v):
                        continue
                    if canonical_parts(u, v) != (u, v):
                        continue
                    yield LassoWord._trusted(u, v, size)


def random_lassos(
    size: int,
    count: int,
    max_spoke: int,
    max_cycle: int,
    seed: int,
    keep=None,
):
    """Up to count distinct random lassos; deterministic in the seed."""
    check_size(size)
    check_count(max_spoke, "max_spoke")
    check_count(max_cycle, "max_cycle")
    rng = random.Random(check_count(seed, "seed", signed=True))
    randrange, randint = rng.randrange, rng.randint
    out = []
    seen = set()
    for _ in range(check_count(count, "count") * 200):
        if len(out) >= count:
            break
        u = [randrange(size) for _ in range(randint(0, max_spoke))]
        v = [randrange(size) for _ in range(randint(1, max_cycle))]
        # a rejected draw is never output, so it need not enter seen
        if keep is not None and not keep(u, v):
            continue
        parts = canonical_parts(u, v)
        if parts in seen:
            continue
        seen.add(parts)
        out.append(LassoWord._trusted(*parts, size))
    return out
