"""Tree documents and the accepted-pair predicate, read from a pair.

Kept with the tests: the package reads tree documents (rtree.tree_from_json)
but never writes one, and its deciders test acceptance of a pair on the
compiled tree (RTreePresentation.codes) without building the pair.  These
write the documents the reader is tested on, and decide acceptance of a
pair index from the pair itself.
"""

import json

from omegapower import pairs
from omegapower.rtree import RTreePresentation, r_contains


def tree_to_json(r: RTreePresentation) -> str:
    return json.dumps(
        {
            "name": r.name,
            "states": list(r.states),
            "initial": r.initial,
            "live": sorted(r.live),
            "delta": {q: dict(sorted(row.items())) for q, row in sorted(r.delta.items())},
        },
        indent=2,
        sort_keys=True,
    )


def qf_member(r: RTreePresentation, n: int) -> bool:
    """Accepting pair indices: guessed part nonempty, ends in 1, pair in r."""
    p = pairs.q_of_index(n)
    if not p.beta or p.beta[-1] != 1:
        return False
    return r_contains(r, p)
