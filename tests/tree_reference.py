"""Tree documents, the by-definition tree walk, and the accepted-pair
predicate, read from a pair.

Kept with the tests: the package reads tree documents (rtree.tree_from_json)
but never writes one, and it reads a tree only through its compiled form
(RTreePresentation.codes and state_of_index), never by walking r.delta.
These write the documents the reader is tested on, and hold the only walker
of r.delta: step, run_pair and r_contains follow the "ba" keys of the tree
document letter by letter, independent of the compiled codes they check.
"""

import json

from omegapower import pairs
from omegapower.rtree import RTreePresentation


def step(r: RTreePresentation, q, b: int, a: int):
    """The state r steps to from state q on the pair letter (b, a)."""
    return r.delta[q][f"{b}{a}"]


def run_pair(r: RTreePresentation, pair: pairs.QPair):
    """The state r reaches reading pair from its initial state."""
    q = r.initial
    for b, a in pair.letters():
        q = step(r, q, b, a)
    return q


def r_contains(r: RTreePresentation, pair: pairs.QPair) -> bool:
    return run_pair(r, pair) in r.live


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
