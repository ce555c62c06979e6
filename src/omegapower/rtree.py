"""Prefix-closed binary-pair trees presented as complete DFAs.

A presentation runs over the pair alphabet {(b,a) : b,a in {0,1}}; a pair of
equal-length binary words belongs to the tree iff reading its letter list
from the initial state ends in a live state.  Prefix closure is structural:
the initial state is live and no transition out of a non-live state enters a
live one, so once a run dies it stays dead.

JSON delta keys are two digits, guessed branch bit first: key "ba" covers
the pair letter (beta bit b, alpha bit a).

Two data primitives serve the deciders, next to step and run_pair: r.codes,
the tree compiled once into integer state ids (the ids number r.states in
order; four successor ids per state, indexed 2b + a, and a live bitmask),
and r.state_of_index(n), the id of the state that the pair of index n
reaches, walked from the bits of n without building the pair.  Both carrier
routes, ts_lasso_witness here and construction.pi_omega_knj_member, read
the tree only through these two.

ts_lasso_accepts(r, start, alpha) decides whether, starting from pair index
`start`, the input lasso alpha can be read with guessed bits so that
accepted pairs (nonempty guessed part ending in 1, pair inside the tree)
occur infinitely often.  ts_lasso_witness hands that product to
lasso.accepting_lasso, so accepted lassos come with a replayable witness of
guessed bits.
"""

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import pairs
from .errors import WorkbenchError
from .lasso import accepting_lasso
from .words import LassoWord, lasso_positions

_KEYS = ("00", "01", "10", "11")
_BITS = frozenset((0, 1))


class TreeCodes(NamedTuple):
    """A tree's integer form: state ids number r.states in order."""

    succ: tuple  # succ[x][2 * b + a]: the id state x steps to on letter (b, a)
    live: int  # bit x set iff state x is live
    initial: int


@dataclass(frozen=True)
class RTreePresentation:
    name: str
    states: tuple
    initial: str
    live: frozenset
    delta: dict  # state -> {"ba": state}

    def validate(self):
        if self.initial not in self.states:
            raise WorkbenchError("initial state unknown")
        if self.initial not in self.live:
            raise WorkbenchError("initial state must be live (the empty pair is in every tree)")
        for q in self.live:
            if q not in self.states:
                raise WorkbenchError(f"live state {q!r} unknown")
        for q in self.states:
            row = self.delta.get(q)
            if row is None or sorted(row) != sorted(_KEYS):
                raise WorkbenchError(f"state {q!r} must have all four pair transitions")
            for key, t in row.items():
                if t not in self.states:
                    raise WorkbenchError(f"transition into unknown state {t!r}")
                if q not in self.live and t in self.live:
                    raise WorkbenchError(
                        f"prefix closure violated: dead state {q!r} reaches live {t!r} on {key}"
                    )
        return self

    def step(self, state, b: int, a: int):
        return self.delta[state][f"{b}{a}"]

    def run_pair(self, pair: pairs.QPair):
        state = self.initial
        for b, a in pair.letters():
            state = self.step(state, b, a)
        return state

    @cached_property
    def codes(self) -> TreeCodes:
        """The transition table on integer ids, compiled once per tree."""
        ids = {q: x for x, q in enumerate(self.states)}
        return TreeCodes(
            tuple(tuple(ids[self.delta[q][key]] for key in _KEYS) for q in self.states),
            sum(1 << ids[q] for q in self.live),
            ids[self.initial],
        )

    def state_of_index(self, n: int) -> int:
        """The id of the state run_pair(q_of_index(n)) reaches, read from the
        bits of n's components without building the pair."""
        length, beta, alpha = pairs.split_index(n)
        succ, _, state = self.codes
        for k in range(length - 1, -1, -1):
            state = succ[state][2 * (beta >> k & 1) + (alpha >> k & 1)]
        return state


def full_tree() -> RTreePresentation:
    return RTreePresentation(
        name="full",
        states=("live",),
        initial="live",
        live=frozenset({"live"}),
        delta={"live": {k: "live" for k in _KEYS}},
    ).validate()


def diag_tree() -> RTreePresentation:
    """Pairs whose components are equal."""
    return RTreePresentation(
        name="diag",
        states=("eq", "bad"),
        initial="eq",
        live=frozenset({"eq"}),
        delta={
            "eq": {"00": "eq", "11": "eq", "01": "bad", "10": "bad"},
            "bad": {k: "bad" for k in _KEYS},
        },
    ).validate()


def tree_from_json(text: str, name: str = "custom") -> RTreePresentation:
    try:
        data = json.loads(text)
        delta = {q: dict(row) for q, row in data["delta"].items()}
        return RTreePresentation(
            name=data.get("name", name),
            states=tuple(data["states"]),
            initial=data["initial"],
            live=frozenset(data["live"]),
            delta=delta,
        ).validate()
    except WorkbenchError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise WorkbenchError(f"malformed tree document: {exc}") from exc


def r_contains(r: RTreePresentation, pair: pairs.QPair) -> bool:
    return r.run_pair(pair) in r.live


def ts_lasso_witness(r: RTreePresentation, start: int, alpha: LassoWord):
    """A replayable run witness: guessed bits for a path to a loop that
    contains an accepting hit, or None if no accepting run exists.

    The product of (tree state, lasso position) under free guessed bits runs
    on integer nodes state * len(uv) + pos over the state ids of r.codes;
    guessed bit 1 into a live state is a hit, and lasso.accepting_lasso
    searches it for a cycle through one.  The product reads the tree only
    through r.codes and r.state_of_index."""
    letters, after = lasso_positions(alpha)
    if not _BITS.issuperset(letters):
        raise WorkbenchError("input lasso must be binary")
    total = len(letters)
    succ, live, _ = r.codes

    def step(node):
        st, pos = divmod(node, total)
        nxt, a = after[pos], letters[pos]
        t0, t1 = succ[st][a], succ[st][2 + a]
        return (t0 * total + nxt, 0, False), (t1 * total + nxt, 1, live >> t1 & 1)

    found = accepting_lasso(r.state_of_index(start) * total, step)
    if found is None:
        return None
    prefix, loop = found
    return {"start_index": start, "prefix": prefix, "loop": loop}


def ts_lasso_accepts(r: RTreePresentation, start: int, alpha: LassoWord) -> bool:
    return ts_lasso_witness(r, start, alpha) is not None


def ts_replay(r: RTreePresentation, start: int, alpha: LassoWord, witness) -> bool:
    """Check a witness: replay its guessed bits and confirm the loop closes
    on the same product node and contains a hit."""
    letters, after = lasso_positions(alpha)
    state = r.run_pair(pairs.q_of_index(witness["start_index"]))
    pos = 0
    for b in witness["prefix"]:
        state = r.step(state, b, letters[pos])
        pos = after[pos]
    anchor = (state, pos)
    hit = False
    for b in witness["loop"]:
        state = r.step(state, b, letters[pos])
        pos = after[pos]
        if b == 1 and state in r.live:
            hit = True
    return hit and (state, pos) == anchor and witness["start_index"] == start


def load_tree(source: str) -> RTreePresentation:
    """Resolve "full", "diag", or a JSON file path."""
    if source == "full":
        return full_tree()
    if source == "diag":
        return diag_tree()
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise WorkbenchError(f"cannot read tree file {source!r}: {exc}") from exc
    return tree_from_json(text)
