"""Prefix-closed binary-pair trees presented as complete DFAs.

A presentation runs over the pair alphabet {(b,a) : b,a in {0,1}}; a pair of
equal-length binary words belongs to the tree iff reading its letter list
from the initial state ends in a live state.  Prefix closure is structural:
the initial state is live and no transition out of a non-live state enters a
live one, so once a run dies it stays dead.

JSON delta keys are two digits, guessed branch bit first: key "ba" covers
the pair letter (beta bit b, alpha bit a).

The package reads a tree only through two data primitives: r.codes, the
tree compiled once into integer state ids (the ids number r.states in
order; four successor ids per state, indexed 2b + a, and a live bitmask),
and r.state_of_index(n), the id of the state that the pair of index n
reaches, walked from the bits of n without building the pair; the walk of
r.delta by definition lives with the tests.  Both carrier routes,
ts_lasso_witness here and construction.pi_omega_knj_member, key their
per-cycle memos by r.codes, never by r.name: two trees share a memo entry
iff they compile to the same codes, whatever their names.

ts_lasso_accepts(r, start, alpha) decides whether, starting from pair index
`start`, the input lasso alpha can be read with guessed bits so that
accepted pairs (nonempty guessed part ending in 1, pair inside the tree)
occur infinitely often: exactly when ts_lasso_witness finds a witness.
Only the cycle of alpha holds product cycles, so ts_lasso_witness hands the
cycle-only product to lasso.accepting_lasso once per (tree, cycle, entry
state), keeps the answers, and per call walks the spoke to the entry
states; accepted lassos come with a replayable witness of guessed bits,
which ts_replay checks.
"""

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from . import pairs
from .errors import WorkbenchError, all_bits
from .lasso import accepting_lasso
from .words import LassoWord, lasso_positions

_KEYS = ("00", "01", "10", "11")


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
        """The id of the state the pair of index n leads to from the initial
        state, read from the bits of n's components without building it."""
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


def tree_from_json(text: str) -> RTreePresentation:
    """The tree a JSON document describes (README "Tree documents")."""
    try:
        data = json.loads(text)
        name, initial = data.get("name", "custom"), data["initial"]
        states, live, delta = data["states"], data["live"], data["delta"]
        if not (
            type(states) is list and type(live) is list and type(delta) is dict
            and all(type(q) is str for q in [name, initial, *states, *live])
            and name.isprintable() and all(type(row) is dict for row in delta.values())
        ):
            raise WorkbenchError("malformed tree document: a field has the wrong type")
        return RTreePresentation(name, tuple(states), initial, frozenset(live), delta).validate()
    except (KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        # json.loads raises RecursionError on documents nested too deeply
        raise WorkbenchError(f"malformed tree document: {exc}") from exc


# per-cycle memos _cycle_lassos keeps: the theorem2 gate meets 22 cycles per tree
_CYCLES = 128


@lru_cache(maxsize=_CYCLES)
def _cycle_lassos(codes, v):
    """The memo of one (compiled tree, binary cycle v): a dict from entry
    state id to what _entry_lasso found from it, filled by ts_lasso_witness
    one entry state at a time, and the set of product nodes known to reach
    no accepting cycle."""
    return {}, set()


def _entry_lasso(codes, v, state, dead):
    """accepting_lasso on the cycle-only product from (state, 0): nodes
    state * |v| + pos over the state ids of codes, edges under free guessed
    bits, guessed bit 1 into a live state a hit.

    Edges into the nodes in dead are left out: no accepting cycle is
    reachable through them.  A pass that finds none adds every node it
    explored to dead, so the passes that answer None explore each product
    node at most once between them."""
    succ, live, _ = codes
    total = len(v)
    explored = []

    def step(node):
        explored.append(node)
        st, pos = divmod(node, total)
        a, nxt = v[pos], (pos + 1) % total
        t0, t1 = succ[st][a], succ[st][2 + a]
        edges = (t0 * total + nxt, 0, False), (t1 * total + nxt, 1, live >> t1 & 1)
        return [e for e in edges if e[0] not in dead]

    if state * total in dead:
        return None
    found = accepting_lasso(state * total, step)
    if found is None:
        dead.update(explored)
    return found


def ts_lasso_witness(r: RTreePresentation, start: int, alpha: LassoWord):
    """A replayable run witness: guessed bits for a path to a loop that
    contains an accepting hit, or None if no accepting run exists.

    The product of (tree state, lasso position) under free guessed bits
    has a guessed bit 1 into a live state as a hit.  Lemma: every cycle of
    it lies on cycle positions and passes cycle position 0, and a run
    meets each spoke position once, so an accepting run exists iff some
    entry state, a state reachable at the end of the spoke u, has a cycle
    through a hit reachable in the cycle-only product (state, pos in v).
    That depends on the tree and v alone, so _cycle_lassos keeps, per
    (r.codes, v), the answer of accepting_lasso for each entry state asked
    so far, for the last _CYCLES such pairs.

    Each call reads start afresh: it walks u from r.state_of_index(start),
    keeping one bit path per reachable state, and takes the reachable
    entry states in id order until one has an accepting lasso; the
    witness is its spoke bits followed by that lasso.  A warm query runs
    no kernel pass.  A cold one runs at most one per reachable entry state
    not yet asked, and of those only the last can find a lasso; the
    others share one set of explored nodes (_entry_lasso).  So with n
    tree states it explores at most 2 n |v| product nodes, besides the
    n |u| of the spoke walk.  The product reads the tree only through
    r.codes and r.state_of_index."""
    u, v = alpha.spoke.letters, alpha.cycle.letters
    if not all_bits(u + v):
        raise WorkbenchError("input lasso must be binary")
    codes = r.codes
    succ = codes.succ
    layers = [{r.state_of_index(start): None}]
    for a in u:
        layer = {}
        for st in layers[-1]:
            layer.setdefault(succ[st][a], (st, 0))
            layer.setdefault(succ[st][2 + a], (st, 1))
        layers.append(layer)
    found, dead = _cycle_lassos(codes, v)
    for entry in sorted(layers[-1]):
        if entry not in found:
            found[entry] = _entry_lasso(codes, v, entry, dead)
        if found[entry] is not None:
            break
    else:
        return None
    bits, st = [], entry
    for layer in layers[:0:-1]:
        st, b = layer[st]
        bits.append(b)
    prefix, loop = found[entry]
    return {"start_index": start, "prefix": bits[::-1] + prefix, "loop": list(loop)}


def ts_lasso_accepts(r: RTreePresentation, start: int, alpha: LassoWord) -> bool:
    return ts_lasso_witness(r, start, alpha) is not None


def ts_replay(r: RTreePresentation, start: int, alpha: LassoWord, witness) -> bool:
    """Check a witness: replay its guessed bits and confirm the loop closes
    on the same product node and contains a hit.  A non-binary lasso raises
    WorkbenchError; a malformed witness (not a mapping with start_index,
    prefix and loop, or with a guessed bit other than the int 0 or 1) or
    one for another start index does not replay."""
    letters, after = lasso_positions(alpha)
    if not all_bits(letters):
        raise WorkbenchError("input lasso must be binary")
    state = r.state_of_index(start)
    try:
        prefix, loop = list(witness["prefix"]), list(witness["loop"])
        same_start = witness["start_index"] == start
    except (KeyError, TypeError):
        return False
    if not same_start or not all_bits(prefix + loop):
        return False
    succ, live, _ = r.codes
    pos = 0
    for b in prefix:
        state = succ[state][2 * b + letters[pos]]
        pos = after[pos]
    anchor = (state, pos)
    hit = False
    for b in loop:
        state = succ[state][2 * b + letters[pos]]
        pos = after[pos]
        if b == 1 and live >> state & 1:
            hit = True
    return hit and (state, pos) == anchor


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
