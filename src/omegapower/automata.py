"""Finite automata, omega-powers of regular languages, lasso acceptance.

omega_power_automaton(V) builds a Buchi automaton for (L(V) minus the empty
word)^omega: a fresh restart state receives a copy of the initial state's
outgoing edges, every edge that can enter an accepting state gets a parallel
edge into restart, and restart is the sole accepting state.  Visiting
restart infinitely often cuts the input into infinitely many nonempty
factors from L(V).

lasso_accepts decides Buchi acceptance of u(v) by searching the product of
the automaton with the positions of the lasso for a reachable cycle through
an accepting product node.
"""

from dataclasses import dataclass

from .errors import WorkbenchError
from .words import FiniteWord, LassoWord, lasso_positions


@dataclass(frozen=True)
class Automaton:
    """Nondeterministic automaton; Buchi semantics when fed a lasso."""

    states: tuple
    initial: str
    accepting: frozenset
    size: int  # alphabet {0, ..., size-1}
    delta: dict  # state -> {letter: frozenset(states)}

    def validate(self):
        if self.initial not in self.states:
            raise WorkbenchError("initial state unknown")
        for q in self.accepting:
            if q not in self.states:
                raise WorkbenchError(f"accepting state {q!r} unknown")
        for q, row in self.delta.items():
            if q not in self.states:
                raise WorkbenchError(f"transition from unknown state {q!r}")
            for a, targets in row.items():
                if not 0 <= a < self.size:
                    raise WorkbenchError(f"letter {a} outside alphabet")
                for t in targets:
                    if t not in self.states:
                        raise WorkbenchError(f"transition into unknown state {t!r}")
        return self

    def step(self, state, letter):
        return self.delta.get(state, {}).get(letter, frozenset())


def make_automaton(states, initial, accepting, size, edges) -> Automaton:
    """edges: iterable of (state, letter, state)."""
    delta = {}
    for q, a, t in edges:
        delta.setdefault(q, {}).setdefault(a, set())
        delta[q][a].add(t)
    frozen = {
        q: {a: frozenset(ts) for a, ts in row.items()} for q, row in delta.items()
    }
    return Automaton(tuple(states), initial, frozenset(accepting), size, frozen).validate()


def accepts_finite(aut: Automaton, w: FiniteWord) -> bool:
    current = {aut.initial}
    for a in w:
        current = {t for q in current for t in aut.step(q, a)}
        if not current:
            return False
    return bool(current & aut.accepting)


def omega_power_automaton(aut: Automaton) -> Automaton:
    restart = "restart"
    while restart in aut.states:
        restart = "_" + restart
    edges = []
    for q, row in aut.delta.items():
        for a, targets in row.items():
            for t in targets:
                edges.append((q, a, t))
    # restart behaves like the initial state
    for a, targets in aut.delta.get(aut.initial, {}).items():
        for t in targets:
            edges.append((restart, a, t))
    # any edge that may finish a factor may instead restart
    for q, a, t in list(edges):
        if t in aut.accepting:
            edges.append((q, a, restart))
    return make_automaton(
        aut.states + (restart,), restart, {restart}, aut.size, edges
    )


def lasso_accepts(aut: Automaton, w: LassoWord) -> bool:
    """Buchi acceptance of u v^omega: a reachable product cycle through an
    accepting product node."""
    letter, advance = lasso_positions(w)
    start = (aut.initial, 0)
    seen = {start}
    stack = [start]
    succs = {}
    while stack:
        q, pos = stack.pop()
        nxt = [(t, advance(pos)) for t in aut.step(q, letter(pos))]
        succs[(q, pos)] = nxt
        for node in nxt:
            if node not in seen:
                seen.add(node)
                stack.append(node)
    for node in seen:
        if node[0] not in aut.accepting:
            continue
        # node on a cycle: node reachable from node in >= 1 step
        frontier = list(succs.get(node, ()))
        visited = set(frontier)
        while frontier:
            cur = frontier.pop()
            if cur == node:
                return True
            for t in succs.get(cur, ()):
                if t not in visited:
                    visited.add(t)
                    frontier.append(t)
    return False


def xi1_sigma_witness() -> Automaton:
    """Acceptor of {s : 0 precedes s, or some 1 0^k 1 precedes s}.

    Its omega-power is the binary words other than 1 0^omega.
    """
    return make_automaton(
        states=("init", "wait", "acc"),
        initial="init",
        accepting={"acc"},
        size=2,
        edges=[
            ("init", 0, "acc"),
            ("init", 1, "wait"),
            ("wait", 0, "wait"),
            ("wait", 1, "acc"),
            ("acc", 0, "acc"),
            ("acc", 1, "acc"),
        ],
    )


def zero_word_automaton() -> Automaton:
    """Acceptor of the single word 0."""
    return make_automaton(
        states=("s", "f"), initial="s", accepting={"f"}, size=2, edges=[("s", 0, "f")]
    )


def zero_star_one_automaton() -> Automaton:
    """Acceptor of {0^k 1 : k >= 0}; its omega-power is the words with
    infinitely many 1s."""
    return make_automaton(
        states=("s", "f"),
        initial="s",
        accepting={"f"},
        size=2,
        edges=[("s", 0, "s"), ("s", 1, "f")],
    )


def pinf_member(w: LassoWord) -> bool:
    """Infinitely many 1s, i.e. the cycle contains a 1."""
    for x in w.cycle.letters:
        if x == 1:
            return True
        if x not in (0, 1):
            raise WorkbenchError("pinf_member expects a binary word")
    for x in w.spoke.letters:
        if x not in (0, 1):
            raise WorkbenchError("pinf_member expects a binary word")
    return False
