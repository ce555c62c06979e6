"""Finite automata, omega-powers of regular languages, lasso acceptance.

omega_power_automaton(V) builds a Buchi automaton for (L(V) minus the empty
word)^omega: a fresh restart state receives a copy of the initial state's
outgoing edges, every edge that can enter an accepting state gets a parallel
edge into restart, and restart is the sole accepting state.  Visiting
restart infinitely often cuts the input into infinitely many nonempty
factors from L(V).

lasso_accepts decides Buchi acceptance of u(v): Automaton.codes compiles
the automaton once into integer state ids, and lasso.accepting_lasso
searches its product with the positions of the lasso for a reachable cycle
through an edge into an accepting state.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import WorkbenchError
from .lasso import accepting_lasso
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

    @cached_property
    def codes(self) -> tuple:
        """(succ, accepting, initial), compiled once per automaton on integer
        ids that number self.states in order: succ[x][a] lists by id the
        states x steps to on letter a, and bit x of accepting is set iff
        state x is accepting."""
        ids = {q: x for x, q in enumerate(self.states)}
        succ = tuple(
            tuple(tuple(sorted(ids[t] for t in self.step(q, a))) for a in range(self.size))
            for q in self.states
        )
        return succ, sum(1 << ids[q] for q in self.accepting), ids[self.initial]


def make_automaton(states, initial, accepting, size, edges) -> Automaton:
    """edges: iterable of (state, letter, state)."""
    delta = {}
    for q, a, t in edges:
        delta.setdefault(q, {}).setdefault(a, set()).add(t)
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
    """Buchi acceptance of u v^omega: a reachable cycle through an accepting
    edge (one into an accepting state) of the product of aut.codes with the
    positions of the lasso, on integer nodes state * len(uv) + pos."""
    succ, accepting, initial = aut.codes
    letters, after = lasso_positions(w)
    if max(letters) >= aut.size:
        return False  # an infinite run reads every letter of u and v
    total = len(letters)

    def step(node):
        q, pos = divmod(node, total)
        nxt = after[pos]
        a = letters[pos]
        return [(t * total + nxt, a, accepting >> t & 1) for t in succ[q][a]]

    return accepting_lasso(initial * total, step) is not None


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
    if not {0, 1}.issuperset(w.spoke.letters + w.cycle.letters):
        raise WorkbenchError("pinf_member expects a binary word")
    return 1 in w.cycle.letters
