"""The accepting-cycle kernel: verdicts against a reachability reference,
replayable (prefix, loop) walks, and route independence of the route-A
deciders, which must never reach it."""

import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegapower import (
    FiniteWord,
    KnjEncodedWord,
    LassoWord,
    a3_omega_member,
    a_member,
    a_omega_member,
    b2_omega_member,
    corpus_lassos,
    diag_tree,
    full_tree,
    lasso_accepts,
    m_offset,
    mu_omega_member,
    omega_power_automaton,
    pi_omega_knj_member,
    pinf_member,
    zero_word_automaton,
)
from omegapower import construction
from omegapower.erasing import t_keep
from omegapower.lasso import accepting_lasso
from omegapower.suites import _curated_a_omega


def reachable(edges, source):
    """Nodes reachable from source in zero or more steps."""
    seen = {source}
    stack = [source]
    while stack:
        node = stack.pop()
        for a, b, _ in edges:
            if a == node and b not in seen:
                seen.add(b)
                stack.append(b)
    return seen


def reference_accepts(edges, root):
    """Some hit edge a -> b has a reachable from root and a reachable from b."""
    from_root = reachable(edges, root)
    return any(hit and a in from_root and a in reachable(edges, b) for a, b, hit in edges)


@st.composite
def graphs(draw):
    """Up to 6 nodes and 10 edges (a, b, hit); an edge's label is its index."""
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    return draw(st.lists(st.tuples(node, node, st.booleans()), max_size=10))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(graphs())
@example([(0, 0, True)])
@example([(0, 0, False)])
@example([(0, 1, False), (1, 1, True)])
@example([(0, 1, True), (1, 0, False)])
@example([(0, 1, True), (1, 2, False), (2, 1, False)])
@example([(1, 1, True), (0, 2, False), (2, 0, False)])
def test_kernel_matches_reference_and_replays(edges):
    calls = []

    def step(node):
        calls.append(node)
        return [(b, label, hit) for label, (a, b, hit) in enumerate(edges) if a == node]

    found = accepting_lasso(0, step)
    assert len(calls) == len(set(calls))
    assert (found is not None) is reference_accepts(edges, 0)
    if found is None:
        return
    prefix, loop = found
    node = 0
    for label in prefix:
        assert edges[label][0] == node
        node = edges[label][1]
    start = node
    assert loop
    for label in loop:
        assert edges[label][0] == node
        node = edges[label][1]
    assert node == start
    assert any(edges[label][2] for label in loop)


def test_route_a_deciders_never_reach_the_kernel(monkeypatch):
    def stub(root, step):
        raise AssertionError("a route-A decider reached accepting_lasso")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "omegapower" and hasattr(module, "accepting_lasso"):
            monkeypatch.setattr(module, "accepting_lasso", stub)
    for w in corpus_lassos(3, 2, 2, keep=t_keep):
        a3_omega_member(w)
    for w in corpus_lassos(2, 3, 3):
        pinf_member(w)
        b2_omega_member(w)
    for w in corpus_lassos(4, 2, 2):
        mu_omega_member(w)
        a_omega_member(w, full_tree())
    for r in (full_tree(), diag_tree()):
        for n in range(m_offset(1) + 1):
            for m in corpus_lassos(2, 2, 2):
                w = KnjEncodedWord(n, 1, m)
                pi_omega_knj_member(w, r)
                a_omega_member(w, r)
    # the stub is in place: a route-B decider does reach it
    with pytest.raises(AssertionError, match="reached accepting_lasso"):
        lasso_accepts(omega_power_automaton(zero_word_automaton()), LassoWord("", "0"))


def test_lasso_route_a_never_reads_the_route_b_grammar(monkeypatch):
    # a-omega-decomposition compares a_omega_member on lassos with a_member
    # products; a fault in the block grammar must not move both routes
    def stub(s):
        raise AssertionError("a route-A lasso decider parsed with _delimited_blocks")

    monkeypatch.setattr(construction, "_delimited_blocks", stub)
    for w in [*corpus_lassos(4, 2, 2), *_curated_a_omega()]:
        mu_omega_member(w)
        a_omega_member(w, full_tree())
    # the stub is in place: route B does reach it
    with pytest.raises(AssertionError, match="parsed with _delimited_blocks"):
        a_member(FiniteWord((1, 2, 3), 4), full_tree())
