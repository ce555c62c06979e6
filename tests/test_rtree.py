"""R-tree presentations and the coded transition system: membership,
final pairs, lasso acceptance with replayable witnesses."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegapower import (
    KnjEncodedWord,
    LassoWord,
    Member,
    QPair,
    WorkbenchError,
    a_omega_member,
    corpus_lassos,
    diag_tree,
    full_tree,
    load_tree,
    q_of_index,
    pi_omega_knj_member,
    r_contains,
    ts_lasso_accepts,
    ts_replay,
)
from omegapower import construction, pairs, rtree
from omegapower.lasso import accepting_lasso
from omegapower.oracles import enumerate_pairs
from omegapower.rtree import RTreePresentation, tree_from_json, ts_lasso_witness

from boundary_reference import matrix_lasso_accepts
from tree_reference import qf_member, tree_to_json


def lasso(text):
    spoke, _, cyc = text.partition("(")
    return LassoWord(spoke, cyc.rstrip(")"), size=2)


def pair(b, a):
    return QPair(tuple(int(x) for x in b), tuple(int(x) for x in a))


def test_contains_frozen():
    assert r_contains(full_tree(), pair("01", "10"))
    assert r_contains(diag_tree(), pair("01", "01"))
    assert not r_contains(diag_tree(), pair("01", "00"))


def test_final_pairs_frozen():
    assert qf_member(full_tree(), 4)
    assert not qf_member(full_tree(), 1)
    assert not qf_member(full_tree(), 0)
    assert not qf_member(diag_tree(), 0)


def test_final_pairs_need_beta_ending_one():
    for n in range(85):
        q = q_of_index(n)
        expect = bool(q.beta) and q.beta[-1] == 1 and r_contains(full_tree(), q)
        assert qf_member(full_tree(), n) is expect


def test_diag_tree_is_the_diagonal():
    for q in enumerate_pairs(4):
        assert r_contains(diag_tree(), q) is (q.beta == q.alpha)


def test_lasso_acceptance_frozen():
    assert ts_lasso_accepts(diag_tree(), 0, lasso("(01)"))
    assert not ts_lasso_accepts(diag_tree(), 0, lasso("1(0)"))
    assert ts_lasso_accepts(full_tree(), 0, lasso("1(0)"))


def test_derived_b_frozen():
    assert ts_lasso_accepts(diag_tree(), 0, lasso("(1)"))
    assert not ts_lasso_accepts(diag_tree(), 0, lasso("(0)"))
    assert ts_lasso_accepts(full_tree(), 0, lasso("(0)"))


def test_witness_replays():
    r = diag_tree()
    w = lasso("(01)")
    witness = ts_lasso_witness(r, 0, w)
    assert witness is not None
    assert ts_replay(r, 0, w, witness)
    # a tampered witness must not replay
    bad = dict(witness)
    bad["start_index"] = witness["start_index"] + 1
    assert not ts_replay(r, 0, w, bad)
    assert ts_lasso_witness(r, 0, lasso("1(0)")) is None


def test_malformed_witness_does_not_replay():
    r, w = full_tree(), LassoWord((), (1,), size=2)
    assert ts_replay(r, 0, w, {"start_index": 0, "prefix": [], "loop": [1]})
    for prefix, loop in (([2], [1]), ([], [2]), ([], ["1"]), ([], [True]), ([None], [1])):
        assert not ts_replay(r, 0, w, {"start_index": 0, "prefix": prefix, "loop": loop})
    for witness in ({}, {"start_index": 0, "prefix": 5, "loop": [1]}, [0, 1], None):
        assert not ts_replay(r, 0, w, witness)


def test_lasso_acceptance_needs_a_binary_input():
    with pytest.raises(WorkbenchError, match="binary"):
        ts_lasso_accepts(full_tree(), 0, LassoWord("2", "1", size=3))


def test_witness_with_an_empty_loop_does_not_replay():
    r = full_tree()
    w = lasso("1(0)")
    witness = ts_lasso_witness(r, 0, w)
    assert ts_replay(r, 0, w, witness)
    assert not ts_replay(r, 0, w, dict(witness, loop=[]))


def test_acceptance_agrees_with_matrix_oracle():
    # dual route: product-graph search vs relational one-cycle closure
    for r in (full_tree(), diag_tree()):
        for start in (0, 1, 4):
            for w in corpus_lassos(2, 3, 3):
                assert ts_lasso_accepts(r, start, w) == matrix_lasso_accepts(
                    r, start, w
                )


def test_every_theorem2_gate_witness_replays():
    # the theorem2-key-equality corpus at its gate bound 4: the address j
    # does not enter the transition system, so the 14,784 (tree, N, m)
    # triples with N <= M_2 cover all of its 19,008 cases
    ms = list(corpus_lassos(2, 4, 4))
    yes = 0
    for r in (full_tree(), diag_tree()):
        for n in range(pairs.m_offset(2) + 1):
            for m in ms:
                witness = ts_lasso_witness(r, n, m)
                if witness is not None:
                    yes += 1
                    assert ts_replay(r, n, m, witness), (r.name, n, str(m))
    assert yes == 9744


@st.composite
def random_trees(draw):
    """A prefix-closed tree DFA named "random" with 2-4 states listed in a
    random order (the first nlive of s0..s{k-1} live, dead states stepping
    only into dead ones)."""
    k = draw(st.integers(2, 4))
    nlive = draw(st.integers(1, k))
    names = tuple(f"s{i}" for i in range(k))
    delta = {
        q: {
            key: names[draw(st.integers(0 if i < nlive else nlive, k - 1))]
            for key in ("00", "01", "10", "11")
        }
        for i, q in enumerate(names)
    }
    return RTreePresentation(
        "random", tuple(draw(st.permutations(names))), "s0", frozenset(names[:nlive]), delta
    ).validate()


@st.composite
def tree_queries(draw):
    """A random tree and a carrier K[N,j]m with j <= 2, |u| <= 5, |v| <= 5."""
    r = draw(random_trees())
    j = draw(st.integers(0, 2))
    n = draw(st.integers(0, pairs.m_offset(j)))
    u = draw(st.lists(st.integers(0, 1), max_size=5))
    v = draw(st.lists(st.integers(0, 1), min_size=1, max_size=5))
    return r, KnjEncodedWord(n, j, LassoWord(u, v, size=2))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(tree_queries())
def test_theorem2_routes_agree_on_random_trees(query):
    r, w = query
    want = matrix_lasso_accepts(r, w.n, w.m)
    assert pi_omega_knj_member(w, r) is want
    assert ts_lasso_accepts(r, w.n, w.m) is want
    assert a_omega_member(w, r) is Member.of(want)
    witness = ts_lasso_witness(r, w.n, w.m)
    assert (witness is not None) is want
    if witness is not None:
        assert ts_replay(r, w.n, w.m, witness)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(tree_queries())
def test_compiled_tree_agrees_with_step_and_run_pair(query):
    r, _ = query
    succ, live, initial = r.codes
    assert r.codes is r.codes  # compiled once per tree
    for x, q in enumerate(r.states):
        assert (live >> x & 1 == 1) is (q in r.live)
        for b in (0, 1):
            for a in (0, 1):
                assert r.states[succ[x][2 * b + a]] == r.step(q, b, a)
    assert r.states[initial] == r.initial
    for n in [*range(pairs.m_offset(3) + 1), pairs.m_offset(6) + 77]:
        assert r.states[r.state_of_index(n)] == r.run_pair(q_of_index(n))


def _clear_carrier_memos():
    construction._cycle_summary.cache_clear()
    rtree._cycle_lassos.cache_clear()


def test_carrier_memos_tell_apart_trees_with_one_name():
    # both carrier routes keep one summary per (compiled tree, cycle); a
    # tree file picks its own name, so two trees named "t" must not share
    full = dataclasses.replace(full_tree(), name="t")
    diag = dataclasses.replace(diag_tree(), name="t")
    w = KnjEncodedWord(0, 0, lasso("1(0)"))
    for order in (((full, True), (diag, False)), ((diag, False), (full, True))):
        _clear_carrier_memos()
        for r, want in order:
            assert matrix_lasso_accepts(r, w.n, w.m) is want
            assert pi_omega_knj_member(w, r) is want
            assert ts_lasso_accepts(r, w.n, w.m) is want


@st.composite
def shared_cycle_queries(draw):
    """Two random trees and 2-6 carriers K[N,2]m whose lassos m share one
    cycle v (a spoke never ends in v's last letter, so canonical form
    keeps v) and differ in spoke and start index."""
    trees = (draw(random_trees()), draw(random_trees()))
    v = draw(st.lists(st.integers(0, 1), min_size=1, max_size=5))
    carriers = []
    for _ in range(draw(st.integers(2, 6))):
        u = draw(st.lists(st.integers(0, 1), max_size=5))
        if u and u[-1] == v[-1]:
            u.append(1 - v[-1])
        n = draw(st.integers(0, pairs.m_offset(2)))
        carriers.append(KnjEncodedWord(n, 2, LassoWord(u, v, size=2)))
    return trees, carriers


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(shared_cycle_queries())
def test_carriers_sharing_a_cycle_agree_with_the_matrix_oracle(query):
    trees, carriers = query
    assert len({w.m.cycle.letters for w in carriers}) == 1
    _clear_carrier_memos()
    for w in carriers:
        for r in trees:
            want = matrix_lasso_accepts(r, w.n, w.m)
            assert pi_omega_knj_member(w, r) is want
            witness = ts_lasso_witness(r, w.n, w.m)
            assert (witness is not None) is want
            if witness is not None:
                assert ts_replay(r, w.n, w.m, witness)


def _wide_tree(n):
    """States s0..s{n-1} and a dead sink beyond s{n-1}: on block letter 1
    guessed bit b moves s_i to s_{2i+1+b}, on letter 0 it keeps s_i (b = 0)
    or moves it to s_{i+1} (b = 1).  A guessed 1 always climbs, so no
    accepting cycle exists, and the spoke 1^k reaches 2^k entry states."""
    names = [f"s{i}" for i in range(n)] + ["dead"]
    at = lambda i: names[min(i, n)]
    delta = {
        names[i]: {"00": at(i), "10": at(i + 1), "01": at(2 * i + 1), "11": at(2 * i + 2)}
        for i in range(n)
    }
    delta["dead"] = {key: "dead" for key in ("00", "01", "10", "11")}
    return RTreePresentation(
        "wide", tuple(names), "s0", frozenset(names[:n]), delta
    ).validate()


def test_cold_query_explores_each_product_node_once(monkeypatch):
    # 32 entry states after the spoke 11111, each with a chain up to the
    # sink in the cycle-only product; passes that find no lasso share what
    # they explored, so the 65 nodes are explored once, not once per entry
    r, w = _wide_tree(64), lasso("11111(0)")
    explored = []

    def counting(root, step):
        return accepting_lasso(root, lambda node: explored.append(node) or step(node))

    _clear_carrier_memos()
    monkeypatch.setattr(rtree, "accepting_lasso", counting)
    assert not matrix_lasso_accepts(r, 0, w)
    assert ts_lasso_witness(r, 0, w) is None
    assert len(set(explored)) == len(explored) <= len(r.states)


SUMMARY_COUNT = """
from omegapower import construction, rtree
from omegapower.suites import run_suite

construction._cycle_summary.cache_clear()
rtree._cycle_lassos.cache_clear()
run_suite("theorem2-key-equality", bound=4)
for memo in (construction._cycle_summary, rtree._cycle_lassos):
    info = memo.cache_info()
    print(info.misses, info.hits)
"""


def test_theorem2_gate_builds_one_summary_per_tree_and_cycle():
    # bound 4: 22 cycles of m on each of the two trees, 19,008 cases
    src = Path(__file__).resolve().parent.parent / "src"
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", SUMMARY_COUNT],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["44 18964", "44 18964"], hash_seed


def test_prefix_closure_of_trees():
    for r in (full_tree(), diag_tree()):
        for q in enumerate_pairs(4):
            if len(q) and r_contains(r, q):
                parent = QPair(q.beta[:-1], q.alpha[:-1])
                assert r_contains(r, parent)


def test_tree_json_roundtrip():
    for r in (full_tree(), diag_tree()):
        again = tree_from_json(tree_to_json(r), name=r.name)
        for q in enumerate_pairs(3):
            assert r_contains(again, q) == r_contains(r, q)


def test_tree_json_validation():
    doc = json.loads(tree_to_json(diag_tree()))
    broken = json.loads(tree_to_json(diag_tree()))
    del broken["delta"][broken["states"][0]]["11"]
    with pytest.raises(WorkbenchError):
        tree_from_json(json.dumps(broken))

    # initial state must be live
    doc2 = json.loads(tree_to_json(diag_tree()))
    doc2["live"] = [s for s in doc2["live"] if s != doc2["initial"]]
    with pytest.raises(WorkbenchError):
        tree_from_json(json.dumps(doc2))

    # a dead state must never step back into the live region
    dead = [s for s in doc["states"] if s not in doc["live"]]
    if dead:
        doc["delta"][dead[0]]["00"] = doc["initial"]
        with pytest.raises(WorkbenchError):
            tree_from_json(json.dumps(doc))

    # malformed documents fail the same way, not with a raw KeyError
    with pytest.raises(WorkbenchError):
        tree_from_json("{}")
    with pytest.raises(WorkbenchError):
        tree_from_json("not json")


def test_load_tree(tmp_path):
    assert load_tree("full").name == "full"
    assert load_tree("diag").name == "diag"
    path = tmp_path / "tree.json"
    path.write_text(tree_to_json(diag_tree()), encoding="utf-8")
    custom = load_tree(str(path))
    assert r_contains(custom, pair("1", "1"))
    assert not r_contains(custom, pair("1", "0"))
