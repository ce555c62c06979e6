"""Finite automata, the restart construction for omega powers, and the
three low-level witness languages."""

import itertools
import random

import pytest

from omegapower import (
    FiniteWord as word,
    LassoWord,
    Member,
    WorkbenchError,
    accepts_finite,
    lasso_accepts,
    omega_power_automaton,
    pinf_member,
    xi1_sigma_witness,
    zero_star_one_automaton,
    zero_word_automaton,
)
from omegapower.automata import make_automaton
from omegapower.corpus import corpus_lassos
from omegapower.oracles import omega_factor_evidence


def lasso(text):
    spoke, _, cyc = text.partition("(")
    return LassoWord(spoke, cyc.rstrip(")"), size=2)


def test_sigma_witness_finite_membership():
    v = xi1_sigma_witness()
    assert accepts_finite(v, word("01", 2))
    assert accepts_finite(v, word("1001", 2))
    assert not accepts_finite(v, word("10", 2))
    assert accepts_finite(v, word("0", 2))
    assert not accepts_finite(v, word("1", 2))
    assert not accepts_finite(v, word("", 2))


def test_sigma_witness_language_shape():
    # members are exactly 0w and 1 0^k 1 w
    v = xi1_sigma_witness()
    for n in range(7):
        for tup in itertools.product((0, 1), repeat=n):
            s = "".join(map(str, tup))
            expect = s.startswith("0") or (
                s.startswith("1") and "1" in s[1:]
            )
            assert accepts_finite(v, word(tup, 2)) is expect


def test_sigma_witness_omega_power_excludes_one_point():
    aut = omega_power_automaton(xi1_sigma_witness())
    for w in corpus_lassos(2, 4, 4):
        assert lasso_accepts(aut, w) is (w != lasso("1(0)"))


def test_zero_word_omega_power_is_one_point():
    aut = omega_power_automaton(zero_word_automaton())
    for w in corpus_lassos(2, 4, 4):
        assert lasso_accepts(aut, w) is (w == lasso("(0)"))


def test_zero_star_one_omega_power_is_pinf():
    aut = omega_power_automaton(zero_star_one_automaton())
    for w in corpus_lassos(2, 4, 4):
        assert lasso_accepts(aut, w) is pinf_member(w)


def test_pinf_frozen():
    assert pinf_member(lasso("(01)"))
    assert not pinf_member(lasso("111(0)"))
    assert pinf_member(lasso("(1)"))


@pytest.mark.parametrize("w", [LassoWord("2", "1", size=3), LassoWord("", "12", size=3)])
def test_pinf_rejects_a_non_binary_lasso(w):
    with pytest.raises(WorkbenchError, match="binary"):
        pinf_member(w)


@pytest.mark.parametrize(
    "initial, accepting, edges, message",
    [
        ("x", [], [], "initial state unknown"),
        ("s", ["x"], [], "accepting state 'x' unknown"),
        ("s", [], [("x", 0, "s")], "transition from unknown state 'x'"),
        ("s", [], [("s", 2, "s")], "letter 2 outside alphabet"),
        ("s", [], [("s", 0, "x")], "transition into unknown state 'x'"),
    ],
)
def test_make_automaton_validates(initial, accepting, edges, message):
    with pytest.raises(WorkbenchError, match=message):
        make_automaton(["s"], initial, accepting, 2, edges)


def test_omega_power_renames_a_clashing_restart_state():
    # the factor language {0} with its states named restart and f: the fresh
    # restart state becomes _restart and the omega-power is still {0^omega}
    v = make_automaton(["restart", "f"], "restart", ["f"], 2, [("restart", 0, "f")])
    aut = omega_power_automaton(v)
    assert aut.initial == "_restart"
    assert aut.accepting == {"_restart"}
    for w in corpus_lassos(2, 3, 3):
        assert lasso_accepts(aut, w) is (w == lasso("(0)"))


def test_lasso_with_a_letter_outside_the_alphabet_is_rejected():
    # every infinite run reads each letter of u and v, so none reads a 2
    aut = omega_power_automaton(zero_star_one_automaton())
    assert lasso_accepts(aut, LassoWord("", "1", size=3))
    assert not lasso_accepts(aut, LassoWord("2", "1", size=3))
    assert not lasso_accepts(aut, LassoWord("", "12", size=3))


def test_empty_language_omega_power_is_empty():
    empty = make_automaton(["s"], "s", [], 2, [])
    aut = omega_power_automaton(empty)
    for w in corpus_lassos(2, 3, 3):
        assert not lasso_accepts(aut, w)


def _random_automaton(rng):
    n = rng.randint(1, 4)
    states = [f"s{i}" for i in range(n)]
    edges = []
    for s in states:
        for a in (0, 1):
            for t in states:
                if rng.random() < 0.4:
                    edges.append((s, a, t))
    accepting = [s for s in states if rng.random() < 0.5]
    return make_automaton(states, states[0], accepting, 2, edges)


def test_omega_power_agrees_with_factor_search():
    # dual route: product-graph acceptance vs brute factorization with the
    # loop-removal cap (|u| + |v|) * (states + 2)
    rng = random.Random(20260814)
    lassos = list(corpus_lassos(2, 3, 3))
    for _ in range(40):
        v = _random_automaton(rng)
        aut = omega_power_automaton(v)
        member = lambda f: accepts_finite(v, f)
        for w in lassos:
            cap = (len(w.spoke) + len(w.cycle)) * (len(v.states) + 2)
            got = omega_factor_evidence(w, member, cap)
            assert got in (Member.YES, Member.NO)
            assert (got is Member.YES) == lasso_accepts(aut, w)
