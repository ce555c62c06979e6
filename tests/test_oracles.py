"""Cross-check oracles: these must stay independent of the code paths they
audit, so they get their own frozen behavior tests."""

import itertools

from omegapower import (
    LassoWord,
    Member,
    QPair,
    accepts_finite,
    corpus_lassos,
    lasso_accepts,
    omega_power_automaton,
    q_of_index,
    xi1_sigma_witness,
    zero_word_automaton,
)
from omegapower.oracles import enumerate_pairs, omega_factor_evidence
from omegapower.rtree import diag_tree, full_tree, ts_lasso_accepts

from boundary_reference import matrix_lasso_accepts
from erase_reference import stabilized_erase_prefix
from word_reference import brute_normalize_parts


def test_enumerate_pairs_order_and_length():
    listed = enumerate_pairs(2)
    assert listed[0] == QPair((), ())
    assert listed[1] == QPair((0,), (0,))
    assert listed[4] == QPair((1,), (1,))
    assert listed[-1] == QPair((1, 1), (1, 1))
    assert len(listed) == 1 + 4 + 16
    assert [q_of_index(n) for n in range(len(listed))] == listed


def test_matrix_acceptance_frozen():
    assert matrix_lasso_accepts(diag_tree(), 0, LassoWord("", "01"))
    assert not matrix_lasso_accepts(diag_tree(), 0, LassoWord("1", "0"))
    assert matrix_lasso_accepts(full_tree(), 0, LassoWord("1", "0"))


def test_matrix_acceptance_matches_product_search():
    for r in (full_tree(), diag_tree()):
        for start in (0, 2, 5):
            for w in corpus_lassos(2, 2, 4):
                assert matrix_lasso_accepts(r, start, w) == ts_lasso_accepts(
                    r, start, w
                )


def test_factor_evidence_on_singleton_language():
    v = zero_word_automaton()
    member = lambda f: accepts_finite(v, f)
    assert omega_factor_evidence(LassoWord("", "0"), member, 8) is Member.YES
    assert omega_factor_evidence(LassoWord("", "01"), member, 8) is Member.NO
    assert omega_factor_evidence(LassoWord("1", "0"), member, 8) is Member.NO


def test_factor_evidence_matches_restart_automaton():
    v = xi1_sigma_witness()
    aut = omega_power_automaton(v)
    member = lambda f: accepts_finite(v, f)
    for w in corpus_lassos(2, 3, 3):
        cap = (len(w.spoke) + len(w.cycle)) * (len(v.states) + 2)
        assert (omega_factor_evidence(w, member, cap) is Member.YES) == lasso_accepts(
            aut, w
        )


def test_stabilized_erase_prefix_frozen():
    stable = stabilized_erase_prefix(LassoWord("1", "12", size=3), 12)
    text = str(stable)
    assert text.startswith("10")
    assert set(text[1:]) <= {"0"}


def test_brute_normalization_agrees_exhaustively():
    from omegapower import canonical_parts

    for lu in range(3):
        for lv in range(1, 4):
            for u in itertools.product((0, 1, 2), repeat=lu):
                for v in itertools.product((0, 1, 2), repeat=lv):
                    assert brute_normalize_parts(u, v) == canonical_parts(u, v)
