"""Desk-scale workbench for omega-power constructions over small alphabets.

Core pieces: the pair enumeration and its block offsets (pairs), word types
including carrier-set words (words), the carrier codec (knj), R-tree
presentations and transition-system acceptance (rtree), the block-coded
languages with their omega-power deciders (construction), the 3-letter
witness language and erasing map (erasing), omega-power automata for the
low-level witnesses (automata), the accepting-cycle search of the second
routes (lasso) and the boundary-summary closure of the first (recurrence),
plus literals, corpora, cross-check oracles, verification suites, and a
CLI.

This namespace exports the paper's objects and what the deciders, suites,
CLI and perfbench call; types and helpers used inside one module are read
from that module, and reference code that only the tests use lives in
tests/.  tests/test_api.py enforces the rule.
"""

from .automata import (
    accepts_finite,
    lasso_accepts,
    omega_power_automaton,
    pinf_member,
    xi1_sigma_witness,
    zero_star_one_automaton,
    zero_word_automaton,
)
from .construction import (
    a_member,
    a_omega_member,
    f_map,
    is_suitable,
    mu0_member,
    mu1_member,
    mu_member,
    mu_omega_member,
    pi_member,
    pi_omega_knj_member,
)
from .corpus import corpus_lassos, random_lassos
from .erasing import (
    a3_member,
    a3_omega_member,
    b2_omega_member,
    e_counter_member,
    e_def_member,
    e_preimage_check,
    erase_fin,
    erase_lasso,
    t_lasso,
    t_member,
)
from .errors import (
    InMuOmega,
    InvalidAddress,
    LiteralSyntaxError,
    NotInKnj,
    NotInP,
    NotInT,
    WorkbenchError,
)
from .knj import KnjAddress, knj_prefix_consistent, phi, phi_inverse
from .literals import format_word, parse_word_literal
from .pairs import QPair, index_of_q, m_index, m_offset, q_of_index, successors
from .rtree import (
    RTreePresentation,
    diag_tree,
    full_tree,
    load_tree,
    r_contains,
    ts_lasso_accepts,
    ts_replay,
)
from .suites import SUITES, VERSION as __version__, run_suite
from .verdicts import Member
from .words import (
    FiniteWord,
    KnjEncodedWord,
    LassoWord,
    canonical_parts,
    prefix,
)
