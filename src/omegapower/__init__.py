"""Desk-scale workbench for omega-power constructions over small alphabets.

Core pieces: the pair enumeration and its block offsets (pairs), word types
including carrier-set words (words), the carrier codec (knj), R-tree
presentations and transition-system acceptance (rtree), the block-coded
languages with their omega-power deciders (construction), the 3-letter
witness language and erasing map (erasing), omega-power automata for the
low-level witnesses (automata), plus literals, corpora, cross-check oracles,
verification suites, and a CLI.
"""

from .automata import (
    Automaton,
    accepts_finite,
    automaton_from_json,
    automaton_to_json,
    baire_embed_prefix,
    lasso_accepts,
    make_automaton,
    omega_power_automaton,
    pinf_member,
    xi1_sigma_witness,
    zero_star_one_automaton,
    zero_word_automaton,
)
from .construction import (
    BlockProfile,
    PiDecomposition,
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
    EraseState,
    a3_member,
    a3_omega_member,
    b2_omega_member,
    count_letter,
    e_counter_member,
    e_def_member,
    e_preimage_check,
    erase_fin,
    erase_lasso,
    t_lasso,
    t_member,
)
from .errors import (
    AlphabetMismatch,
    InMuOmega,
    InvalidAddress,
    LiteralSyntaxError,
    NotAPrefix,
    NotInKnj,
    NotInP,
    NotInT,
    WorkbenchError,
)
from .knj import KnjAddress, knj_prefix_consistent, phi, phi_inverse
from .literals import EPSILON, format_word, parse_word_literal
from .pairs import QPair, index_of_q, is_transition, m_index, m_offset, q_of_index, successors
from .rtree import (
    RTreePresentation,
    derived_b_member,
    diag_tree,
    full_tree,
    load_tree,
    qf_member,
    r_contains,
    tree_from_json,
    tree_to_json,
    ts_lasso_accepts,
    ts_lasso_witness,
    ts_replay,
)
from .suites import SUITES, VERSION as __version__, SuiteReport, run_suite
from .verdicts import UNDETERMINED, Member
from .words import (
    FiniteWord,
    KnjEncodedWord,
    KnjTailWord,
    LassoWord,
    canonical_parts,
    concat,
    letter_at,
    normalize,
    prefix,
    run_decompose,
    run_recompose,
    suffix_from,
    word,
)
