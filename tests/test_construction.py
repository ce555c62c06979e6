"""Block-coded languages over the 4-letter alphabet: pi (tree-chained
blocks), the mu defect languages, their omega-powers, the classification
map, and the carrier-set omega decision."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegapower import (
    FiniteWord as word,
    InMuOmega,
    KnjEncodedWord,
    LassoWord,
    Member,
    NotInP,
    WorkbenchError,
    a_member,
    a_omega_member,
    corpus_lassos,
    f_map,
    is_suitable,
    m_offset,
    mu0_member,
    mu1_member,
    mu_member,
    mu_omega_member,
    pi_member,
    pi_omega_knj_member,
)
from omegapower.construction import PiDecomposition, _delimited_blocks
from omegapower.oracles import omega_factor_evidence
from omegapower.pairs import m_index, q_of_index, successors
from omegapower.rtree import diag_tree, full_tree, r_contains, ts_lasso_accepts
from omegapower.words import FiniteWord

from suitability_reference import two_probe_is_suitable
from tree_reference import qf_member
from word_reference import delimited_blocks

FULL = full_tree()
DIAG = diag_tree()

M1, M2, M3 = m_offset(1), m_offset(2), m_offset(3)


def blk(m, p, r):
    return (m,) + (2,) * p + (3,) + (2,) * r


W_BOTH = FiniteWord(blk(1, M1, 0) + blk(0, M1, 0), 4)  # mu0 and mu1
W_MU0 = FiniteWord(blk(1, M1, 2) + blk(0, M2, 0), 4)  # defect0 only
W_MU1 = FiniteWord(blk(1, M1, M1) + blk(0, M1, 0), 4)  # defect1 only


# ------------------------------------------------------------------- pi

def test_pi_frozen_single_block():
    got = pi_member(word("122223", 4), FULL)
    assert got == PiDecomposition(0, ((0, 1, 4, 0),))
    assert pi_member(word("122223", 4), DIAG) == got
    assert pi_member(word("3", 4), FULL) is None
    assert pi_member(word("", 4), FULL) is None


def test_pi_single_block_tree_sensitivity():
    # lead 0, block 0 2^4 3 2: the forced final pair is (1,0)
    w = word("0222232", 4)
    assert pi_member(w, FULL) == PiDecomposition(0, ((0, 0, 3, 1),))
    assert pi_member(w, DIAG) is None


def test_pi_two_blocks():
    w = FiniteWord(blk(1, M1, M1) + blk(1, M2, 0), 4)
    expect = PiDecomposition(0, ((0, 1, 4, 0), (4, 1, 20, 0)))
    assert pi_member(w, FULL) == expect
    assert pi_member(w, DIAG) == expect


def test_pi_two_blocks_short_final_run():
    # trailing run 8 forces the final pair (01,11), which the diagonal
    # tree rejects
    w = FiniteWord(blk(1, M1, M1) + blk(1, M2, 8), 4)
    assert pi_member(w, FULL) == PiDecomposition(0, ((0, 1, 2, 2), (2, 1, 12, 8)))
    assert pi_member(w, DIAG) is None


def test_pi_needs_full_intermediate_runs():
    w = FiniteWord(blk(1, M1, 0) + blk(1, M2, 0), 4)
    assert pi_member(w, FULL) is None


def test_pi_final_run_within_its_offset():
    # the final trailing run splits M_{j+l+1}; one letter longer leaves no
    # pair index for the guessed part
    assert pi_member(FiniteWord(blk(1, M1, 0), 4), FULL) is not None
    assert pi_member(FiniteWord(blk(1, M1, M1 + 1), 4), FULL) is None
    assert pi_member(FiniteWord(blk(1, M1, M1) + blk(1, M2, 0), 4), FULL) is not None
    assert pi_member(FiniteWord(blk(1, M1, M1) + blk(1, M2, M2 + 1), 4), FULL) is None


def test_pi_decomposition_chain_is_valid():
    samples = [
        word("122223", 4),
        word("0222232", 4),
        FiniteWord(blk(1, M1, M1) + blk(1, M2, 0), 4),
        FiniteWord(blk(1, M1, M1) + blk(1, M2, 8), 4),
        FiniteWord(blk(1, M1, M1) + blk(1, M2, M2) + blk(1, M3, 0), 4),
    ]
    for s in samples:
        dec = pi_member(s, FULL)
        assert dec is not None
        assert dec.blocks[0][0] <= m_offset(dec.j)
        n_prev = None
        for i, (n_i, m_i, p_i, r_i) in enumerate(dec.blocks):
            if n_prev is not None:
                assert n_i == n_prev
            assert p_i in successors(n_i, m_i)
            assert m_index(p_i + r_i) == dec.j + i + 1
            assert r_contains(FULL, q_of_index(p_i))
            n_prev = p_i
        assert qf_member(FULL, n_prev)


# ------------------------------------------------------------------- mu

def test_mu_frozen_witnesses():
    assert mu0_member(W_BOTH) and mu1_member(W_BOTH)
    assert mu0_member(W_MU0) and not mu1_member(W_MU0)
    assert mu1_member(W_MU1) and not mu0_member(W_MU1)
    for w in (W_BOTH, W_MU0, W_MU1):
        assert mu_member(w)


def test_mu_small_words():
    assert mu1_member(word("1313", 4))
    assert mu1_member(word("131313", 4))
    assert mu1_member(word("0303", 4))
    assert not mu0_member(word("1313", 4))
    assert not mu_member(word("0", 4))
    assert not mu_member(word("122223", 4))  # single block


def test_mu_only_the_second_to_last_block_counts():
    w = FiniteWord(blk(1, M1, 2) + blk(0, M2, M2) + blk(1, M3, 0), 4)
    assert not mu_member(w)  # early defect, clean at blocks[-2]


def test_mu_concatenation_closure():
    # appending mu-words never changes which defect language the result
    # belongs to: membership is scored at the tail
    ws = [W_BOTH, W_MU0, W_MU1]
    for x in ws:
        for y in ws:
            xy = FiniteWord(x.letters + y.letters, 4)
            assert mu0_member(xy) == mu0_member(y)
            assert mu1_member(xy) == mu1_member(y)


def test_a_member():
    assert a_member(word("122223", 4), FULL)
    assert a_member(W_MU0, DIAG)
    assert not a_member(word("2", 4), FULL)
    assert not a_member(word("", 4), FULL)


# ------------------------------------------- exhaustive shape cross-check

def test_block_parse_matches_run_reference_exhaustively():
    for n in range(8):
        for tup in itertools.product((0, 1, 2, 3), repeat=n):
            s = FiniteWord(tup, 4)
            assert _delimited_blocks(s) == delimited_blocks(s), str(s)


# runs at and next to the block offsets, where the mu and pi predicates turn
_RUNS = st.sampled_from(
    sorted({0, 1} | {m_offset(j) + d for j in range(10) for d in (-1, 0, 1)} - {-1})
)


@st.composite
def _block_words_and_splice_points(draw):
    letters = (2,) * draw(_RUNS)
    points = []
    for _ in range(draw(st.integers(1, 2))):
        p = draw(_RUNS)
        n = len(letters)
        points += [n, n + 1 + p, n + 1, n + 2 + p]  # m, 3, first of P, first of R
        letters += blk(draw(st.integers(0, 1)), p, draw(_RUNS))
    points.append(0)  # first of the lead run, or the first block letter
    return letters, min(draw(st.sampled_from(points)), len(letters) - 1)


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(_block_words_and_splice_points())
def test_block_parse_matches_run_reference_near_offsets(case):
    # each of the four letters in turn replaces the one at a delimiter or at
    # the start of a run; words are built trusted, as checking every letter
    # of runs this long would take most of the test's time
    letters, at = case
    for stray in range(4):
        s = FiniteWord._trusted(letters[:at] + (stray,) + letters[at + 1 :], 4)
        assert _delimited_blocks(s) == delimited_blocks(s), (at, stray)


def _reference_mu(s, which):
    parsed = delimited_blocks(s)
    if parsed is None or len(parsed[1]) < 2:
        return False
    _, blocks = parsed
    if any(m_index(p) is None for _, p, _ in blocks):
        return False
    (m, p, r), (_, p2, _) = blocks[-2], blocks[-1]
    d0 = p != r
    d1 = p2 != m_offset(m_index(p) + 1)
    return {"0": d0, "1": d1, "": d0 or d1}[which]


def _reference_pi(s, r):
    parsed = delimited_blocks(s)
    if not parsed or not parsed[1]:
        return False
    n0, blocks = parsed
    jp = m_index(blocks[0][1])
    if jp is None or jp < 1 or n0 > m_offset(jp - 1):
        return False
    j = jp - 1
    l = len(blocks) - 1
    for i, (_, p, rr) in enumerate(blocks):
        if p != m_offset(j + i + 1):
            return False
        if i < l and rr != m_offset(j + i + 1):
            return False
    if blocks[l][2] > m_offset(j + l + 1):
        return False
    # search the chain freely over the beta bits
    def chain(i, n_i):
        if i > l:
            return qf_member(r, n_i) and n_i == m_offset(j + l + 1) - blocks[l][2]
        return any(
            r_contains(r, q_of_index(p_i)) and chain(i + 1, p_i)
            for p_i in successors(n_i, blocks[i][0])
        )

    return chain(0, n0)


def test_membership_matches_reference_exhaustively():
    counts = {"mu0": 0, "mu1": 0, "mu": 0, "pi_full": 0, "pi_diag": 0}
    for n in range(9):
        for tup in itertools.product((0, 1, 2, 3), repeat=n):
            s = FiniteWord(tup, 4)
            got = (
                mu0_member(s),
                mu1_member(s),
                mu_member(s),
                pi_member(s, FULL) is not None,
                pi_member(s, DIAG) is not None,
            )
            want = (
                _reference_mu(s, "0"),
                _reference_mu(s, "1"),
                _reference_mu(s, ""),
                _reference_pi(s, FULL),
                _reference_pi(s, DIAG),
            )
            assert got == want, str(s)
            for key, flag in zip(counts, got):
                counts[key] += flag
    assert counts == {
        "mu0": 124,
        "mu1": 280,
        "mu": 280,
        "pi_full": 2,
        "pi_diag": 1,
    }


def test_reference_agrees_on_long_block_words():
    # same dual route on block-shaped candidates far beyond the scan bound
    for lead in (0, 2, 5):
        for m0 in (0, 1):
            for r0 in (0, 2, M1):
                for m1 in (0, 1):
                    for r1 in (0, 8, M2):
                        s = FiniteWord(
                            (2,) * lead + blk(m0, M1, r0) + blk(m1, M2, r1), 4
                        )
                        assert len(s) <= 60
                        for r in (FULL, DIAG):
                            assert (pi_member(s, r) is not None) == _reference_pi(s, r)
                        assert mu_member(s) == _reference_mu(s, "")


# ---------------------------------------------------------- omega powers

def test_mu_omega_frozen():
    assert mu_omega_member(LassoWord("", "03", size=4)) is Member.YES
    assert mu_omega_member(LassoWord("", "2", size=4)) is Member.NO
    assert mu_omega_member(LassoWord("", W_MU1.letters, size=4)) is Member.YES
    assert mu_omega_member(LassoWord("", W_MU0.letters, size=4)) is Member.YES


def _block_word(lead, blocks):
    return FiniteWord((2,) * lead + sum((blk(*b) for b in blocks), ()), 4)


def _block_lasso(lead, head, cycle):
    return LassoWord(_block_word(lead, head), _block_word(0, cycle), size=4)


_M_OR_NEAR = st.sampled_from((0, 1, M1, M1 + 1, M2))
_BLOCK = st.tuples(st.integers(0, 1), _M_OR_NEAR, _M_OR_NEAR)
_WHOLE_BLOCK_LASSOS = st.builds(
    _block_lasso,
    st.integers(0, 2),
    st.lists(_BLOCK, max_size=2),
    st.lists(_BLOCK, min_size=1, max_size=3),
)


@st.composite
def _cut_block_lassos(draw):
    # the first letters of the cycle move into the spoke: the same word,
    # with a cycle that starts inside a block; then one cycle letter may be
    # overwritten
    w = draw(_WHOLE_BLOCK_LASSOS)
    u, v = w.spoke.letters, w.cycle.letters
    cut = draw(st.integers(0, len(v) - 1))
    u, v = u + v[:cut], list(v[cut:] + v[:cut])
    if draw(st.booleans()):
        v[draw(st.integers(0, len(v) - 1))] = draw(st.integers(0, 3))
    return LassoWord(u, v, size=4)


_BLOCK_LASSOS = st.one_of(_WHOLE_BLOCK_LASSOS, _cut_block_lassos())


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_BLOCK_LASSOS)
def test_mu_omega_matches_factor_search_on_block_lassos(w):
    # lead 2-run, up to two head blocks and one to three cycle blocks, with
    # runs at and next to the offsets M_0, M_1, M_2, whole or cut
    cap = 4 * (len(w.spoke) + len(w.cycle)) + 8
    assert mu_omega_member(w) is omega_factor_evidence(w, mu_member, cap), str(w)


def test_mu_omega_rejects_carrier_words():
    for j in range(2):
        for n in range(m_offset(j) + 1):
            for m in corpus_lassos(2, 2, 2):
                assert mu_omega_member(KnjEncodedWord(n, j, m)) is Member.NO


def test_mu_omega_tail_words_unsupported():
    with pytest.raises(TypeError):
        mu_omega_member(word("122223", 4))


def test_classification_frozen():
    t, s_len, j = f_map(KnjEncodedWord(0, 0, LassoWord("", "1")))
    assert (len(t), s_len, j) == (0, 0, 1)
    t, s_len, j = f_map(KnjEncodedWord(3, 1, LassoWord("1", "0")))
    assert (len(t), s_len, j) == (0, 3, 2)
    with pytest.raises(NotInP):
        f_map(LassoWord("", "2", size=4))
    with pytest.raises(InMuOmega):
        f_map(LassoWord("", W_MU1.letters, size=4))
    with pytest.raises(TypeError):
        f_map(word("122223", 4))


def test_classification_triples_distinct_on_grid():
    seen = set()
    for j in range(2):
        for n in range(m_offset(j) + 1):
            w = KnjEncodedWord(n, j, LassoWord("", "1"))
            t, s_len, j1 = f_map(w)
            assert (len(t), s_len, j1) == (0, n, j + 1)
            assert (s_len, j1) not in seen
            seen.add((s_len, j1))


def test_suitability_of_a_mu_prefixed_class():
    # t keeps a defect block plus the next m 2^P 3; the address convention
    # hands is_suitable the index of that P-run
    t = FiniteWord(blk(1, M1, 2) + (0,) + (2,) * M2 + (3,), 4)
    assert mu_member(t)
    assert t.letters[-1] == 3
    assert is_suitable(t, M2, 2)
    assert not is_suitable(t, M2, 3)


def test_suitability_frozen():
    empty = word("", 4)
    assert is_suitable(empty, 0, 0)
    assert not is_suitable(empty, 1, 0)
    assert is_suitable(None, 0, 0)
    assert is_suitable(empty, 4, 1)
    assert not is_suitable(empty, 5, 1)


def test_one_probe_suitability_matches_two_probe_reference():
    # t is empty or a mu-word ending in 3: every such word of length <= 7,
    # plus two-block words whose last P-run reaches M_3, so that each j <= 3
    # has suitable triples; S runs to M_j + 2
    ts = [FiniteWord((), 4)]
    for n in range(1, 8):
        for tup in itertools.product((0, 1, 2, 3), repeat=n - 1):
            ts.append(FiniteWord(tup + (3,), 4))
    for r0, m1, j1 in itertools.product((0, M1), (0, 1), range(4)):
        ts.append(FiniteWord(blk(1, M1, r0) + blk(m1, m_offset(j1), 0), 4))
    ts = [t for t in ts if len(t) == 0 or mu_member(t)]
    cases, suitable = 0, [0] * 4
    for t in ts:
        for j in range(4):
            for s_len in range(m_offset(j) + 3):
                got = is_suitable(t, s_len, j)
                assert got == two_probe_is_suitable(t, s_len, j), (str(t), s_len, j)
                cases += 1
                suitable[j] += got
    assert (len(ts), cases, suitable) == (87, 10_440, [77, 9, 23, 89])


_BLOCK_WORDS = st.builds(
    _block_word,
    st.integers(0, 2),
    st.lists(_BLOCK, min_size=1, max_size=4),
)
_RAW_WORDS = st.lists(st.integers(0, 3), max_size=12).map(lambda xs: FiniteWord(xs, 4))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.one_of(_BLOCK_WORDS, _RAW_WORDS))
def test_mu_membership_ignores_block_letters(s):
    # the single suitability probe rests on this: swapping a block letter
    # 0 <-> 1 moves none of mu, mu0, mu1
    def verdicts(w):
        return mu_member(w), mu0_member(w), mu1_member(w)

    want = verdicts(s)
    for i, x in enumerate(s.letters):
        if x in (0, 1):
            swapped = FiniteWord(s.letters[:i] + (1 - x,) + s.letters[i + 1 :], 4)
            assert verdicts(swapped) == want, (str(s), i)


def test_suitability_domain_guards():
    assert not is_suitable(word("122223", 4), 0, 1)  # pi word, not mu
    dangling = FiniteWord(W_MU0.letters + (2, 2), 4)
    assert mu_member(dangling)
    assert not is_suitable(dangling, 0, 1)  # must end with the letter 3
    with pytest.raises(WorkbenchError):
        is_suitable(word("", 4), -1, 0)


def test_carrier_omega_frozen():
    one = KnjEncodedWord(0, 0, LassoWord("", "1"))
    ten = KnjEncodedWord(0, 0, LassoWord("1", "0"))
    zero = KnjEncodedWord(0, 0, LassoWord("", "0"))
    assert pi_omega_knj_member(one, DIAG)
    assert not pi_omega_knj_member(ten, DIAG)
    assert pi_omega_knj_member(zero, FULL)
    with pytest.raises(TypeError):
        pi_omega_knj_member(LassoWord("", "1", size=4), FULL)


def test_a_omega_frozen():
    assert a_omega_member(KnjEncodedWord(0, 0, LassoWord("", "1")), DIAG) is Member.YES
    assert a_omega_member(LassoWord("", W_MU1.letters, size=4), FULL) is Member.YES
    assert a_omega_member(LassoWord("", "2", size=4), FULL) is Member.NO
    assert a_omega_member(LassoWord("", "2", size=4), DIAG) is Member.NO


def test_a_omega_on_carriers_reduces_to_pi_omega():
    lassos = list(corpus_lassos(2, 3, 3))
    for r in (FULL, DIAG):
        for j in range(7):
            for n in sorted({0, m_offset(j) // 2, m_offset(j)}):
                # the decider builds M_(j+1)-letter probes: thin out the
                # block words where those runs get long
                for m in lassos[:: 1 if j < 5 else 5]:
                    w = KnjEncodedWord(n, j, m)
                    want = pi_omega_knj_member(w, r)
                    assert want == ts_lasso_accepts(r, n, m), str(w)
                    assert a_omega_member(w, r) is Member.of(want), str(w)
