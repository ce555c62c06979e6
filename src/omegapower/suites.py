"""Verification suites: bounded dual-route comparisons with JSON reports.

Every suite runs two independent routes to the same answers over a bounded
corpus and reports case counts plus capped counterexamples.  Reports
serialize to canonical JSON (sorted keys, no volatile fields); wall-clock
time stays on the object for display but out of the canonical form, so
identical runs produce identical bytes.
"""

import itertools
import json
import operator
import time
from typing import Callable, NamedTuple

from . import pairs
from .automata import (
    lasso_accepts,
    omega_power_automaton,
    pinf_member,
    xi1_sigma_witness,
    zero_star_one_automaton,
    zero_word_automaton,
)
from .construction import a_member, a_omega_member, f_map, mu_omega_member, pi_omega_knj_member
from .corpus import corpus_lassos, random_lassos
from .erasing import (
    DEFAULT_BUDGET,
    a3_omega_member,
    b2_omega_member,
    e_counter_member,
    e_def_member,
    e_preimage_check,
    erase_fin,
    t_keep,
    t_member,
)
from .errors import WorkbenchError, check_count
from .knj import KnjAddress, knj_prefix_consistent, phi, phi_inverse
from .oracles import enumerate_pairs, omega_factor_evidence
from .rtree import RTreePresentation, diag_tree, full_tree, load_tree, ts_lasso_accepts
from .verdicts import Member
from .words import KnjEncodedWord, LassoWord, prefix

# the package version (pyproject.toml reads it); part of every report digest
VERSION = "0.1.0"

EXAMPLE_CAP = 10


class SuiteReport:
    """One suite run: run_suite records its parameters and time, and the
    runner adds its cases, one at a time with case and undecided or many at
    once with tally.  Every failed case reaches the counterexamples through
    tally."""

    def __init__(self, suite, parameters):
        self.suite = suite
        self.parameters = parameters
        self.cases_total = 0
        self.cases_failed = 0
        self.cases_inconclusive = 0
        self.counterexamples = []
        self.runtime_ms = 0
        self.version = VERSION

    def case(self, literal, expected, got, prefix=None):
        """One case.  A failed one is labelled "prefix literal" when a prefix
        is given, formatted only on failure, so passing cases never build
        it."""
        if expected == got:
            self.cases_total += 1
        else:
            label = literal if prefix is None else f"{prefix} {literal}"
            self.tally(1, 1, [(label, expected, got)])

    def tally(self, total, failed, failures):
        """total cases at once, failed of them failing.  failures yields the
        failing cases as (label, expected, got) in report order, each part
        reported by its str(); it is read only while the counterexample cap
        has room and never past its failed-th case, so a passing run never
        evaluates it."""
        self.cases_total += total
        self.cases_failed += failed
        room = min(failed, EXAMPLE_CAP - len(self.counterexamples))
        for label, expected, got in itertools.islice(failures, room):
            self.counterexamples.append([str(label), str(expected), str(got)])

    def undecided(self):
        self.cases_total += 1
        self.cases_inconclusive += 1

    @property
    def verdict(self):
        if self.cases_failed:
            return "fail"
        if self.cases_inconclusive:
            return "inconclusive"
        return "pass"

    def to_json(self):
        return json.dumps(
            {
                "suite": self.suite,
                "parameters": self.parameters,
                "cases_total": self.cases_total,
                "cases_failed": self.cases_failed,
                "cases_inconclusive": self.cases_inconclusive,
                "counterexamples": self.counterexamples,
                "verdict": self.verdict,
                "version": self.version,
            },
            sort_keys=True,
            indent=2,
        ) + "\n"

    def summary(self):
        return (
            f"{self.suite}: {self.verdict} ({self.cases_total} cases, "
            f"{self.cases_failed} failed, {self.cases_inconclusive} inconclusive, "
            f"{self.runtime_ms} ms)"
        )


def _resolve_tree(tree):
    """A presentation as given, else the tree load_tree names."""
    if isinstance(tree, RTreePresentation):
        return tree
    return load_tree(tree)


# ------------------------------------------------------------- corpora

def _words3_up_to(bound):
    """All letter tuples over {0,1,2} of length <= bound, by length, then
    lexicographically; generated lazily."""
    return itertools.chain.from_iterable(
        itertools.product((0, 1, 2), repeat=length) for length in range(bound + 1)
    )


def _knj_grid(max_j, m_bound):
    """Carrier addresses with j <= max_j (all N) crossed with small binary
    block lassos."""
    ms = list(corpus_lassos(2, m_bound, m_bound))
    for j in range(max_j + 1):
        for n in range(pairs.m_offset(j) + 1):
            for m in ms:
                yield KnjEncodedWord(n, j, m)


def _merged(*corpora):
    """The words of the corpora in order, each at its first occurrence;
    the order is part of every report digest."""
    return list(dict.fromkeys(itertools.chain(*corpora)))


# ------------------------------------------------------------- suites

def _suite_pair_enum_roundtrip(report, bound):
    roundtrips = lambda: map(pairs.index_of_q, map(pairs.q_of_index, range(bound)))
    misses = sum(map(operator.ne, roundtrips(), range(bound)))
    failures = ((f"q_{n}", n, got) for n, got in enumerate(roundtrips()) if got != n)
    report.tally(bound, misses, failures)
    for n, p in enumerate(enumerate_pairs(3)):
        report.case(f"order_{n}", str(p), str(pairs.q_of_index(n)))
    for j in range(7):
        expect = pairs.QPair((1,) * j, (1,) * j)
        report.case(f"offset_{j}", str(expect), str(pairs.q_of_index(pairs.m_offset(j))))
    for n in range(min(bound, 200)):
        q = pairs.q_of_index(n)
        for m in (0, 1):
            for p in sorted(pairs.successors(n, m)):
                ext = pairs.q_of_index(p)
                ok = (
                    ext.alpha == q.alpha + (m,)
                    and ext.beta[: len(q)] == q.beta
                    and len(ext) == len(q) + 1
                )
                report.case(f"step_{n}_{m}_{p}", True, ok)


def _lane_bits(letters):
    """A binary word as an int whose bit q is letter q."""
    return sum(x << q for q, x in enumerate(letters))


def _failing_lanes(diff, val, pos, width):
    """(k, got) for each lane k with a bit set in diff; got is the word that
    lane k of val holds, its length marked by the lane's bit in pos."""
    lane = (1 << width) - 1
    k = 0
    while diff:
        skip = ((diff & -diff).bit_length() - 1) // width
        k += skip
        diff >>= skip * width
        val >>= skip * width
        pos >>= skip * width
        got = val & lane
        yield k, tuple((got >> q) & 1 for q in range((pos & lane).bit_length() - 1))
        k += 1
        diff >>= width
        val >>= width
        pos >>= width


def _lanes_set(diff, width, lows):
    """How many lanes of diff have a bit set; lows holds bit 0 of every lane."""
    span = 1
    while span < width:  # fold each lane's bits down onto its bit 0
        step = min(span, width - span)
        diff |= diff >> step
        span += step
    return (diff & lows).bit_count()


def _suite_erase_homomorphism(report, bound):
    """erase(s . t) against erase_fin(s) . erase_fin(t) for every pair of
    T-words up to the bound, with one lane of `width` bits per left factor
    s = words[k] (bit-parallel shift-and, Baeza-Yates & Gonnet 1992).

    Route A erases s . t letter by letter.  Its own loop over s puts the
    letters emitted for s in lane k of `val` (bit q is letter q), one bit in
    lane k of `pos` at the lane's next free position, and the unflipped 1s
    in `tops`, a stack of lane masks aligned at the top.  Each right factor
    t then starts from these saved lanes and its own copy of the stack and
    moves every lane at once: a 0 shifts pos, a 1 sets val |= pos, pushes
    pos and shifts it, a 2 pops a mask and clears it in val.  Route B is
    erase_fin(s) . erase_fin(t) packed into the same lanes: `es` holds every
    erase_fin(s) and `start` marks where each lane's image of t begins.
    Each t compares two ints; only a mismatch decodes its failing lanes."""
    words = [w for w in _words3_up_to(bound) if t_member(w)]
    images = [erase_fin(w).letters for w in words]
    # room for |s| + |t| letters and the next-free bit on either route, so a
    # map that lengthens its images cannot spill into the next lane
    width = 2 * max(bound, *map(len, images)) + 1
    image_bits = [_lane_bits(e) for e in images]
    es = start = s_val = s_pos = 0
    tops = []  # tops[d]: each lane's unflipped 1 at depth d from the top
    for k, s in enumerate(words):
        base = k * width
        es |= image_bits[k] << base
        start |= 1 << (base + len(images[k]))
        emitted = length = 0
        ones = []
        for x in s:
            if x == 2:
                emitted ^= 1 << ones.pop()
            else:
                if x == 1:
                    ones.append(length)
                    emitted |= 1 << length
                length += 1
        s_val |= emitted << base
        s_pos |= 1 << (base + length)
        for d, q in enumerate(reversed(ones)):
            if d == len(tops):
                tops.append(0)
            tops[d] |= 1 << (base + q)
    lows = ((1 << (len(words) * width)) - 1) // ((1 << width) - 1)
    bad = []  # (k, i, got): the first EXAMPLE_CAP failures in (s, t) order
    misses = 0
    for i, t in enumerate(words):
        val, pos, live = s_val, s_pos, tops[::-1]
        for x in t:
            if x == 0:
                pos <<= 1
            elif x == 1:
                val |= pos
                live.append(pos)
                pos <<= 1
            else:
                val ^= live.pop()
        want = es | image_bits[i] * start
        want_pos = start << len(images[i])
        if val != want or pos != want_pos:
            diff = (val ^ want) | (pos ^ want_pos)
            misses += _lanes_set(diff, width, lows)
            # only a t's first lanes can be among the first failures
            lanes = itertools.islice(_failing_lanes(diff, val, pos, width), EXAMPLE_CAP)
            bad = sorted(bad + [(k, i, got) for k, got in lanes])[:EXAMPLE_CAP]
    failures = (
        ("".join(map(str, words[k] + ("|",) + words[i])), images[k] + images[i], got)
        for k, i, got in bad
    )
    report.tally(len(words) ** 2, misses, failures)
    return {"words": len(words)}


def _suite_e_dual(report, bound):
    """Both characterizations of E on every word over {0,1,2} up to the
    bound, one call to each per word; only a failing run walks the words
    again, to report its first counterexamples."""
    words = lambda: _words3_up_to(bound)
    misses = sum(map(operator.ne, map(e_def_member, words()), map(e_counter_member, words())))
    failures = (
        ("".join(map(str, w)) or "ε", want, got)
        for w in words()
        if (want := e_def_member(w)) != (got := e_counter_member(w))
    )
    report.tally((3 ** (bound + 1) - 1) // 2, misses, failures)


SIGMA2_SAMPLES = 10_000


def _sigma2_cases(bound, seed) -> list:
    """The sigma2-main corpus: every T-lasso with |u|, |v| <= bound, then
    the new ones among SIGMA2_SAMPLES seeded draws with |u|, |v| <= 8."""
    return _merged(
        corpus_lassos(3, bound, bound, keep=t_keep),
        random_lassos(3, SIGMA2_SAMPLES, 8, 8, seed, keep=t_keep),
    )


def _suite_sigma2_main(report, bound, seed, budget):
    """Route A is a3_omega_member, whose E-depth budget may leave a case
    INCONCLUSIVE; route B, e_preimage_check, decides every case."""
    for w in _sigma2_cases(bound, seed):
        got = a3_omega_member(w, budget)
        want = e_preimage_check(w)
        if got is Member.INCONCLUSIVE:
            report.undecided()
        else:
            report.case(w, want.value, got.value)
    return {"samples": SIGMA2_SAMPLES}


def _suite_xi_low(report, bound):
    zero_power = omega_power_automaton(zero_word_automaton())
    ones_power = omega_power_automaton(zero_star_one_automaton())
    xi1_power = omega_power_automaton(xi1_sigma_witness())
    zero_lasso = LassoWord((), (0,), size=2)
    for w in corpus_lassos(2, bound, bound):
        report.case(w, w == zero_lasso, lasso_accepts(zero_power, w), "zero")
        report.case(w, pinf_member(w), lasso_accepts(ones_power, w), "ones")
        report.case(w, b2_omega_member(w), lasso_accepts(xi1_power, w), "xi1")


def _suite_knj_roundtrip(report, bound):
    for w in _knj_grid(2, 2):
        addr = KnjAddress(w.n, w.j)
        report.case(w, str(w.m), str(phi(phi_inverse(w.m, addr))), "phi")
        head = prefix(w, bound)
        report.case(w, True, knj_prefix_consistent(head, addr), "consistent")
        # The negative checks only bite once the prefix reaches the first
        # position where the two carrier shapes disagree.
        if w.n + 1 <= pairs.m_offset(w.j) and bound > w.n:
            wrong = KnjAddress(w.n + 1, w.j)
            report.case(w, False, knj_prefix_consistent(head, wrong), "shifted")
        if bound >= w.n + pairs.m_offset(w.j + 1) + 2:
            wrong_j = KnjAddress(w.n, w.j + 1)
            report.case(w, False, knj_prefix_consistent(head, wrong_j), "misfiled")


def _suite_theorem2_key_equality(report, bound):
    grid = list(_knj_grid(2, bound))
    for r in (full_tree(), diag_tree()):
        for w in grid:
            report.case(w, ts_lasso_accepts(r, w.n, w.m), pi_omega_knj_member(w, r), r.name)


def _suite_mu_knj_disjoint(report, bound):
    for w in _knj_grid(2, bound):
        report.case(w, Member.NO.value, mu_omega_member(w).value, "mu")
        t, s_len, j1 = f_map(w)
        ok = len(t) == 0 and s_len == w.n and j1 == w.j + 1
        report.case(w, True, ok, "triple")


def _curated_a_omega():
    """Hand-built block-shaped lassos with known mu-defect behavior."""
    m1, m2 = pairs.m_offset(1), pairs.m_offset(2)
    blk = lambda m, p, r: (m,) + (2,) * p + (3,) + (2,) * r
    return [
        LassoWord((), blk(1, m1, m1), size=4),
        LassoWord((), blk(1, m1, m1) + blk(0, m2, m2), size=4),
        LassoWord((), blk(1, m1, 2) + blk(0, m1, m1), size=4),
        LassoWord((2,) * 3, blk(0, m1, m1), size=4),
        LassoWord((), blk(1, 5, 5), size=4),
        LassoWord((1, 3), (2,), size=4),
        LassoWord((), (0,), size=4),
        LassoWord((), (2, 3), size=4),
    ]


def _suite_a_omega_decomposition(report, bound, seed, tree):
    r = _resolve_tree(tree)
    member = lambda s: a_member(s, r)
    for w in _merged(
        corpus_lassos(4, 2, bound), _curated_a_omega(), random_lassos(4, 200, 6, 6, seed)
    ):
        got = a_omega_member(w, r)
        cap = 4 * (len(w.spoke) + len(w.cycle)) + 8
        want = omega_factor_evidence(w, member, cap)
        report.case(w, want.value, got.value)
    for w in _knj_grid(1, 2):
        got = a_omega_member(w, r)
        want = Member.of(ts_lasso_accepts(r, w.n, w.m))
        report.case(w, want.value, got.value)
    return {"tree": r.name}


class Suite(NamedTuple):
    """A suite: its runner, its default and maximum bound, and the default
    of each other parameter the runner reads (its keyword arguments).  The
    runner adds its cases to the report it is given and returns the
    parameters it derives, if any."""

    run: Callable
    bound: int
    max_bound: int
    reads: dict = {}


DEFAULT_SEED = 20260814

# Each maximum bound lets a run end in about a minute (measured on a 2-vCPU
# host), not hours, and lies above the suite's default and acceptance-gate
# bounds.  pair-enum-roundtrip checks one index per unit of bound,
# erase-homomorphism every pair of T-words up to the bound (709,742,881 at
# 10), E-dual-characterization (3^(bound+1) - 1) / 2 words (7,174,453 at 14),
# sigma2-main every T-lasso with |u|, |v| <= bound, xi-low-witnesses every
# binary lasso with |u|, |v| <= bound, theorem2-key-equality and
# mu-knj-disjoint a carrier grid over those lassos, a-omega-decomposition
# every lasso over 4 letters with |u| <= 2 and |v| <= bound, and
# knj-roundtrip a carrier prefix of bound letters per grid word.
SUITES = {
    "pair-enum-roundtrip": Suite(_suite_pair_enum_roundtrip, 10_000, 1_000_000),
    "erase-homomorphism": Suite(_suite_erase_homomorphism, 6, 10),
    "E-dual-characterization": Suite(_suite_e_dual, 10, 14),
    "sigma2-main": Suite(
        _suite_sigma2_main, 4, 6, {"seed": DEFAULT_SEED, "budget": DEFAULT_BUDGET}
    ),
    "xi-low-witnesses": Suite(_suite_xi_low, 5, 9),
    "knj-roundtrip": Suite(_suite_knj_roundtrip, 2000, 1_000_000),
    "theorem2-key-equality": Suite(_suite_theorem2_key_equality, 4, 6),
    "mu-knj-disjoint": Suite(_suite_mu_knj_disjoint, 2, 8),
    "a-omega-decomposition": Suite(
        _suite_a_omega_decomposition, 3, 7, {"seed": DEFAULT_SEED, "tree": "full"}
    ),
}


def check_run(name, bound=None, **given) -> Suite:
    """Suite `name`'s entry once the arguments pass: refuses an unknown
    suite, numbers check_count refuses, a bound past the maximum and a seed,
    tree or budget the suite does not read.  Call it before any write."""
    suite = SUITES.get(name)
    if suite is None:
        raise WorkbenchError(f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}")
    if bound is not None and check_count(bound, "bound") > suite.max_bound:
        raise WorkbenchError(f"{name} takes a bound of at most {suite.max_bound}, got {bound}")
    unread = [key for key, value in given.items() if value is not None and key not in suite.reads]
    if unread:
        raise WorkbenchError(f"{name} does not read {' or '.join(unread)}")
    for key in ("seed", "budget"):
        if given.get(key) is not None:
            check_count(given[key], key, signed=key == "seed")
    return suite


def run_suite(name, bound=None, seed=None, tree=None, budget=None) -> SuiteReport:
    given = {"seed": seed, "tree": tree, "budget": budget}
    suite = check_run(name, bound, **given)
    bound = suite.bound if bound is None else bound
    # a value of 0 is a value: only None takes the default
    args = {key: d if given[key] is None else given[key] for key, d in suite.reads.items()}
    report = SuiteReport(name, {"bound": bound, **args})
    t0 = time.monotonic()
    report.parameters.update(suite.run(report, bound, **args) or {})
    report.runtime_ms = int((time.monotonic() - t0) * 1000)
    return report
