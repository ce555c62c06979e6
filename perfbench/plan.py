"""What each workload runs, and the seeded query generator.

Standard library only: the parent process imports this without importing
``omegapower``.
"""

import random

DEFAULT_SEED = 20260814

# Each gate workload is a list of (suite, run_suite keyword arguments) at the
# acceptance-gate bounds of tests/test_acceptance.py.  Gate inputs do not
# depend on the workload seed: the seed only sets PYTHONHASHSEED, which
# decides set-iteration order and so where the searches stop early.
GATES = {
    "sigma2-gate": (
        ("sigma2-main", {"bound": 4, "seed": 20260814, "budget": 10_000}),
    ),
    "finite-gate": (
        ("erase-homomorphism", {"bound": 8}),
        ("E-dual-characterization", {"bound": 12}),
        ("pair-enum-roundtrip", {"bound": 100_000}),
    ),
    "carrier-gate": (
        ("theorem2-key-equality", {"bound": 4}),
        ("a-omega-decomposition", {}),
        ("mu-knj-disjoint", {"bound": 4}),
        ("knj-roundtrip", {"bound": 2000}),
        ("xi-low-witnesses", {"bound": 5}),
    ),
}

WORKLOADS = tuple(GATES) + ("query-mix",)

SUITES = tuple(suite for plan in GATES.values() for suite, _ in plan)

# Functions the traced run wraps, as <module>.<function> inside omegapower.
TRACED = (
    "erasing.a3_omega_member",
    "erasing.e_preimage_check",
    "erasing.e_def_member",
    "erasing.e_counter_member",
    "corpus.corpus_lassos",
    "corpus.random_lassos",
    "pairs.q_of_index",
    "pairs.index_of_q",
    "rtree.ts_lasso_accepts",
    "construction.pi_omega_knj_member",
    "construction.a_omega_member",
    "construction.mu_omega_member",
    "oracles.omega_factor_evidence",
    "automata.lasso_accepts",
    "knj.knj_prefix_consistent",
    "words.prefix",
    "literals.parse_word_literal",
)

STATS = ("calls", "busy_s", "p50_us", "p99_us")


def per_layer_names():
    """Every per-layer metric name, in BENCHMARK.json order."""
    names = [f"{fn}.{stat}" for fn in TRACED for stat in STATS]
    names.append("construction.a_omega_member.raised")
    names += [f"suites.{suite}.wall_s" for suite in SUITES]
    names += ["suites.self_s", "trace.overhead_s"]
    return names


# query-mix: a fixed composition per pass so that percentiles land in the
# same part of the latency distribution whatever the seed.  Most queries are
# sigma2 lassos, so the median sits inside the a3_omega_member body; 20
# carriers per pass have j = 8, so p99 sits inside the slowest theorem2 group.
SIGMA2_QUERIES = 660
SIGMA2_MAX = 24
XI_PER_AUTOMATON = 120
XI_MAX = 32
XI_AUTOMATA = ("xi1-pi", "xi2-pi", "xi1-sigma")
THEOREM2_PER_J_AND_TREE = 10
THEOREM2_MAX_J = 8
THEOREM2_M_MAX = 4
TREES = ("full", "diag")
# Carriers with j >= 31 make today's a_omega_member raise OverflowError.  They
# run after the timed loop as a probe, not among the timed queries.  j from 9
# to 30 is left out: there the decider materializes about M_(j+1) letters.
PROBE_CARRIERS = 4
PROBE_MIN_J = 31
PROBE_MAX_J = 48


def _bits(rng, n, alphabet):
    return "".join(str(rng.randrange(alphabet)) for _ in range(n))


def _t_lasso(rng, max_len):
    """A T-lasso literal: every prefix of u v v has at least as many 1s as
    2s and the cycle does not lose ground.  A 2 that would go below zero is
    redrawn from {0, 1}; a cycle with a negative balance is drawn again."""
    while True:
        u, v, count = [], [], 0
        for part, length in ((u, rng.randint(0, max_len)), (v, rng.randint(1, max_len))):
            for _ in range(length):
                x = rng.randrange(3) if count > 0 else rng.randrange(2)
                count += (x == 1) - (x == 2)
                part.append(str(x))
        if v.count("1") >= v.count("2"):
            return f"{''.join(u)}({''.join(v)})"


def _binary_lasso(rng, max_len):
    u = _bits(rng, rng.randint(0, max_len), 2)
    if rng.random() < 0.25:
        v = "0" * rng.randint(1, max_len)
    else:
        v = _bits(rng, rng.randint(1, max_len), 2)
    return f"{u}({v})"


def _carrier(rng, j):
    n = rng.randint(0, (4 ** (j + 1) - 4) // 3)  # 0 <= N <= M_j
    m_u = _bits(rng, rng.randint(0, THEOREM2_M_MAX), 2)
    m_v = _bits(rng, rng.randint(1, THEOREM2_M_MAX), 2)
    return f"K[{n},{j}]{m_u}({m_v})"


def make_queries(seed):
    """The timed queries of one pass, as (construction, literal, argument)
    in a seeded order, plus the probe carriers.  The argument names the
    automaton for xi queries and the tree for theorem2 queries."""
    rng = random.Random(seed)
    queries = [("sigma2", _t_lasso(rng, SIGMA2_MAX), None) for _ in range(SIGMA2_QUERIES)]
    for name in XI_AUTOMATA:
        queries += [("xi", _binary_lasso(rng, XI_MAX), name) for _ in range(XI_PER_AUTOMATON)]
    for j in range(THEOREM2_MAX_J + 1):
        for tree in TREES:
            queries += [
                ("theorem2", _carrier(rng, j), tree) for _ in range(THEOREM2_PER_J_AND_TREE)
            ]
    rng.shuffle(queries)
    probes = [
        ("theorem2", f"K[{rng.randint(0, 1000)},{rng.randint(PROBE_MIN_J, PROBE_MAX_J)}]"
         f"{_bits(rng, rng.randint(0, 2), 2)}({_bits(rng, rng.randint(1, 2), 2)})",
         rng.choice(TREES))
        for _ in range(PROBE_CARRIERS)
    ]
    return queries, probes
