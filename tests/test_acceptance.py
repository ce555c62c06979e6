"""Acceptance gate: each test runs one criterion at its stated bound and
tolerance via the public suite runner, so `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion."""

import hashlib
import json
import time
from pathlib import Path

from omegapower import QPair, m_offset, q_of_index, run_suite

# the recorded gate reports: case count and sha256 of the canonical JSON
EXPECTED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text()
)["suites"]


def timed(name, **params):
    t0 = time.monotonic()
    report = run_suite(name, **params)
    elapsed = time.monotonic() - t0
    print(f"{report.summary()} [{elapsed:.2f}s wall]")
    want = EXPECTED[name]
    assert report.cases_total == want["cases_total"]
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == want["sha256"]
    return report, elapsed


def bits(s):
    return tuple(int(c) for c in s)


def test_criterion_01_pair_enumeration_fidelity():
    listed = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"), ("00", "00"), ("00", "01")]
    for n, (b, a) in enumerate(listed, start=1):
        assert q_of_index(n) == QPair(bits(b), bits(a))
    for j in range(7):
        assert q_of_index(m_offset(j)) == QPair((1,) * j, (1,) * j)
        assert len(q_of_index(m_offset(j) + 1)) == j + 1
    report, elapsed = timed("pair-enum-roundtrip", bound=100_000)
    assert report.verdict == "pass", report.counterexamples[:3]
    assert elapsed < 5


def test_criterion_02_erase_homomorphism_exhaustive():
    report, elapsed = timed("erase-homomorphism", bound=8)
    assert report.verdict == "pass", report.counterexamples[:3]
    assert elapsed < 300


def test_criterion_03_e_dual_characterization():
    report, elapsed = timed("E-dual-characterization", bound=12)
    assert report.verdict == "pass", report.counterexamples[:3]
    assert report.cases_total == 797_161  # all of 3^{<=12}
    assert elapsed < 60


def test_criterion_04_sigma2_main_identity():
    report, elapsed = timed("sigma2-main", bound=4, seed=20260814, budget=10_000)
    assert report.cases_failed == 0, report.counterexamples[:3]
    assert report.cases_inconclusive / report.cases_total < 0.05
    assert elapsed < 600


def test_criterion_05_low_level_witnesses():
    report, elapsed = timed("xi-low-witnesses", bound=5)
    assert report.verdict == "pass", report.counterexamples[:3]
    assert elapsed < 60


def test_criterion_06_key_equality_independent_routes():
    report, elapsed = timed("theorem2-key-equality", bound=4)
    assert report.verdict == "pass", report.counterexamples[:3]
    assert elapsed < 900


def test_criterion_07_mu_carrier_disjointness():
    report, _ = timed("mu-knj-disjoint", bound=4)
    assert report.verdict == "pass", report.counterexamples[:3]


def test_criterion_08_carrier_codec():
    report, elapsed = timed("knj-roundtrip", bound=2000)
    assert report.verdict == "pass", report.counterexamples[:3]
    assert elapsed < 60


def test_criterion_09_a_omega_decomposition_consistency():
    report, _ = timed("a-omega-decomposition")
    assert report.verdict == "pass", report.counterexamples[:3]
