"""Tests of the benchmark's own checks: tampered reports, short call counts
and wrong verdicts must be rejected, and the metric names must match
BENCHMARK.json.  Run with ``PYTHONPATH=src python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import measure
import plan
import run
from tracing import Tracer, percentile

ROOT = Path(__file__).resolve().parent.parent


def test_gate_report_accepted_then_tampered_reports_rejected():
    pkg = measure.import_package()
    suite, params = "xi-low-witnesses", {"bound": 5}
    assert (suite, params) in plan.GATES["carrier-gate"]
    report = pkg.run_suite(suite, **params)
    assert measure.check_gate_report(suite, report) == []

    report.counterexamples = [["(1)", "True", "False"]]
    assert any("digest" in p for p in measure.check_gate_report(suite, report))
    report.counterexamples = []
    report.cases_total -= 1
    assert any("cases" in p for p in measure.check_gate_report(suite, report))
    report.cases_total += 1
    report.cases_failed = 1
    assert any("verdict fail" in p for p in measure.check_gate_report(suite, report))


def test_traced_calls_must_equal_case_counts():
    calls = {name: 0 for name in plan.TRACED}
    calls["erasing.e_def_member"] = calls["erasing.e_counter_member"] = 797_161
    cases = {"E-dual-characterization": 797_161}
    assert measure.check_gate_calls("finite-gate", calls, cases) == []
    calls["erasing.e_counter_member"] -= 1
    assert measure.check_gate_calls("finite-gate", calls, cases) == [
        "erasing.e_counter_member: 797160 calls, expected 797161"
    ]


def test_query_verdicts_checked_against_the_other_route():
    pkg = measure.import_package()
    queries = [
        ("sigma2", "(1122)", None),
        ("xi", "(0)", "xi1-pi"),
        ("xi", "1(0)", "xi1-sigma"),
        ("theorem2", "K[0,0](1)", "full"),
        ("theorem2", "K[3,1]0(10)", "diag"),
    ]
    mix = measure.QueryMix(pkg, queries, [("theorem2", "K[0,40](1)", "full")])
    _, verdicts = mix.run_pass()
    assert mix.check([verdicts, verdicts]) == (0, [])

    flipped = ["no" if v == "yes" else "yes" for v in verdicts]
    failed, problems = mix.check([flipped])
    assert failed == 0 and len(problems) == len(queries)
    assert mix.check([verdicts, flipped])[1][0] == "pass 1 disagrees with pass 0"

    outcomes, problems = mix.run_probes()
    assert problems == [] and len(outcomes) == 1


def test_queries_are_seeded_and_fixed_in_composition():
    pkg = measure.import_package()
    queries, probes = plan.make_queries(7)
    assert (queries, probes) == plan.make_queries(7)
    assert queries != plan.make_queries(8)[0]
    kinds = [kind for kind, _, _ in queries]
    assert kinds.count("sigma2") == plan.SIGMA2_QUERIES
    assert kinds.count("xi") == plan.XI_PER_AUTOMATON * len(plan.XI_AUTOMATA)
    for kind, text, _ in queries:
        if kind == "sigma2":
            assert pkg.t_member(pkg.parse_word_literal(text, 3))
        elif kind == "theorem2":
            assert pkg.parse_word_literal(text, 4).j <= plan.THEOREM2_MAX_J
    assert all(pkg.parse_word_literal(text, 4).j >= plan.PROBE_MIN_J for _, text, _ in probes)


def test_tracer_counts_calls_and_generators_and_restores_functions():
    pkg = measure.import_package()
    original = pkg.erasing.e_def_member
    tracer = Tracer(["erasing.e_def_member", "corpus.corpus_lassos"])
    with tracer:
        assert pkg.erasing.e_def_member is not original
        for _ in range(3):
            pkg.e_def_member(pkg.FiniteWord((1, 2), 3))
        words = list(pkg.corpus_lassos(2, 1, 1))
    assert pkg.erasing.e_def_member is original and pkg.e_def_member is original
    table = tracer.table()
    assert table["erasing.e_def_member"]["calls"] == 3
    assert table["corpus.corpus_lassos"]["calls"] == 1 and len(words) == 4
    assert 0 < table["corpus.corpus_lassos"]["busy_s"] <= tracer.top_s


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([], 99) == 0.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == plan.per_layer_names()
    result = {"pass_s": [2.0, 1.0, 3.0], "verdicts_per_pass": 10, "peak_rss_kb": 2048}
    assert list(run.end_to_end(result, [0.1, 0.2])) == [m["name"] for m in spec["end_to_end"]]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sigma2-gate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
