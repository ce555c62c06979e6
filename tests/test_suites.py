"""Verification suites: report shape, determinism, and small-bound runs of
every registered suite."""

import gc
import inspect
import itertools
import json
from pathlib import Path

import pytest

import omegapower
from omegapower import (
    SUITES,
    KnjEncodedWord,
    WorkbenchError,
    corpus_lassos,
    full_tree,
    pi_omega_knj_member,
    run_suite,
    ts_lasso_accepts,
)
from omegapower import cli, erasing, pairs, suites
from omegapower.erasing import a3_omega_member, e_counter_member, e_preimage_check, erase_fin
from omegapower.suites import SuiteReport
from omegapower.verdicts import Member
from omegapower.words import FiniteWord

from tree_reference import tree_to_json


def test_registry():
    assert sorted(SUITES) == [
        "E-dual-characterization",
        "a-omega-decomposition",
        "erase-homomorphism",
        "knj-roundtrip",
        "mu-knj-disjoint",
        "pair-enum-roundtrip",
        "sigma2-main",
        "theorem2-key-equality",
        "xi-low-witnesses",
    ]
    with pytest.raises(WorkbenchError):
        run_suite("no-such-suite")
    # theorem2-key-equality runs both built-in trees and reads none
    with pytest.raises(WorkbenchError, match="does not read tree"):
        run_suite("theorem2-key-equality", bound=1, tree="diag")


def test_every_suite_passes_at_small_bounds():
    small = {
        "pair-enum-roundtrip": dict(bound=500),
        "erase-homomorphism": dict(bound=4),
        "E-dual-characterization": dict(bound=6),
        "xi-low-witnesses": dict(bound=3),
        "knj-roundtrip": dict(bound=60),
        "theorem2-key-equality": dict(bound=2),
        "mu-knj-disjoint": dict(bound=1),
    }
    for name, params in small.items():
        report = run_suite(name, **params)
        assert report.verdict == "pass", report.summary()
        assert report.cases_total > 0
        assert report.cases_failed == 0
        assert report.counterexamples == []


def test_report_fields_and_verdict():
    report = run_suite("pair-enum-roundtrip", bound=100)
    assert report.suite == "pair-enum-roundtrip"
    assert report.parameters["bound"] == 100
    assert report.cases_failed + report.cases_inconclusive <= report.cases_total
    assert report.runtime_ms >= 0
    assert report.version
    line = report.summary()
    assert "pair-enum-roundtrip" in line and "pass" in line


def test_version_is_written_once():
    # reports write the version, so the value is part of every suite digest
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "omegapower.suites.VERSION"
    }
    assert omegapower.__version__ is suites.VERSION
    assert run_suite("knj-roundtrip", bound=1).version == "0.1.0"


def test_fail_verdict_requires_counterexamples():
    report = SuiteReport("demo", {})
    report.case("w1", True, True)
    report.case("w2", True, False)
    assert report.verdict == "fail"
    assert report.counterexamples == [["w2", "True", "False"]]
    assert report.cases_total == 2 and report.cases_failed == 1


def test_inconclusive_verdict():
    report = SuiteReport("demo", {})
    report.bulk_pass(3)
    report.undecided()
    assert report.verdict == "inconclusive"
    assert report.cases_total == 4 and report.cases_inconclusive == 1


def test_json_report_is_deterministic():
    a = run_suite("knj-roundtrip", bound=80).to_json()
    b = run_suite("knj-roundtrip", bound=80).to_json()
    assert a == b
    doc = json.loads(a)
    assert doc["suite"] == "knj-roundtrip"
    assert doc["verdict"] == "pass"
    assert doc["cases_failed"] == 0
    assert set(doc) == {
        "suite",
        "parameters",
        "cases_total",
        "cases_failed",
        "cases_inconclusive",
        "counterexamples",
        "verdict",
        "version",
    }


def test_seeded_suites_record_their_seed():
    report = run_suite("a-omega-decomposition", bound=2, seed=99)
    assert report.parameters["seed"] == 99
    assert report.verdict == "pass", report.summary()
    again = run_suite("a-omega-decomposition", bound=2, seed=99)
    assert report.to_json() == again.to_json()


def test_sigma2_suite_small_budget_reports_inconclusive_rate():
    # with a starved budget the suite must degrade to inconclusive, never
    # to a false verdict
    report = run_suite("sigma2-main", bound=2, seed=5, budget=1)
    assert report.cases_failed == 0
    assert report.cases_inconclusive > 0
    assert report.verdict == "inconclusive"


def _recorder(route, answers):
    def record(*args):
        answers.append(route(*args))
        return answers[-1]

    return record


def test_sigma2_budget_bounds_route_a_only(monkeypatch):
    # route B decides every case, so at budget 0 the suite is inconclusive
    # exactly where a3_omega_member is; both routes' answers are recorded
    # during the one suite pass
    a_answers, b_answers = [], []
    monkeypatch.setattr(suites, "a3_omega_member", _recorder(a3_omega_member, a_answers))
    monkeypatch.setattr(suites, "e_preimage_check", _recorder(e_preimage_check, b_answers))
    report = run_suite("sigma2-main", bound=3, budget=0)
    # 10,020 = len(_sigma2_cases(3, DEFAULT_SEED)), pinned so the corpus is
    # built once
    assert len(a_answers) == len(b_answers) == report.cases_total == 10_020
    assert Member.INCONCLUSIVE not in b_answers
    undecided = a_answers.count(Member.INCONCLUSIVE)
    assert report.cases_inconclusive == undecided > 0
    assert report.verdict == "inconclusive"


def _erase_per_pair(letters):
    emitted = []
    live = []
    for x in letters:
        if x == 2:
            emitted[live.pop()] = 0
        elif x == 1:
            live.append(len(emitted))
            emitted.append(1)
        else:
            emitted.append(0)
    return tuple(emitted)


def _erase_homomorphism_reference(bound):
    """The per-pair formulation: erase(s+t) from scratch for every pair,
    against the images of suites.erase_fin (looked up at call time, so a
    patched map reaches both this and the suite)."""
    words = [
        w
        for n in range(bound + 1)
        for w in itertools.product((0, 1, 2), repeat=n)
        if all(w[:k].count(1) >= w[:k].count(2) for k in range(n + 1))
    ]
    images = {w: suites.erase_fin(w).letters for w in words}
    report = SuiteReport("erase-homomorphism", {"bound": bound, "words": len(words)})
    misses = 0
    for s in words:
        for t in words:
            got = _erase_per_pair(s + t)
            if got != images[s] + images[t]:
                misses += 1
                report.fail_only(
                    "".join(map(str, s)) + "|" + "".join(map(str, t)),
                    images[s] + images[t],
                    got,
                )
    report.bulk_pass(len(words) * len(words) - misses)
    return report


@pytest.mark.parametrize("bound", range(6))
def test_erase_homomorphism_matches_the_per_pair_reference(bound):
    report = run_suite("erase-homomorphism", bound=bound)
    assert report.verdict == "pass"
    assert report.to_json() == _erase_homomorphism_reference(bound).to_json()


def _erase_keeping_a_leading_one(w):
    # faulty map: the 2 that should flip a leading 1 leaves it standing
    image = list(erase_fin(w).letters)
    if tuple(w)[:1] == (1,):
        image[0] = 1
    return FiniteWord(image, 2)


def test_erase_homomorphism_reports_a_faulty_map_like_the_reference(monkeypatch):
    monkeypatch.setattr(suites, "erase_fin", _erase_keeping_a_leading_one)
    report = run_suite("erase-homomorphism", bound=4)
    want = _erase_homomorphism_reference(4)
    assert report.verdict == "fail"
    assert report.cases_failed == want.cases_failed > 10
    assert report.counterexamples == want.counterexamples
    assert report.to_json() == want.to_json()


@pytest.mark.parametrize("suffix", [(1, 1), (0,)])
@pytest.mark.parametrize("bound", range(6))
def test_erase_homomorphism_lanes_hold_lengthened_images(monkeypatch, bound, suffix):
    # faulty map: a word that starts with 1 gets extra letters.  The lanes
    # are sized from the images, not from the bound alone, and a trailing 0
    # shows only in the length.
    def lengthening(w):
        image = erase_fin(w).letters
        return FiniteWord(image + suffix if tuple(w)[:1] == (1,) else image, 2)

    monkeypatch.setattr(suites, "erase_fin", lengthening)
    report = run_suite("erase-homomorphism", bound=bound)
    assert report.to_json() == _erase_homomorphism_reference(bound).to_json()


@pytest.mark.parametrize(
    "name, bound",
    [("erase-homomorphism", 4), ("E-dual-characterization", 6), ("pair-enum-roundtrip", 500)],
)
def test_finite_suites_leave_no_reference_cycles(name, bound):
    gc.collect()
    gc.disable()
    try:
        run_suite(name, bound=bound)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_pair_enum_roundtrip_reports_a_faulty_index(monkeypatch):
    # a faulty pair index: q_3 maps back to 4
    index_of_q = pairs.index_of_q
    monkeypatch.setattr(pairs, "index_of_q", lambda q: index_of_q(q) + (index_of_q(q) == 3))
    report = run_suite("pair-enum-roundtrip", bound=10)
    assert report.verdict == "fail"
    # successors reads the same index, so one step case fails with it
    assert report.counterexamples == [["q_3", "3", "4"], ["step_0_0_4", "True", "False"]]
    assert report.cases_failed == 2


def test_failed_cases_count_in_the_total(monkeypatch):
    # a bulk suite's total is its number of cases, however many fail
    monkeypatch.setattr(suites, "erase_fin", _erase_keeping_a_leading_one)
    report = run_suite("erase-homomorphism", bound=4)
    assert report.cases_failed > 0
    assert report.cases_total == report.parameters["words"] ** 2 == 3136

    def counter_without_the_word_12(w):
        return tuple(w) != (1, 2) and e_counter_member(w)

    monkeypatch.setattr(suites, "e_counter_member", counter_without_the_word_12)
    report = run_suite("E-dual-characterization", bound=5)
    assert report.cases_failed == 1
    assert report.cases_total == (3**6 - 1) // 2


def test_e_dual_counts_every_word_up_to_the_bound():
    for bound in range(4):
        report = run_suite("E-dual-characterization", bound=bound)
        assert report.cases_total == (3 ** (bound + 1) - 1) // 2
        assert report.verdict == "pass"


def test_e_dual_reports_its_first_counterexamples_in_corpus_order(monkeypatch):
    def counter_flipped_on_length_three(w):
        return e_counter_member(w) != (len(tuple(w)) == 3)

    monkeypatch.setattr(suites, "e_counter_member", counter_flipped_on_length_three)
    report = run_suite("E-dual-characterization", bound=3)
    first = list(itertools.product((0, 1, 2), repeat=3))[: suites.EXAMPLE_CAP]
    assert report.cases_total == 40 and report.cases_failed == 27
    assert [c[0] for c in report.counterexamples] == ["".join(map(str, w)) for w in first]
    assert report.counterexamples[5] == ["012", "False", "True"]


def test_finite_suites_refuse_bounds_past_their_maximum():
    # the acceptance-gate bound of each suite (tests/test_acceptance.py); no
    # other test runs a suite at a larger bound
    gate = {
        "pair-enum-roundtrip": 100_000,
        "erase-homomorphism": 8,
        "E-dual-characterization": 12,
        "sigma2-main": 4,
        "xi-low-witnesses": 5,
        "knj-roundtrip": 2000,
        "theorem2-key-equality": 4,
        "mu-knj-disjoint": 4,
        "a-omega-decomposition": 3,
    }
    assert set(gate) == set(SUITES)
    for name, suite in SUITES.items():
        assert suite.bound <= gate[name] <= suite.max_bound
        with pytest.raises(WorkbenchError, match=f"at most {suite.max_bound}"):
            run_suite(name, bound=suite.max_bound + 1)


def test_readme_suite_table_matches_the_registry():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.split(" | ")]
        if len(cells) > 4 and cells[0].startswith("| `"):
            reads = set(cells[3].replace("`", "").split(", ")) - {"—"}
            rows[cells[0][3:-1]] = (int(cells[1]), int(cells[2]), reads)
    # the CLI names the tree parameter --rtree
    flags = {"seed": "seed", "budget": "budget", "tree": "rtree"}
    assert rows == {
        name: (suite.bound, suite.max_bound, {flags[key] for key in suite.reads})
        for name, suite in SUITES.items()
    }


def test_words3_corpus_is_lazy_and_ordered():
    corpus = suites._words3_up_to(3)
    assert iter(corpus) is corpus
    listed = list(corpus)
    assert listed == sorted(listed, key=lambda w: (len(w), w))
    assert len(listed) == len(set(listed)) == 1 + 3 + 9 + 27


def test_case_labels_keep_their_form_when_formatted_on_failure(monkeypatch):
    # the label of a failing case is "tree carrier", as an f-string gave it
    # when every case built its label up front
    def negated(w, r):
        return not pi_omega_knj_member(w, r)

    monkeypatch.setattr(suites, "pi_omega_knj_member", negated)
    report = run_suite("theorem2-key-equality", bound=2)
    first = KnjEncodedWord(0, 0, next(iter(corpus_lassos(2, 2, 2))))
    assert report.cases_failed == report.cases_total
    assert len(report.counterexamples) == suites.EXAMPLE_CAP
    assert report.counterexamples[0][0] == f"full {first}"
    want = ts_lasso_accepts(full_tree(), 0, first.m)
    assert report.counterexamples[0][1:] == [str(want), str(not want)]


def test_a_omega_decomposition_resolves_its_tree(tmp_path):
    diag = omegapower.diag_tree()
    path = tmp_path / "tree.json"
    path.write_text(tree_to_json(diag), encoding="utf-8")
    assert suites._resolve_tree(diag) is diag
    assert suites._resolve_tree("full").name == "full"
    assert run_suite("a-omega-decomposition", bound=1).parameters["tree"] == "full"
    assert suites._resolve_tree("diag").name == "diag"
    assert suites._resolve_tree(str(path)).delta == diag.delta
    with pytest.raises(WorkbenchError):
        suites._resolve_tree(str(tmp_path / "missing.json"))
    by_name = run_suite("a-omega-decomposition", bound=1, tree="diag")
    assert by_name.to_json() == run_suite("a-omega-decomposition", bound=1, tree=diag).to_json()


def test_parameters_are_the_bound_the_reads_and_what_the_runner_derives(monkeypatch):
    # fewer seeded draws: this test reads parameters, not verdicts
    monkeypatch.setattr(suites, "SIGMA2_SAMPLES", 100)
    derived = {
        "sigma2-main": {"samples": 100},
        "erase-homomorphism": {"words": 3},  # ε, 0 and 1
        "a-omega-decomposition": {"tree": "full"},
    }
    for name, suite in SUITES.items():
        assert run_suite(name, bound=1).parameters == {
            "bound": 1,
            **suite.reads,
            **derived.get(name, {}),
        }
    # a value of 0 is kept, not taken for a missing one
    assert run_suite("sigma2-main", bound=1, seed=0, budget=0).parameters == {
        "bound": 1,
        "seed": 0,
        "budget": 0,
        "samples": 100,
    }
    assert run_suite("a-omega-decomposition", bound=1, seed=0, tree="diag").parameters == {
        "bound": 1,
        "seed": 0,
        "tree": "diag",
    }
    assert run_suite("mu-knj-disjoint").parameters == {"bound": SUITES["mu-knj-disjoint"].bound}


def test_the_budget_default_is_the_deciders():
    default = inspect.signature(a3_omega_member).parameters["budget"].default
    assert default == erasing.DEFAULT_BUDGET == 10_000
    assert SUITES["sigma2-main"].reads["budget"] is erasing.DEFAULT_BUDGET
    argv = ["omega-member", "--construction", "sigma2", "--input", "(12)"]
    args = cli._build_parser().parse_args(argv)
    assert args.budget is erasing.DEFAULT_BUDGET
