"""Command line surface: verbs, literals, exit codes, verify reports."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from omegapower import pairs, suites
from omegapower.cli import console, main
from omegapower.pairs import m_offset
from omegapower.suites import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_enum_pair(capsys):
    code, out, _ = run(capsys, "enum", "q", "--index", "4")
    assert code == 0 and out == "(1,1)"
    code, out, _ = run(capsys, "enum", "q", "--index", "0")
    assert out == "(ε,ε)"


def test_enum_offset(capsys):
    code, out, _ = run(capsys, "enum", "m", "--j", "3")
    assert code == 0 and out == "84"


def test_erase_word(capsys):
    code, out, _ = run(capsys, "erase", "--word", "112")
    assert code == 0 and out == "10"


def test_erase_lasso(capsys):
    code, out, _ = run(capsys, "erase", "--lasso", "1(12)")
    assert code == 0 and out == "1(0)"


def test_erase_outside_domain(capsys):
    code, out, err = run(capsys, "erase", "--word", "21")
    assert code == 2
    assert "error" in err


def test_member_exit_codes(capsys):
    assert run(capsys, "member", "--lang", "E", "--word", "12")[0] == 0
    code, out, _ = run(capsys, "member", "--lang", "E", "--word", "0")
    assert code == 1 and out == "false"
    assert run(capsys, "member", "--lang", "T", "--word", "1122")[0] == 0
    assert run(capsys, "member", "--lang", "A3", "--word", "11")[0] == 0
    assert run(capsys, "member", "--lang", "B2", "--word", "01")[0] == 0
    assert run(capsys, "member", "--lang", "mu1", "--word", "1313")[0] == 0
    assert run(capsys, "member", "--lang", "mu0", "--word", "1313")[0] == 1


def test_member_uses_the_tree(capsys):
    argv = ["member", "--lang", "pi", "--word", "0222232"]
    assert main(argv + ["--rtree", "full"]) == 0
    assert main(argv + ["--rtree", "diag"]) == 1
    capsys.readouterr()


def test_member_rejects_lasso_literal(capsys):
    code, _, err = run(capsys, "member", "--lang", "T", "--word", "1(12)")
    assert code == 2 and "finite" in err


def test_member_rejects_bad_letters(capsys):
    code, _, err = run(capsys, "member", "--lang", "E", "--word", "123")
    assert code == 2


def test_omega_member_sigma2(capsys):
    assert run(capsys, "omega-member", "--construction", "sigma2", "--input", "(1122)")[0] == 0
    code, out, _ = run(capsys, "omega-member", "--construction", "sigma2", "--input", "1(12)")
    assert code == 1 and out == "no"
    code, out, _ = run(
        capsys,
        "omega-member",
        "--construction",
        "sigma2",
        "--input",
        "(1122)",
        "--budget",
        "1",
    )
    assert code == 3 and out == "inconclusive"


def test_omega_member_low_witnesses(capsys):
    assert run(capsys, "omega-member", "--construction", "xi1-sigma", "--input", "(0)")[0] == 0
    assert run(capsys, "omega-member", "--construction", "xi1-sigma", "--input", "1(0)")[0] == 1
    assert run(capsys, "omega-member", "--construction", "xi1-pi", "--input", "(0)")[0] == 0
    assert run(capsys, "omega-member", "--construction", "xi1-pi", "--input", "(01)")[0] == 1
    assert run(capsys, "omega-member", "--construction", "xi2-pi", "--input", "(01)")[0] == 0
    assert run(capsys, "omega-member", "--construction", "xi2-pi", "--input", "111(0)")[0] == 1


def test_omega_member_theorem2(capsys):
    base = ["omega-member", "--construction", "theorem2", "--rtree", "diag", "--input"]
    assert run(capsys, *base, "K[0,0](1)")[0] == 0
    assert run(capsys, *base, "K[0,0]1(0)")[0] == 1
    assert run(capsys, *base, "(2)")[0] == 1
    code, _, err = run(capsys, *base, "122223")
    assert code == 2


def test_carrier_too_large_to_decide_is_inconclusive(capsys, monkeypatch):
    base = ["omega-member", "--construction", "theorem2", "--input"]
    # M_41 does not fit an index: the probe run overflows before allocating
    code, out, err = run(capsys, *base, "K[0,40](1)")
    assert (code, out) == (3, "")
    assert err == "inconclusive: input too large to decide (OverflowError)"

    # K[0,20](1) would ask for M_21 letters; a stand-in decider raises the
    # MemoryError instead, so the test never attempts the allocation
    def out_of_memory(w, r):
        raise MemoryError

    monkeypatch.setattr("omegapower.cli.a_omega_member", out_of_memory)
    code, out, err = run(capsys, *base, "K[0,20](1)")
    assert (code, out) == (3, "")
    assert err == "inconclusive: input too large to decide (MemoryError)"


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["enum", "q"]) == 2
    assert main(["member", "--lang", "nope", "--word", "0"]) == 2
    assert main(["verify", "--suite", "nope"]) == 2
    capsys.readouterr()


def test_verify_writes_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "knj-roundtrip",
        "--bound",
        "60",
        "--out",
        str(out_file),
    )
    assert code == 0
    assert "knj-roundtrip: pass" in out
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert doc["verdict"] == "pass"
    assert doc["cases_failed"] == 0

    again = tmp_path / "again.json"
    main(["verify", "--suite", "knj-roundtrip", "--bound", "60", "--out", str(again)])
    capsys.readouterr()
    assert again.read_bytes() == out_file.read_bytes()


def test_verify_inconclusive_exit(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "sigma2-main",
        "--bound",
        "2",
        "--seed",
        "5",
        "--budget",
        "1",
    )
    assert code == 3
    assert "inconclusive" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["member", "--lang", "pi", "--word", "0"],
        ["omega-member", "--construction", "theorem2", "--input", "(2)"],
        ["verify", "--suite", "a-omega-decomposition", "--bound", "1"],
    ],
)
def test_unreadable_tree_file_is_a_usage_error(tmp_path, capsys, argv):
    row = {"00": "a", "01": "a", "10": "a", "11": "a"}
    trees = {
        "bad.json": ("{not json", "malformed tree document"),
        "no-initial.json": (
            {"states": ["a"], "initial": "b", "live": ["a"], "delta": {"a": row}},
            "initial state unknown",
        ),
        "no-live.json": (
            {"states": ["a"], "initial": "a", "live": ["a", "z"], "delta": {"a": row}},
            "live state 'z' unknown",
        ),
        "no-target.json": (
            {"states": ["a"], "initial": "a", "live": ["a"], "delta": {"a": {**row, "11": "z"}}},
            "transition into unknown state 'z'",
        ),
    }
    sources = [(tmp_path / "missing.json", "cannot read tree file")]
    for name, (doc, message) in trees.items():
        path = tmp_path / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        sources.append((path, message))
    for source, message in sources:
        code, out, err = run(capsys, *argv, "--rtree", str(source))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "\n" not in err
        assert message in err


def test_negative_budget_is_a_usage_error(capsys):
    for argv in (
        ["omega-member", "--construction", "sigma2", "--input", "(1122)"],
        ["verify", "--suite", "sigma2-main", "--bound", "1"],
    ):
        code, out, err = run(capsys, *argv, "--budget", "-1")
        assert code == 2 and out == ""
        assert "--budget" in err


def test_member_reads_the_tree_only_where_it_is_used(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert run(capsys, "member", "--lang", "E", "--word", "12", "--rtree", missing)[0] == 0
    assert run(capsys, "member", "--lang", "pi", "--word", "0", "--rtree", missing)[0] == 2
    assert run(capsys, "member", "--lang", "A4", "--word", "0", "--rtree", missing)[0] == 2


def test_verify_reads_the_tree_only_where_it_is_used(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    report = tmp_path / "report.json"
    argv = ["verify", "--bound", "1", "--rtree", missing, "--out", str(report)]
    for suite in ("pair-enum-roundtrip", "theorem2-key-equality"):
        assert run(capsys, *argv, "--suite", suite)[0] == 0
    report.unlink()
    code, out, err = run(capsys, *argv, "--suite", "a-omega-decomposition")
    assert code == 2 and out == "" and "cannot read tree file" in err
    assert not report.exists()  # refused before the report file is opened


@pytest.mark.parametrize("flag, value", [("seed", "5"), ("budget", "10000")])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_refuses_a_flag_the_suite_does_not_read(
    tmp_path, capsys, monkeypatch, suite, flag, value
):
    # fewer seeded draws: this test checks which flags reach a suite
    monkeypatch.setattr(suites, "SIGMA2_SAMPLES", 100)
    report = tmp_path / "report.json"
    argv = ["verify", "--suite", suite, "--bound", "1", "--out", str(report)]
    code, out, err = run(capsys, *argv, f"--{flag}", value)
    if flag in SUITES[suite].reads:
        assert code == 0 and f"{suite}: pass" in out
        assert json.loads(report.read_text(encoding="utf-8"))["parameters"][flag] == int(value)
    else:
        assert code == 2 and out == ""
        assert err == f"error: {suite} does not read {flag}"
        assert not report.exists()  # refused before the report file is opened


def test_unwritable_report_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run(
        capsys, "verify", "--suite", "knj-roundtrip", "--bound", "5", "--out", str(target)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "\n" not in err
    assert not target.parent.exists()


def test_negative_bound_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "knj-roundtrip", "--bound", "-1")
    assert code == 2 and out == ""
    assert "--bound" in err


def test_bound_past_the_suite_maximum_is_a_usage_error(tmp_path, capsys):
    report = tmp_path / "report.json"
    for suite, entry in SUITES.items():
        limit = entry.max_bound
        for bound in (limit + 1, 10**20):
            code, out, err = run(
                capsys, "verify", "--suite", suite, "--bound", str(bound), "--out", str(report)
            )
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "\n" not in err
            assert f"at most {limit}, got {bound}" in err
            assert not report.exists()  # refused before the report file is opened


def test_block_offset_too_long_to_print_is_a_usage_error(capsys):
    code, out, err = run(capsys, "enum", "m", "--j", "100000")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "\n" not in err
    # the refusal starts exactly where M_j stops fitting the print limit
    limit = sys.get_int_max_str_digits()
    for j in range(7130, 7150):
        code, out, _ = run(capsys, "enum", "m", "--j", str(j))
        fits = not limit or m_offset(j) < 10**limit
        assert code == (0 if fits else 2), j


def test_sigma2_budget_below_the_depth_cap_is_inconclusive(capsys):
    # 1(12) needs depth 1, the one matched pair 12 that encloses a position
    # of 1 12 12; budget 0 cannot settle its no, and stderr says why
    argv = ["omega-member", "--construction", "sigma2", "--input", "1(12)"]
    assert run(capsys, *argv, "--budget", "1") == (1, "no", "")
    assert run(capsys, *argv, "--budget", "0") == (
        3,
        "inconclusive",
        "inconclusive: needs E-depth 1, budget 0",
    )
    assert run(capsys, *argv[:-1], "(1122)", "--budget", "1") == (
        3,
        "inconclusive",
        "inconclusive: needs E-depth 2, budget 1",
    )
    assert run(capsys, *argv[:-1], "(12)", "--budget", "0") == (0, "yes", "")


def test_non_numeric_bound_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "knj-roundtrip", "--bound", "abc")
    assert code == 2 and out == ""
    assert "--bound" in err and "'abc'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["erase", "--lasso", "12"],
        ["omega-member", "--construction", "sigma2", "--input", "12"],
        ["omega-member", "--construction", "xi1-pi", "--input", "K[0,0](1)"],
    ],
)
def test_literal_of_the_wrong_kind_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "\n" not in err
    assert "lasso" in err


def test_verify_prints_the_counterexamples_of_a_failing_suite(capsys, monkeypatch):
    # a faulty pair index: q_3 maps back to 4
    index_of_q = pairs.index_of_q
    monkeypatch.setattr(pairs, "index_of_q", lambda q: index_of_q(q) + (index_of_q(q) == 3))
    code, out, _ = run(capsys, "verify", "--suite", "pair-enum-roundtrip", "--bound", "10")
    assert code == 1
    lines = out.splitlines()
    assert "pair-enum-roundtrip: fail" in lines[0]
    assert "  counterexample q_3: expected 3, got 4" in lines


def test_console_exits_with_the_status_of_main(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["omegapower", "enum", "m", "--j", "2"])
    with pytest.raises(SystemExit) as info:
        console()
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == "20"


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "omegapower", "erase", "--word", "112"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "10"


@pytest.mark.skipif(shutil.which("omegapower") is None, reason="script not on PATH")
def test_console_script_wiring():
    proc = subprocess.run(
        ["omegapower", "enum", "m", "--j", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "20"


# Every verb and every documented flag with a malformed or out-of-range value,
# and the exit code each must end in.  Carriers K[N,j]m with 10 <= j <= 30
# are left out: the theorem2 decider builds a run of about M_(j+1) letters
# for them (5.6 million at j = 10, 1.4 billion at j = 14) before it answers.
# From j = 31 on the run's length overflows at once, so K[0,40](1) is here.
_SWEEP = [
    (2, ["enum", "q", "--index", "abc"]),
    (2, ["enum", "q", "--index", "-1"]),
    (2, ["enum", "q", "--index", "9" * 5000]),
    (2, ["enum", "m", "--j", "x"]),
    (2, ["enum", "m", "--j", "-1"]),
    (2, ["enum", "m", "--j", "9" * 30]),
    (2, ["enum", "m", "--j", "٢"]),
    (2, ["enum", "m", "--j", " 2"]),
    (2, ["enum", "q", "--index", "+3"]),
    (2, ["enum", "q", "--index", "1_0"]),
    (2, ["enum", "z"]),
    (2, ["erase", "--word", "3"]),
    (2, ["erase", "--word", "21"]),
    (2, ["erase", "--word", "0(1"]),
    (2, ["erase", "--word", "x"]),
    (2, ["erase", "--lasso", "(3)"]),
    (2, ["erase", "--lasso", "()"]),
    (2, ["erase", "--lasso", "2(1)"]),
    (2, ["erase", "--lasso", "K[0,0](1)"]),
    (2, ["erase", "--word", "0", "--lasso", "(0)"]),
    (2, ["member", "--lang", "nope", "--word", "0"]),
    (2, ["member", "--lang", "B2", "--word", "2"]),
    (2, ["member", "--lang", "T", "--word", "(1)"]),
    (2, ["member", "--lang", "pi", "--word", "0", "--rtree", "{missing}"]),
    (2, ["member", "--lang", "A4", "--word", "0", "--rtree", "{bad}"]),
    (2, ["omega-member", "--construction", "nope", "--input", "(0)"]),
    (2, ["omega-member", "--construction", "sigma2", "--input", "K[0,0](1)"]),
    (2, ["omega-member", "--construction", "sigma2", "--input", "2(1)"]),
    (2, ["omega-member", "--construction", "sigma2", "--input", "(3)"]),
    (2, ["omega-member", "--construction", "sigma2", "--input", "(12)", "--budget", "-1"]),
    (2, ["omega-member", "--construction", "sigma2", "--input", "(12)", "--budget", "x"]),
    (2, ["omega-member", "--construction", "sigma2", "--input", "(12)", "--budget", "٣"]),
    (2, ["omega-member", "--construction", "sigma2", "--input", "(12)", "--budget", "+3"]),
    (3, ["omega-member", "--construction", "sigma2", "--input", "(1122)", "--budget", "0"]),
    (2, ["omega-member", "--construction", "xi1-pi", "--input", "(2)"]),
    (2, ["omega-member", "--construction", "xi1-sigma", "--input", "0"]),
    (2, ["omega-member", "--construction", "xi2-pi", "--input", "K[0,0](1)"]),
    (3, ["omega-member", "--construction", "theorem2", "--input", "K[0,40](1)"]),
    (3, ["omega-member", "--construction", "theorem2", "--input", "K[0,7000](1)"]),
    (2, ["omega-member", "--construction", "theorem2", "--input", "K[1,0](1)"]),
    (2, ["omega-member", "--construction", "theorem2", "--input", "K[0,0](2)"]),
    (2, ["omega-member", "--construction", "theorem2", "--input", "K[٢,١](1)"]),
    (2, ["omega-member", "--construction", "theorem2", "--input", "K[0," + "9" * 5000 + "](1)"]),
    (2, ["omega-member", "--construction", "theorem2", "--input", "0123"]),
    (2, ["omega-member", "--construction", "theorem2", "--input", "(0)", "--rtree", "{bad}"]),
    (2, ["verify", "--suite", "nope"]),
    (2, ["verify", "--suite", "knj-roundtrip", "--bound", "-1"]),
    (2, ["verify", "--suite", "knj-roundtrip", "--bound", "x"]),
    (2, ["verify", "--suite", "knj-roundtrip", "--bound", str(10**20)]),
    (2, ["verify", "--suite", "knj-roundtrip", "--bound", "٣"]),
    (2, ["verify", "--suite", "knj-roundtrip", "--bound", "3 "]),
    (2, ["verify", "--suite", "knj-roundtrip", "--bound", "9" * 5000]),
    (2, ["verify", "--suite", "a-omega-decomposition", "--bound", "0", "--seed", "+5"]),
    (2, ["verify", "--suite", "a-omega-decomposition", "--bound", "0", "--seed", "-٥"]),
    (2, ["verify", "--suite", "a-omega-decomposition", "--bound", "0", "--seed", "- 5"]),
    (2, ["verify", "--suite", "a-omega-decomposition", "--bound", "0", "--seed", "x"]),
    (0, ["verify", "--suite", "a-omega-decomposition", "--bound", "0", "--seed", "-5"]),
    (2, ["verify", "--suite", "knj-roundtrip", "--bound", "1", "--seed", "5"]),
    (2, ["verify", "--suite", "sigma2-main", "--bound", "0", "--budget", "-1"]),
    (3, ["verify", "--suite", "sigma2-main", "--bound", "0", "--budget", "0"]),
    (2, ["verify", "--suite", "knj-roundtrip", "--bound", "1", "--budget", "0"]),
    (2, ["verify", "--suite", "a-omega-decomposition", "--bound", "0", "--rtree", "{missing}"]),
    (2, ["verify", "--suite", "knj-roundtrip", "--bound", "1", "--out", "{dir}/no/x.json"]),
    (2, ["verify", "--suite", "knj-roundtrip", "--bound", "1", "--out", "{dir}"]),
    (2, ["nope"]),
    (2, []),
]


@pytest.mark.parametrize(
    "code, argv", _SWEEP, ids=[" ".join(argv)[:60] or "no verb" for _, argv in _SWEEP]
)
def test_malformed_values_end_in_an_exit_code_and_one_line(
    tmp_path, capsys, monkeypatch, code, argv
):
    # fewer seeded draws: the sigma2-main runs check exit codes, not verdicts
    monkeypatch.setattr(suites, "SIGMA2_SAMPLES", 100)
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    paths = {"missing": tmp_path / "missing.json", "bad": tmp_path / "bad.json", "dir": tmp_path}
    argv = [arg.format(**paths) for arg in argv]
    got, _, err = run(capsys, *argv)
    assert got == code
    # a refused input says why on one line; a verdict may say nothing
    lines = err.splitlines()
    assert len(lines) == 1 if code == 2 else len(lines) <= 1, err
