"""Benchmark of the omegapower workbench, driven through its public functions.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one after another

Run it from anywhere inside a checkout: it finds the package at ``src/``
next to this directory and builds nothing but bytecode.  Each run compiles
bytecode, times set-up in fresh interpreters, then runs the workload in one
more fresh interpreter (``measure.py``) with PYTHONHASHSEED taken from the
seed.  It prints the environment, every metric by name and unit with its
sample count, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, from a separate traced
run.  A wrong answer prints ``"correct": false`` with no metrics and exits 1.
The full record (environment, per-suite times, spans, per-function table)
goes to ``.perfbench/<workload>-seed<N>-trace<T>.json``.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "omegapower"
OUT = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_PROBES = 7  # extra set-up-only interpreters; setup_s is their median with the run's own
RUN_LIMIT_S = 175  # a run must end within 180 s


def load_average():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def git_state():
    """(sha, dirty) when ROOT is the top of a git work tree, else (None, None)."""

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None, None
        sha = git("rev-parse", "HEAD").stdout.strip() or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
        return sha, dirty
    except (OSError, subprocess.SubprocessError):
        return None, None


def source_digest():
    """sha256 over the package sources, which names the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def child_env(seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, deadline, setup_only=False):
    """Start measure.py in a fresh interpreter; returns (spawn time, result)."""
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(args.seed), capture_output=True, text=True,
        timeout=max(1.0, deadline - spawned_at),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("measure.py printed no result")
    return spawned_at, json.loads(lines[-1])


def end_to_end(result, setups):
    """{metric: (value, sample count)} in BENCHMARK.json order."""
    pass_s = statistics.median(result["pass_s"])
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "pass_s": (pass_s, len(result["pass_s"])),
        "verdicts_per_s": (result["verdicts_per_pass"] / pass_s, len(result["pass_s"])),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, 1),
    }


def per_layer(result):
    return {name: (result["per_layer"][name], 1) for name in plan.per_layer_names()}


def run_workload(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    sha, dirty = git_state()
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "pythonhashseed": args.seed % 2**32,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": source_digest(),
        "loadavg_start": load_average(),
    }
    if not compileall.compile_dir(str(PACKAGE), quiet=1) or not compileall.compile_dir(
        str(HERE), quiet=1
    ):
        raise RuntimeError("bytecode compilation failed")

    # Set-up probes run on both sides of the measured interpreter, so that
    # their median spans the whole run rather than one moment of host load.
    setups = []

    def probe_setup(count):
        for _ in range(count):
            spawned_at, probe = run_child(args, deadline, setup_only=True)
            setups.append(probe["first_call_at"] - spawned_at)

    if not args.trace:
        probe_setup(SETUP_PROBES // 2)
    spawned_at, result = run_child(args, deadline)
    setups.append(result["first_call_at"] - spawned_at)
    if not args.trace:
        probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    env["loadavg_end"] = load_average()

    correct = not result["problems"]
    metrics = per_layer(result) if args.trace else end_to_end(result, setups)
    record = {"env": env, "result": result, "setup_s": setups}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env))
    for suite, walls in result.get("suite_s", {}).items():
        print(f"suite {suite}: median {statistics.median(walls):.3f} s over {len(walls)} passes")
    if "latency" in result:
        lat = result["latency"]
        print(
            f"query_p50_ms = {lat['p50_ms']:.4f} ms, query_p99_ms = {lat['p99_ms']:.4f} ms "
            f"(n={lat['samples']}, {lat['beyond_p99']} beyond p99)"
        )
    for text, outcome in result.get("probes", []):
        print(f"probe {text}: {outcome}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_share = {failed / attempted:.6g} ({failed} of {attempted})")
    for problem in result["problems"][:20]:
        print(f"WRONG {problem}")
    for name, (value, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {UNITS[name]} (n={n})")

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": (
            {name: {"value": value, "unit": UNITS[name]} for name, (value, _) in metrics.items()}
            if correct else {}
        ),
    }
    print(json.dumps(line))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=plan.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=plan.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package at {PACKAGE}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = plan.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        args.workload = name
        try:
            status = max(status, run_workload(args))
        except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
