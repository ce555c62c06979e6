"""Run one workload in a fresh interpreter and print its raw figures.

    PYTHONPATH=src python3 perfbench/measure.py --workload NAME --seed N \
        --seconds S --trace 0|1 [--setup-only]

``perfbench/run.py`` starts this script once per measured run (and a few
more times with ``--setup-only`` to time set-up), so that peak RSS and
set-up time belong to one workload.  The last stdout line is a JSON object.
"""

import argparse
import array
import collections
import hashlib
import itertools
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

import plan
from tracing import Tracer, clock, percentile

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())
BUDGET = 10_000  # the omega-member verb's default --budget


def import_package():
    import omegapower

    where = Path(omegapower.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise SystemExit(f"perfbench: omegapower imported from {where}, not from {ROOT / 'src'}")
    return omegapower


CPU_SWITCH_S = 0.25


def rotate_cpus():
    """Move this process to the next CPU it may use every CPU_SWITCH_S.

    On a shared virtual machine each vCPU slows down by 20-30% for minutes at
    a time, independently of the others, as other tenants load its physical
    core.  A run that stays on one vCPU inherits that vCPU's phase; rotating
    averages over all of them.  Interleaved runs of query-mix with and
    without rotation had the same median pass time, and rotation cut the
    spread between runs from 18% to 7%.  The timer is a signal, not a thread."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        order = itertools.cycle(cpus)
        signal.signal(signal.SIGALRM, lambda *_: os.sched_setaffinity(0, {next(order)}))
        signal.setitimer(signal.ITIMER_REAL, CPU_SWITCH_S, CPU_SWITCH_S)


# ------------------------------------------------------------------ gates

def check_gate_report(suite, report):
    """Problems with one suite report against the values recorded in
    expected.json; an empty list means the report is accepted."""
    want = EXPECTED["suites"][suite]
    problems = []
    if report.verdict != "pass":
        problems.append(f"{suite}: verdict {report.verdict}")
    if report.cases_total != want["cases_total"]:
        problems.append(f"{suite}: {report.cases_total} cases, recorded {want['cases_total']}")
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    if digest != want["sha256"]:
        problems.append(f"{suite}: report digest {digest[:12]}, recorded {want['sha256'][:12]}")
    return problems


def gate_pass(pkg, gate, tracer=None):
    """Run every suite of a gate through run_suite; returns the pass time,
    per-suite walls, case and failure counts, and problems."""
    walls, cases, problems = {}, {}, []
    attempted = failed = 0
    start = clock()
    for suite, params in gate:
        t0 = clock()
        try:
            report = pkg.suites.run_suite(suite, **params)
        except Exception as exc:  # a crash is one failed attempt, not the end of the run
            attempted += 1
            failed += 1
            problems.append(f"{suite}: raised {exc!r}")
            continue
        finally:
            t1 = clock()
            walls[suite] = t1 - t0
            if tracer is not None:
                tracer.span(f"suites.{suite}", t0, t1)
        cases[suite] = report.cases_total
        attempted += report.cases_total
        failed += report.cases_failed + report.cases_inconclusive
        problems += check_gate_report(suite, report)
    return {
        "pass_s": clock() - start,
        "walls": walls,
        "cases": cases,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def check_gate_calls(workload, calls, cases):
    """Traced-run self-check: calls that the suites make once per case must
    equal the case counts, so the spans cover every call."""
    rules = {
        "sigma2-gate": [
            ("erasing.a3_omega_member", cases.get("sigma2-main")),
            ("erasing.e_preimage_check", cases.get("sigma2-main")),
        ],
        "finite-gate": [
            ("erasing.e_def_member", cases.get("E-dual-characterization")),
            ("erasing.e_counter_member", cases.get("E-dual-characterization")),
        ],
        "carrier-gate": [
            ("automata.lasso_accepts", cases.get("xi-low-witnesses")),
            ("construction.a_omega_member", cases.get("a-omega-decomposition")),
            # theorem2 runs both routes per case; a-omega sends its carrier
            # cases to the same pair and its lasso cases to the oracle.
            ("construction.pi_omega_knj_member", calls["rtree.ts_lasso_accepts"]),
        ],
    }[workload]
    problems = [
        f"{name}: {calls[name]} calls, expected {want}"
        for name, want in rules
        if calls[name] != want
    ]
    if workload == "carrier-gate":
        got = calls["rtree.ts_lasso_accepts"] + calls["oracles.omega_factor_evidence"]
        want = cases.get("theorem2-key-equality", 0) + cases.get("a-omega-decomposition", 0)
        if got != want:
            problems.append(f"ts_lasso_accepts + omega_factor_evidence: {got} calls, expected {want}")
    return problems


# ------------------------------------------------------------- query-mix

class QueryMix:
    """The omega-member deciders behind the CLI verb, plus the other route
    each verdict is checked against after the timed loop."""

    def __init__(self, pkg, queries, probes):
        self.pkg = pkg
        self.queries = queries
        self.probes = probes
        self.trees = {"full": pkg.full_tree(), "diag": pkg.diag_tree()}
        self.automata = {
            "xi1-pi": pkg.omega_power_automaton(pkg.zero_word_automaton()),
            "xi2-pi": pkg.omega_power_automaton(pkg.zero_star_one_automaton()),
            "xi1-sigma": pkg.omega_power_automaton(pkg.xi1_sigma_witness()),
        }

    def decider(self):
        """Bind the deciders now, so a pass sees the tracer's wrappers."""
        pkg = self.pkg
        parse = pkg.literals.parse_word_literal
        a3 = pkg.erasing.a3_omega_member
        accepts = pkg.automata.lasso_accepts
        a_omega = pkg.construction.a_omega_member
        member_of = pkg.Member.of
        trees, automata = self.trees, self.automata

        def decide(kind, text, arg):
            if kind == "sigma2":
                return a3(parse(text, 3), BUDGET).value
            if kind == "xi":
                return member_of(accepts(automata[arg], parse(text, 2))).value
            return a_omega(parse(text, 4), trees[arg], BUDGET).value

        return decide

    def run_pass(self, latencies=None, tracer=None):
        decide = self.decider()
        verdicts = []
        start = clock()
        for kind, text, arg in self.queries:
            t0 = clock()
            try:
                verdict = decide(kind, text, arg)
            except Exception as exc:  # counted in failed; the loop goes on
                verdict = f"raised {type(exc).__name__}"
            if latencies is not None:
                latencies.append(clock() - t0)
            verdicts.append(verdict)
        end = clock()
        if tracer is not None:
            tracer.span("query-mix.pass", start, end)
        return end - start, verdicts

    def other_route(self, kind, text, arg):
        pkg = self.pkg
        if kind == "sigma2":
            return pkg.e_preimage_check(pkg.parse_word_literal(text, 3), BUDGET).value
        if kind == "xi":
            w = pkg.parse_word_literal(text, 2)
            closed_form = {
                "xi1-pi": lambda: w == pkg.LassoWord((), (0,), size=2),
                "xi2-pi": lambda: pkg.pinf_member(w),
                "xi1-sigma": lambda: pkg.b2_omega_member(w),
            }[arg]
            return pkg.Member.of(closed_form()).value
        w = pkg.parse_word_literal(text, 4)
        return pkg.Member.of(pkg.ts_lasso_accepts(self.trees[arg], w.n, w.m)).value

    def check(self, passes):
        """Every pass must repeat the first; the first must match the other
        route.  Returns (failed answers, problems)."""
        first = passes[0]
        failed = sum(v == "inconclusive" or v.startswith("raised") for p in passes for v in p)
        problems = [
            f"pass {i} disagrees with pass 0" for i, p in enumerate(passes[1:], 1) if p != first
        ]
        for (kind, text, arg), got in zip(self.queries, first):
            if got == "inconclusive" or got.startswith("raised"):
                continue
            want = self.other_route(kind, text, arg)
            if got != want:
                problems.append(f"{kind} {text} [{arg}]: {got}, other route {want}")
        return failed, problems

    def run_probes(self):
        """Carriers with j >= 31: today a_omega_member raises on them.  An
        answer, once there is one, must match the other route."""
        decide = self.decider()
        outcomes, problems = [], []
        for kind, text, arg in self.probes:
            try:
                got = decide(kind, text, arg)
            except Exception as exc:
                outcomes.append([text, f"raised {type(exc).__name__}"])
                continue
            outcomes.append([text, got])
            want = self.other_route(kind, text, arg)
            if got != want:
                problems.append(f"probe {text} [{arg}]: {got}, other route {want}")
        return outcomes, problems

    def kind_counts(self):
        return collections.Counter(kind for kind, _, _ in self.queries)


def check_query_calls(calls, counts, n_probes):
    """Traced-run self-check for query-mix: one decider call per query."""
    n_all = sum(counts.values())
    rules = [
        ("erasing.a3_omega_member", counts.get("sigma2", 0)),
        ("automata.lasso_accepts", counts.get("xi", 0)),
        ("construction.a_omega_member", counts.get("theorem2", 0) + n_probes),
        ("literals.parse_word_literal", n_all + n_probes),
    ]
    return [f"{name}: {calls[name]} calls, expected {want}" for name, want in rules if calls[name] != want]


# ------------------------------------------------------------------- runs

def latency_summary(latencies):
    n = len(latencies)
    p99 = percentile(latencies, 99)
    return {
        "samples": n,
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p99_ms": p99 * 1e3,
        "beyond_p99": sum(x > p99 for x in latencies),
    }


# A timed run starts another pass only while the last pass would still fit
# before the deadline, so a run lasts about --seconds (or one pass, if longer).

def timed_gate(pkg, gate, seconds):
    deadline = clock() + seconds
    passes = [gate_pass(pkg, gate)]
    while clock() + passes[-1]["pass_s"] <= deadline:
        passes.append(gate_pass(pkg, gate))
    return {
        "pass_s": [p["pass_s"] for p in passes],
        "verdicts_per_pass": passes[0]["attempted"],
        "suite_s": {s: [p["walls"].get(s, 0.0) for p in passes] for s, _ in gate},
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [x for p in passes for x in p["problems"]],
    }


def timed_queries(mix, seconds):
    latencies = array.array("d")
    deadline = clock() + seconds
    times, passes = [], []
    while not times or clock() + times[-1] <= deadline:
        elapsed, verdicts = mix.run_pass(latencies)
        times.append(elapsed)
        passes.append(verdicts)
    failed, problems = mix.check(passes)
    probes, probe_problems = mix.run_probes()
    return {
        "pass_s": times,
        "verdicts_per_pass": len(mix.queries),
        "attempted": len(mix.queries) * len(passes),
        "failed": failed,
        "problems": problems + probe_problems,
        "latency": latency_summary(latencies),
        "probes": probes,
    }


def per_layer(tracer, suite_walls, self_s, overhead_s):
    table = tracer.table()
    metrics = {}
    for fn in plan.TRACED:
        for stat in plan.STATS:
            metrics[f"{fn}.{stat}"] = table[fn][stat]
    metrics["construction.a_omega_member.raised"] = table["construction.a_omega_member"]["raised"]
    for suite in plan.SUITES:
        metrics[f"suites.{suite}.wall_s"] = suite_walls.get(suite, 0.0)
    metrics["suites.self_s"] = self_s
    metrics["trace.overhead_s"] = overhead_s
    return metrics, table


def run_traced(pkg, workload, mix):
    """One untraced pass for the baseline, then one traced pass."""
    tracer = Tracer(plan.TRACED)
    if workload in plan.GATES:
        gate = plan.GATES[workload]
        plain = gate_pass(pkg, gate)
        with tracer:
            traced = gate_pass(pkg, gate, tracer)
        calls = {name: s["calls"] for name, s in tracer.table().items()}
        problems = plain["problems"] + traced["problems"]
        problems += check_gate_calls(workload, calls, traced["cases"])
        metrics, table = per_layer(
            tracer, traced["walls"], traced["pass_s"] - tracer.top_s,
            traced["pass_s"] - plain["pass_s"],
        )
        return {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "problems": problems,
            "per_layer": metrics,
            "functions": table,
            "spans": tracer.spans,
        }
    plain_s, plain_verdicts = mix.run_pass()
    with tracer:
        traced_s, traced_verdicts = mix.run_pass(tracer=tracer)
        top_s = tracer.top_s
        probes, probe_problems = mix.run_probes()
    failed, problems = mix.check([plain_verdicts, traced_verdicts])
    calls = {name: s["calls"] for name, s in tracer.table().items()}
    problems += probe_problems + check_query_calls(calls, mix.kind_counts(), len(mix.probes))
    metrics, table = per_layer(tracer, {}, traced_s - top_s, traced_s - plain_s)
    return {
        "attempted": 2 * len(mix.queries),
        "failed": failed,
        "problems": problems,
        "per_layer": metrics,
        "functions": table,
        "spans": tracer.spans,
        "probes": probes,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=plan.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    rotate_cpus()
    pkg = import_package()
    mix = None
    if args.workload == "query-mix":
        queries, probes = plan.make_queries(args.seed)
        mix = QueryMix(pkg, queries, probes)
    first_call_at = time.monotonic()
    if args.setup_only:
        result = {"first_call_at": first_call_at}
    elif args.trace:
        result = run_traced(pkg, args.workload, mix)
    elif mix is None:
        result = timed_gate(pkg, plan.GATES[args.workload], args.seconds)
    else:
        result = timed_queries(mix, args.seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    result["first_call_at"] = first_call_at
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
