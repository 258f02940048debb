#!/usr/bin/env python3
"""Seeded scenario benchmark for superproj.

Usage (from the repository root):

    python3 bench/run.py --workload geometry_changes --seed 1 --seconds 30 \\
        --trace 0

One process and one client in a closed loop: scenario documents are
generated from the seed (`scenario_gen`), and each goes through the public
CLI entry points, ``parse_scenario`` -> ``run_checks`` ->
``emit_report(..., "json")``; the next starts when the previous report is
done.  Every verdict is compared with the one planted by the generator, and
``info.verdicts_agree`` must hold where a check reports it.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median time, over several spawns, from starting a fresh
  interpreter until ``superproj.cli`` is imported;
* ``report_s.p50`` / ``report_s.p90``: time from document text to JSON
  report, after one untimed warm-up scenario, as smoothed quantiles (the
  mean of the reports ranked within 40-60 % and 85-95 %); the run lasts
  ``--seconds``, holds at least 100 reports and ends at a round boundary
  of the generator, so every run has the same mix of templates;
* ``checks_per_s``: checks completed over the summed report time;
* ``peak_rss_mb``: peak resident set size of this process over the first
  100 reports (a fixed amount of work, unlike the whole run).

``wrong_verdict_ratio`` (failed checks over checks attempted) is printed
with them but kept out of the result's metrics, which must never be 0; it
is ``failed / attempted`` of the result line, and any nonzero value makes
the command exit 1.

``--trace 1`` runs each of the first 100 scenarios twice, untraced and with
`kernel_trace.KernelTrace` installed, whatever ``--seconds`` says, and
reports per-layer call counts and self times (exact counts: the scenario
set is fixed), the traced and untraced ``checks_per_s`` and their ratio as
the tracing overhead.  The two runs of a scenario must give the same report.

Each run prints the environment, a digest of the first 100 reports with
every ``duration_ms`` removed (equal digests mean byte-identical reports),
one line per metric, and as its last line a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result is
also written to ``.bench_out/`` in the repository root.  The benchmark's
own tests: ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import scenario_gen  # noqa: E402

MIN_REPORTS = 100  # >= 10 samples beyond p90; also the digest/trace set
SETUP_SPAWNS = 5
_READY = "superproj ready"


def environment() -> dict:
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "sympy": sympy.__version__,
            "ground_types": GROUND_TYPES, "machine": platform.machine(),
            "system": platform.system()}


def measure_setup(spawns: int) -> float:
    """Median seconds from spawning an interpreter to `superproj.cli`
    imported (the child reports readiness on stdout)."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            f"import superproj.cli; print({_READY!r}, flush=True)")
    samples = []
    for _ in range(spawns):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
            status = child.wait(timeout=120)
        if line != _READY or status != 0:
            raise RuntimeError(f"set-up child failed (exit {status}): {line!r}")
    return statistics.median(samples)


def strip_durations(report_json: str) -> str:
    doc = json.loads(report_json)
    for entry in doc["checks"]:
        entry.pop("duration_ms", None)
    return json.dumps(doc, sort_keys=True)


def grade(case, report_json: str) -> list:
    """One line per failed check of a report: a verdict other than the
    planted one, a false ``info.verdicts_agree``, or (for every check) a
    report whose checks do not match the planted ones."""
    entries = json.loads(report_json)["checks"]
    if len(entries) != len(case.planted):
        return [f"checks[{pos}]: {len(entries)} checks reported, "
                f"{len(case.planted)} planted"
                for pos in range(len(case.planted))]
    problems = []
    for pos, (entry, want) in enumerate(zip(entries, case.planted)):
        verdict = entry["verdict"]
        reasons = []
        if verdict == "error" if want is scenario_gen.ANY else verdict != want:
            reasons.append(f"verdict {verdict}, planted {want or 'pass/fail'}"
                           + (f" ({entry['error']})" if "error" in entry
                              else ""))
        if entry.get("info", {}).get("verdicts_agree") is False:
            reasons.append("verdicts_agree is false")
        if reasons:
            problems.append(f"checks[{pos}] {entry['check']}: "
                            + "; ".join(reasons))
    return problems


class Pass:
    """Outcome of running a sequence of cases."""

    def __init__(self):
        self.times = []
        self.checks = 0
        self.failed = 0
        self.problems = []
        self.reports = []  # duration-free reports of the first MIN_REPORTS
        self.peak_rss_mb = None

    def run_case(self, cli, index: int, case):
        start = time.perf_counter()
        try:
            report = cli.emit_report(
                cli.run_checks(cli.parse_scenario(case.text)), "json")
        except Exception as exc:  # a crash fails every check of the case
            self.times.append(time.perf_counter() - start)
            self.checks += len(case.planted)
            self.failed += len(case.planted)
            self.problems.append(f"case {index} ({case.template}): "
                                 f"{type(exc).__name__}: {exc}")
            return
        self.times.append(time.perf_counter() - start)
        self.checks += len(case.planted)
        problems = grade(case, report)
        self.failed += len(problems)
        self.problems += [f"case {index} ({case.template}): {p}"
                          for p in problems]
        if index < MIN_REPORTS:
            self.reports.append(strip_durations(report))

    def digest(self) -> str:
        h = hashlib.sha256()
        for report in self.reports:
            h.update(report.encode())
            h.update(b"\n")
        return h.hexdigest()


def timed_pass(cli, workload: str, seed: int, seconds: float) -> Pass:
    """Closed loop over cases 0, 1, 2, ... until `seconds` have passed and
    at least MIN_REPORTS reports are done, stopping at a round boundary so
    that every run has the same mix of scenario templates."""
    result = Pass()
    deadline = time.perf_counter() + seconds
    size = scenario_gen.round_size(workload)
    index = 0
    while (index < MIN_REPORTS or index % size
           or time.perf_counter() < deadline):
        result.run_case(cli, index, scenario_gen.case(workload, seed, index))
        index += 1
        if index == MIN_REPORTS:
            result.peak_rss_mb = peak_rss_mb()
    return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def quantile(values, q: float, half_width: float) -> float:
    """Smoothed q-quantile: the mean of the order statistics whose ranks
    lie within q +- half_width.  On a shared host one report's time can
    jitter by tens of percent, and times cluster by template, so a single
    order statistic jumps from run to run; the window mean does not."""
    ordered = sorted(values)
    n = len(ordered)
    lo = max(0, math.floor((q - half_width) * n))
    hi = min(n, math.ceil((q + half_width) * n))
    return statistics.fmean(ordered[lo:hi])


def end_to_end(cli, args) -> tuple:
    setup = measure_setup(SETUP_SPAWNS)
    warm = scenario_gen.case(args.workload, args.seed, 0)
    Pass().run_case(cli, 0, warm)
    result = timed_pass(cli, args.workload, args.seed, args.seconds)
    metrics = {
        "setup_s": (setup, "s"),
        "report_s.p50": (quantile(result.times, 0.5, 0.1), "s"),
        "report_s.p90": (quantile(result.times, 0.9, 0.05), "s"),
        "checks_per_s": (result.checks / sum(result.times), "1/s"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
    }
    return result, metrics


def per_layer(cli, args) -> tuple:
    """Untraced and traced runs of each of the first MIN_REPORTS cases,
    alternating which goes first so that neither gains from warm caches."""
    from kernel_trace import KernelTrace

    cases = scenario_gen.generate(args.workload, args.seed, MIN_REPORTS)
    Pass().run_case(cli, 0, cases[0])
    plain, traced, tracer = Pass(), Pass(), KernelTrace()
    for index, case in enumerate(cases):
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                with tracer:
                    traced.run_case(cli, index, case)
            else:
                plain.run_case(cli, index, case)
    metrics = tracer.metrics()
    plain_rate = plain.checks / sum(plain.times)
    traced_rate = traced.checks / sum(traced.times)
    metrics["trace.checks_per_s.untraced"] = (plain_rate, "1/s")
    metrics["trace.checks_per_s.traced"] = (traced_rate, "1/s")
    metrics["trace.overhead"] = (plain_rate / traced_rate, "ratio")
    if traced.digest() != plain.digest():
        traced.failed += 1
        traced.problems.append("traced reports differ from untraced ones")
    traced.checks += plain.checks
    traced.failed += plain.failed
    traced.problems = plain.problems + traced.problems
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="superproj scenario benchmark")
    parser.add_argument("--workload", required=True,
                        choices=scenario_gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "superproj" / "cli.py").is_file():
        print(f"error: no superproj sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import superproj.cli as cli

    env = environment()
    measure = per_layer if args.trace else end_to_end
    result, metrics = measure(cli, args)
    ratio = result.failed / result.checks
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"reports {len(result.times)} checks {result.checks} "
          f"failed {result.failed}")
    print(f"digest {result.digest()} (first {len(result.reports)} reports, "
          "duration_ms removed)")
    for problem in result.problems[:20]:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"wrong_verdict_ratio {ratio:.6g} ratio")
    out = {"correct": result.failed == 0, "attempted": result.checks,
           "failed": result.failed,
           "metrics": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in metrics.items()}}
    record = dict(out, workload=args.workload, seed=args.seed,
                  trace=args.trace, env=env, digest=result.digest(),
                  reports=len(result.times), wrong_verdict_ratio=ratio,
                  problems=result.problems)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(out))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
