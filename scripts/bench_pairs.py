#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarised as a BENCH_<pr>.json.

Usage (each directory is a checkout holding ``bench/run.py``):

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload geometry_changes --workload brackets_bv \\
        --seed 301 --seconds 30 --pairs 10 --pr NUMBER \\
        --claim geometry_changes:checks_per_s \\
        [--holdout-seed 305 [--holdout-seconds 10]]

For each workload, pair i runs ``bench/run.py --trace 0`` (end-to-end
metrics only) once in each checkout, the
parent first when i is even and the change first when i is odd, so that
neither side always runs on a warmer or cooler host.  The summary gives,
per workload and per end-to-end metric of the change's ``BENCHMARK.json``,
each side's runs, median and interquartile range, the relative change of
the medians (positive is worse), whether it is within the metric's bound,
in how many pairs the change was better, and whether the comparison is
resolved: it is not when either side's interquartile range exceeds the
bound relative to its median, unless every run of the change beats every
run of the parent; also each side's report
digests and failed checks, ``same_reports`` (each side has one digest and
the two are equal), and the machine, including
``PYTHONDONTWRITEBYTECODE``.  The record also gives ``src_lines``, the
total line count of each checkout's ``src/superproj/*.py`` (what
``wc -l`` prints).  The workloads whose reports differ are
printed; that alone does not fail the script, since a change may alter
reports on purpose.  A claim ``WORKLOAD:METRIC`` is met when the
change is better in at least 9 of 10 pairs (the same share of any other
count; at least 2 pairs, for quartiles) and the medians differ by more than
the parent's interquartile range.

With ``--holdout-seed``, the same alternating pairs then run again on that
seed (for ``--holdout-seconds``, by default ``--seconds``); their summary is
the record's ``holdout`` block, and each claim gets a second verdict on
those runs, labelled with their seed.

Exits 1 when any run fails: a non-zero exit of ``bench/run.py`` (a wrong
verdict, say) or no result line.  The summary is written first unless a run
gave no result at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

STATISTIC = (
    "median and interquartile range (inclusive quartiles) over the runs of "
    "each side; relative_change is (change median - parent median) / parent "
    "median, signed so that positive is worse; a metric is unresolved when "
    "either side's interquartile range divided by its median exceeds the "
    "metric's bound, unless every change run is better than every parent "
    "run; a claim is met when the change "
    "is better in at least 9 of 10 pairs and the medians differ by more than "
    "the parent's interquartile range")


def parse_run(stdout: str) -> dict:
    """The digest, failed checks, metrics and environment of one
    ``bench/run.py`` output; raises ValueError without a result line."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        raise ValueError("no result line") from None
    run = {"failed": result["failed"], "metrics": metrics, "digest": None, "env": {}}
    for line in lines:
        if line.startswith("digest "):
            run["digest"] = line.split()[1][:8]
        elif line.startswith("env "):
            run["env"] = dict(item.split("=", 1) for item in line.split()[1:])
    return run


def _spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 5),
            "iqr": round(q3 - q1, 5), "runs": [round(v, 5) for v in values]}


def _better(a: float, b: float, direction: str) -> bool:
    """True when a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def summarize(runs: dict, spec: list) -> dict:
    """Per-workload summary of paired runs.

    ``runs`` maps a workload to ``{"parent": [run, ...], "change": [...]}``
    with the i-th runs of both sides forming pair i; ``spec`` is the
    ``end_to_end`` list of BENCHMARK.json."""
    out = {}
    for workload, sides in runs.items():
        parent, change = sides["parent"], sides["change"]
        digests = {side: sorted({r["digest"] for r in sides[side]})
                   for side in ("parent", "change")}
        entry = {
            "digest": digests,
            "same_reports": len(digests["parent"]) == 1
            and digests["parent"] == digests["change"],
            "failed": {side: sum(r["failed"] for r in sides[side])
                       for side in ("parent", "change")},
            "metrics": {},
        }
        for metric in spec:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            p = [r["metrics"][name] for r in parent]
            c = [r["metrics"][name] for r in change]
            pm, cm = statistics.median(p), statistics.median(c)
            rel = (cm - pm) / pm if pm else 0.0
            if better == "higher":
                rel = -rel
            ps, cs = _spread(p), _spread(c)
            # spread wider than the bound hides a difference within it,
            # unless every change run beats every parent run
            wide = any(side["iqr"] > bound * abs(side["median"]) for side in (ps, cs))
            clear = all(_better(b, a, better) for a in p for b in c)
            entry["metrics"][name] = {
                "better": better, "bound": bound,
                "parent": ps, "change": cs,
                "relative_change": round(rel, 4),
                "within_bound": rel <= bound,
                "resolved": clear or not wide,
                "change_better_pairs": sum(_better(b, a, better)
                                           for a, b in zip(p, c)),
            }
        out[workload] = entry
    return out


def claim_verdict(workloads: dict, workload: str, metric: str,
                  runs_label: str) -> dict:
    """Whether the change is better in at least 90 % of the pairs and by
    more than the parent's interquartile range in the medians."""
    m = workloads[workload]["metrics"][metric]
    pairs = len(m["parent"]["runs"])
    gain = m["change"]["median"] - m["parent"]["median"]
    if m["better"] == "lower":
        gain = -gain
    won = m["change_better_pairs"]
    return {"workload": workload, "metric": metric, "runs": runs_label,
            "change_better_pairs": won, "pairs": pairs,
            "median_gain": round(gain, 5), "parent_iqr": m["parent"]["iqr"],
            "met": 10 * won >= 9 * pairs and gain > m["parent"]["iqr"]}


def machine_line(env: dict) -> str:
    model = platform.processor() or "unknown CPU"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next(line.split(":", 1)[1].strip() for line in info
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    flag = os.environ.get("PYTHONDONTWRITEBYTECODE")
    return (f"{env.get('nproc', '?')} vCPUs ({model}), {env.get('system', '?')} "
            f"{env.get('machine', '?')}, Python {env.get('python', '?')}, "
            f"sympy {env.get('sympy', '?')} with {env.get('ground_types', '?')} "
            f"ground types, PYTHONDONTWRITEBYTECODE="
            f"{'unset' if flag is None else repr(flag)}")


def src_lines(checkout: Path) -> int:
    """The total number of lines of the checkout's ``src/superproj/*.py``."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "superproj").glob("*.py"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(run, ok) for one bench/run.py process in checkout."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        run = parse_run(done.stdout)
    except ValueError:
        sys.stderr.write(f"error: {checkout}: {' '.join(cmd[1:])} gave no "
                         f"result (exit {done.returncode})\n{done.stderr}")
        return None, False
    if done.returncode != 0:
        sys.stderr.write(f"error: {checkout}: {workload} exited "
                         f"{done.returncode} with {run['failed']} failed checks\n")
    return run, done.returncode == 0


def run_pairs(sides: dict, workloads: list, pairs: int, seed: int,
              seconds: float) -> tuple:
    """(runs, ok, env) of alternating pairs of each workload on one seed,
    with ``runs`` as `summarize` takes it; runs is None when a run gave no
    result."""
    runs, ok, env = {}, True, {}
    for workload in workloads:
        runs[workload] = {"parent": [], "change": []}
        for i in range(pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                run, run_ok = run_once(sides[side], workload, seed, seconds)
                if run is None:
                    return None, False, env
                ok &= run_ok
                env = env or run["env"]
                runs[workload][side].append(run)
            print(f"{workload} seed {seed} pair {i + 1}/{pairs} done", flush=True)
    return runs, ok, env


def command_line(seed: int, seconds: float) -> str:
    return (f"python3 bench/run.py --workload W --seed {seed} "
            f"--seconds {seconds:g} --trace 0, in a clean copy of each side")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--pr", type=int)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    parser.add_argument("--out", type=Path,
                        help="default: BENCH_<pr>.json, or bench_pairs.json")
    parser.add_argument("--holdout-seed", type=int)
    parser.add_argument("--holdout-seconds", type=float,
                        help="default: --seconds")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    if args.holdout_seconds is not None and args.holdout_seed is None:
        parser.error("--holdout-seconds needs --holdout-seed")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        if workload not in args.workload or metric not in {m["name"] for m in spec}:
            parser.error(f"--claim {claim}: not a measured WORKLOAD:METRIC")
    sides = {"parent": args.parent, "change": args.change}
    seeds = [(args.seed, args.seconds)]
    if args.holdout_seed is not None:
        seeds.append((args.holdout_seed, args.seconds if args.holdout_seconds is None
                      else args.holdout_seconds))
    summaries, claims, ok = [], [], True
    for seed, seconds in seeds:
        runs, seed_ok, env = run_pairs(sides, args.workload, args.pairs, seed, seconds)
        if runs is None:
            return 1
        ok &= seed_ok
        workloads = summarize(runs, spec)
        for workload, entry in workloads.items():
            if not entry["same_reports"]:
                print(f"{workload} seed {seed}: reports differ, digests "
                      f"{entry['digest']['parent']} vs {entry['digest']['change']}")
        label = f"seed {seed}, {seconds:g} s"
        claims += [claim_verdict(workloads, *c.partition(":")[::2], label)
                   for c in args.claim]
        summaries.append(workloads)
    record = {
        "pr": args.pr,
        "what": (f"parent ({args.parent.name}) vs change ({args.change.name}), "
                 "alternating which side runs first in each pair"),
        "claim": claims or None,
        "command": command_line(args.seed, args.seconds),
        "pairs": args.pairs,
        "machine": machine_line(env),
        "src_lines": {side: src_lines(path) for side, path in sides.items()},
        "statistic": STATISTIC,
        "workloads": summaries[0],
    }
    if args.holdout_seed is not None:
        seed, seconds = seeds[1]
        record["holdout"] = {
            "command": f"{command_line(seed, seconds)}, after the seed-{args.seed} runs",
            "workloads": summaries[1],
        }
    out = args.out or Path(f"BENCH_{args.pr}.json" if args.pr else "bench_pairs.json")
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
