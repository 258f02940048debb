#!/usr/bin/env python3
"""Same-process A/B timing of two checkouts on the benchmark's scenarios.

Usage (each directory is a checkout holding ``src/superproj`` and
``bench/``):

    python3 scripts/ab_same_process.py PARENT_DIR CHANGE_DIR \\
        --workload geometry_changes --cases 600 --passes 4 [--seed 305]

Each checkout's ``src/superproj`` is copied into one temporary directory,
as the packages ``superproj_parent`` and ``superproj_change``, and both are
imported into this process.  The first ``--cases`` cases of the workload
(``bench/scenario_gen.py`` of CHANGE_DIR, seed ``--seed``, by default the
benchmark's claim seed 301) then run through both sides as ``bench/run.py``
runs them, ``parse_scenario`` -> ``run_checks`` -> ``emit_report(...,
"json")``, alternating case by case which side goes first, ``--passes``
times over the cases, after one untimed warm-up case on each side.  Host
drift between two processes minutes apart can exceed the effect being
measured; within one process both sides see the same drift.

Prints, per side, the summed report time and the smoothed p50 and p90 of
the report times over the benchmark's windows, the ratios parent / change
(above 1: the change is faster), each side's line count of
``src/superproj/*.py`` (``src_lines``, as ``scripts/bench_pairs.py`` counts
it), and ``same_reports``: every report of the two sides is equal once its
``duration_ms`` fields are removed.  The header and the summary name the
seed.  The last line is the same summary as a JSON object.  Exits 1 when
the reports differ.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import src_lines

CLAIM_SEED = 301  # the benchmark's claim seed, the default of --seed
SIDES = ("parent", "change")
# (q, half width) of the smoothed quantiles of bench/run.py's end_to_end
WINDOWS = {"p50": (0.5, 0.1), "p90": (0.9, 0.05)}


def load_bench(checkout: Path):
    """bench/run.py of a checkout, which imports its scenario_gen."""
    spec = importlib.util.spec_from_file_location(
        "bench_run", checkout / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_clis(checkouts: dict, into: Path) -> dict:
    """{side: the side's cli module}, each from its own package copy."""
    sys.path.insert(0, str(into))
    clis = {}
    for side, checkout in checkouts.items():
        name = f"superproj_{side}"
        shutil.copytree(checkout / "src" / "superproj", into / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        clis[side] = importlib.import_module(f"{name}.cli")
    return clis


def report(cli, text: str) -> tuple:
    """(seconds, report JSON) of one scenario document."""
    start = time.perf_counter()
    out = cli.emit_report(cli.run_checks(cli.parse_scenario(text)), "json")
    return time.perf_counter() - start, out


def run(clis: dict, bench, workload: str, seed: int, cases: int,
        passes: int) -> dict:
    texts = [bench.scenario_gen.case(workload, seed, index).text
             for index in range(cases)]
    for cli in clis.values():
        report(cli, texts[0])
    times = {side: [] for side in clis}
    same = True
    for p in range(passes):
        for index, text in enumerate(texts):
            order = SIDES if (index + p) % 2 == 0 else SIDES[::-1]
            reports = {}
            for side in order:
                seconds, reports[side] = report(clis[side], text)
                times[side].append(seconds)
            same = same and len(set(map(bench.strip_durations,
                                        reports.values()))) == 1
    summary = {"workload": workload, "seed": seed, "cases": cases,
               "passes": passes}
    for side, values in times.items():
        summary[side] = {"total_s": sum(values), **{
            f"{name}_s": bench.quantile(values, q, half)
            for name, (q, half) in WINDOWS.items()}}
    summary["ratio"] = {key: summary["parent"][key] / summary["change"][key]
                        for key in summary["parent"]}
    summary["same_reports"] = same
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--cases", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--seed", type=int, default=CLAIM_SEED)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = load_bench(checkouts["change"])
    with tempfile.TemporaryDirectory() as into:
        clis = load_clis(checkouts, Path(into))
        summary = run(clis, bench, args.workload, args.seed, args.cases,
                      args.passes)
    summary["src_lines"] = {side: src_lines(checkout)
                            for side, checkout in checkouts.items()}
    print(f"{args.workload}, seed {args.seed}: {args.cases} cases x {args.passes} "
          "passes, alternating sides case by case")
    print(f"{'':10} {'parent':>10} {'change':>10} {'ratio':>8}")
    for key in summary["ratio"]:
        print(f"{key:10} {summary['parent'][key]:10.5g} "
              f"{summary['change'][key]:10.5g} {summary['ratio'][key]:8.3f}")
    lines = summary["src_lines"]
    print(f"{'src_lines':10} {lines['parent']:10} {lines['change']:10}")
    print(f"same_reports {str(summary['same_reports']).lower()}")
    print(json.dumps(summary))
    return 0 if summary["same_reports"] else 1


if __name__ == "__main__":
    sys.exit(main())
