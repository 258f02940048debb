#!/usr/bin/env python3
"""Run every bundled scenario file and print its report.

Usage: python scripts/run_scenarios.py [--format text|json]

Exits 1 when any check fails, 0 otherwise.
"""

import argparse
import sys
from pathlib import Path

from superproj.cli import emit_report, parse_scenario, run_checks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args()
    scenario_dir = Path(__file__).resolve().parent.parent / "scenarios"
    failures = 0
    for path in sorted(scenario_dir.glob("*.json")):
        print(f"=== {path.name} ===")
        scenario = parse_scenario(path.read_text(encoding="utf-8"))
        report = run_checks(scenario)
        print(emit_report(report, args.format))
        failures += sum(1 for e in report.checks if e["verdict"] == "fail")
    if failures:
        print(f"{failures} failing check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
