"""Smoke test of the scripts under ``scripts/``, each run as a subprocess.

``run_scenarios.py`` exits 1 exactly when some bundled scenario has a
failing check, and then ends with the count of failing checks; the golden
reports say how many there are.  ``ab_same_process.py`` runs on two copies
of this checkout, and fails once one copy prints its reports differently.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_script(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_run_scenarios(fmt):
    failing = sum(entry["verdict"] == "fail"
                  for path in GOLDEN.glob("*.json")
                  for entry in json.loads(path.read_text(encoding="utf-8"))["checks"])
    done = run_script(ROOT / "scripts" / "run_scenarios.py", "--format", fmt)
    assert done.stderr == ""
    assert done.returncode == (1 if failing else 0)
    lines = done.stdout.splitlines()
    assert sum(line.startswith("=== ") for line in lines) == len(
        list((ROOT / "scenarios").glob("*.json")))
    if failing:
        assert lines[-1] == f"{failing} failing check(s)"


def test_verify_identities():
    done = run_script(ROOT / "scripts" / "verify_identities.py")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "all identities verified"


def _checkout_copy(into):
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, into / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return into


def test_ab_same_process(tmp_path):
    parent = _checkout_copy(tmp_path / "parent")
    change = _checkout_copy(tmp_path / "change")
    args = ["--workload", "geometry_changes", "--cases", "4", "--passes", "2"]
    done = run_script(ROOT / "scripts" / "ab_same_process.py", parent, change, *args)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("geometry_changes, seed 301: 4 cases x 2 passes")
    assert "same_reports true" in lines
    summary = json.loads(lines[-1])
    assert summary["same_reports"] is True
    assert summary["seed"] == 301
    assert set(summary["ratio"]) == {"total_s", "p50_s", "p90_s"}
    for side in ("parent", "change"):
        assert summary[side]["total_s"] > 0
    # --seed 305 (the holdout seed) is named in the header and the summary
    done = run_script(ROOT / "scripts" / "ab_same_process.py", parent, change,
                      *args, "--seed", "305")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("geometry_changes, seed 305: 4 cases x 2 passes")
    assert json.loads(lines[-1])["seed"] == 305
    assert json.loads(lines[-1])["same_reports"] is True
    # a change whose reports differ fails the run
    printer = change / "src" / "superproj" / "expressions.py"
    printer.write_text(printer.read_text(encoding="utf-8") + (
        "\n_format = format_super\n\n\n"
        "def format_super(f):\n    return _format(f) + ' '\n"), encoding="utf-8")
    done = run_script(ROOT / "scripts" / "ab_same_process.py", parent, change, *args)
    assert done.returncode == 1
    assert json.loads(done.stdout.splitlines()[-1])["same_reports"] is False
