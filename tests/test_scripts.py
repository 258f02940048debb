"""Smoke test of the scripts under ``scripts/``, each run as a subprocess.

``run_scenarios.py`` exits 1 exactly when some bundled scenario has a
failing check, and then ends with the count of failing checks; the golden
reports say how many there are.
"""

import json
import os
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
