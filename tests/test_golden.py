"""Golden reports: every bundled scenario renders byte-identically.

``tests/golden/<name>.json`` holds the JSON report of ``scenarios/<name>.json``
with the ``duration_ms`` timings removed, and ``tests/golden/<name>.txt``
holds the text report.  Regenerate them after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from superproj.cli import emit_report, parse_scenario, run_checks

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def render(path: Path) -> dict:
    """The golden file texts of one scenario, keyed by suffix."""
    report = run_checks(parse_scenario(path.read_text(encoding="utf-8")))
    doc = json.loads(emit_report(report, "json"))
    for entry in doc["checks"]:
        entry.pop("duration_ms", None)
    return {".json": json.dumps(doc, indent=2, sort_keys=True) + "\n",
            ".txt": emit_report(report, "text")}


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_report_matches_golden(path):
    for suffix, text in render(path).items():
        golden = (GOLDEN / path.stem).with_suffix(suffix)
        assert text == golden.read_text(encoding="utf-8"), golden.name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for path in SCENARIOS:
        for suffix, text in render(path).items():
            (GOLDEN / path.stem).with_suffix(suffix).write_text(text, encoding="utf-8")
