"""Reports stay byte-identical: the digest of the first 100 reports of each
benchmark workload at seed 301, computed with the benchmark's own scenario
generator and ``run.Pass`` (``bench/run.py``, loaded by path), equals the
recorded value.  A change that alters reports on purpose updates these
values and says why."""

import importlib.util
from pathlib import Path

import pytest

from superproj import cli

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "run.py"
spec = importlib.util.spec_from_file_location("bench_run", SCRIPT)
bench_run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_run)

DIGESTS = {
    "geometry_changes":
        "f762f45de6be454e896e1dc947cbe9656d90991365dfbd0ffd7eab0eadedb458",
    "brackets_bv":
        "0526e6835fc0c8f35e1a740e9956fcf4bdcf4e8b5286515d946433f62525f32f",
    "rational_coeffs":
        "3a14f7fe65e201f16bff00d9e249e10ccdac96989c072094a3921234db50b1c1",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_301_report_digest(workload):
    result = bench_run.Pass()
    cases = bench_run.scenario_gen.generate(workload, 301, bench_run.MIN_REPORTS)
    for index, case in enumerate(cases):
        result.run_case(cli, index, case)
    assert result.problems == []
    assert len(result.reports) == bench_run.MIN_REPORTS
    assert result.digest() == DIGESTS[workload]
