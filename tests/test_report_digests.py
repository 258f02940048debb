"""Reports stay byte-identical: the digest of the first 100 reports of each
benchmark workload at seed 301, and of ``brackets_bv`` at seeds 302 and 303
too, computed with the benchmark's own scenario generator and ``run.Pass``
(``bench/run.py``, loaded by path), equals the recorded value.  A change that alters reports on purpose updates these
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

BRACKETS_BV_DIGESTS = {
    302: "6964963035e7d5099b1e1d381c1b758dc153d1a915d2828287609b5ffe1d8e35",
    303: "683c7bc21c294e4bf602f7b4dbd27acd51613ae460e7f58cd67a5adf94f40648",
}


def report_digest(workload, seed):
    result = bench_run.Pass()
    cases = bench_run.scenario_gen.generate(workload, seed, bench_run.MIN_REPORTS)
    for index, case in enumerate(cases):
        result.run_case(cli, index, case)
    assert result.problems == []
    assert len(result.reports) == bench_run.MIN_REPORTS
    return result.digest()


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_301_report_digest(workload):
    assert report_digest(workload, 301) == DIGESTS[workload]


@pytest.mark.parametrize("seed", sorted(BRACKETS_BV_DIGESTS))
def test_brackets_bv_report_digest(seed):
    assert report_digest("brackets_bv", seed) == BRACKETS_BV_DIGESTS[seed]
