"""Reports stay byte-identical: the digest of the first 100 reports of each
benchmark workload at seeds 301, 302 and 303, computed with the benchmark's
own scenario generator and ``run.Pass`` (``bench/run.py``, loaded by path),
equals the recorded value.  A change that alters reports on purpose updates
these values and says why."""

import importlib.util
from pathlib import Path

import pytest

from superproj import cli

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "run.py"
spec = importlib.util.spec_from_file_location("bench_run", SCRIPT)
bench_run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_run)

DIGESTS = {
    ("geometry_changes", 301):
        "f762f45de6be454e896e1dc947cbe9656d90991365dfbd0ffd7eab0eadedb458",
    ("geometry_changes", 302):
        "0a733411d2eb44bdbfd6fa8949aea0c9cd56fcb94e448f7e3d97c2080f18440e",
    ("geometry_changes", 303):
        "efe86ce31252441f1c72b29f9d0a536348e752e4a232f1c0eea830e3fb1a3c64",
    ("brackets_bv", 301):
        "0526e6835fc0c8f35e1a740e9956fcf4bdcf4e8b5286515d946433f62525f32f",
    ("brackets_bv", 302):
        "6964963035e7d5099b1e1d381c1b758dc153d1a915d2828287609b5ffe1d8e35",
    ("brackets_bv", 303):
        "683c7bc21c294e4bf602f7b4dbd27acd51613ae460e7f58cd67a5adf94f40648",
    ("rational_coeffs", 301):
        "3a14f7fe65e201f16bff00d9e249e10ccdac96989c072094a3921234db50b1c1",
    ("rational_coeffs", 302):
        "8cd3f1c4f76eb460012f4b40df00dc7249ab6e390e787e810c0202d05547ae0d",
    ("rational_coeffs", 303):
        "92c4ce12b0d3c0f2de512f5f5853f692fa8f2ca7557f5b41fcc8f7409156962d",
}


def report_digest(workload, seed):
    result = bench_run.Pass()
    cases = bench_run.scenario_gen.generate(workload, seed, bench_run.MIN_REPORTS)
    for index, case in enumerate(cases):
        result.run_case(cli, index, case)
    assert result.problems == []
    assert len(result.reports) == bench_run.MIN_REPORTS
    return result.digest()


@pytest.mark.parametrize("workload", sorted(w for w, seed in DIGESTS if seed == 301))
def test_seed_301_report_digest(workload):
    assert report_digest(workload, 301) == DIGESTS[workload, 301]


@pytest.mark.parametrize("workload, seed", sorted(k for k in DIGESTS if k[1] != 301))
def test_other_seed_report_digest(workload, seed):
    assert report_digest(workload, seed) == DIGESTS[workload, seed]
