"""The summary step of ``scripts/bench_pairs.py`` on synthetic result
lines; nothing here runs the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEC = [{"name": "checks_per_s", "better": "higher", "bound": 0.25},
        {"name": "report_s.p50", "better": "lower", "bound": 0.25}]


def output(rate, p50, failed=0, digest="f762f45d" + "0" * 56):
    """The tail of a bench/run.py output, as its main() prints it."""
    result = {"correct": failed == 0, "attempted": 180, "failed": failed,
              "metrics": {"checks_per_s": {"value": rate, "unit": "1/s"},
                          "report_s.p50": {"value": p50, "unit": "s"}}}
    return "\n".join([
        "workload geometry_changes seed 301 trace 0",
        "env nproc=2 python=3.11.7 sympy=1.14.0 ground_types=python "
        "machine=x86_64 system=Linux",
        f"reports 108 checks 180 failed {failed}",
        f"digest {digest} (first 100 reports, duration_ms removed)",
        f"checks_per_s {rate:.6g} 1/s",
        json.dumps(result)])


def test_parse_run():
    run = bench_pairs.parse_run(output(150.5, 0.008, failed=2))
    assert run["digest"] == "f762f45d" and run["failed"] == 2
    assert run["metrics"] == {"checks_per_s": 150.5, "report_s.p50": 0.008}
    assert run["env"]["python"] == "3.11.7" and run["env"]["nproc"] == "2"


@pytest.mark.parametrize("text", ["", "digest abc\n", "{\"failed\": 0}"])
def test_parse_run_without_result_line(text):
    with pytest.raises(ValueError):
        bench_pairs.parse_run(text)


def runs_of(rates, p50s):
    return [bench_pairs.parse_run(output(r, p)) for r, p in zip(rates, p50s)]


PARENT_RATES = [150, 160, 170, 155, 165, 158, 162, 168, 152, 175]
CHANGE_RATES = [220, 230, 210, 225, 150, 228, 226, 231, 219, 240]
P50 = [0.010] * 10


def test_summary_medians_iqr_and_pairs():
    out = bench_pairs.summarize(
        {"geometry_changes": {"parent": runs_of(PARENT_RATES, P50),
                              "change": runs_of(CHANGE_RATES, [0.012] * 10)}},
        SPEC)["geometry_changes"]
    assert out["digest"] == {"parent": ["f762f45d"], "change": ["f762f45d"]}
    assert out["same_reports"] is True
    assert out["failed"] == {"parent": 0, "change": 0}
    rate = out["metrics"]["checks_per_s"]
    assert rate["parent"]["median"] == 161.0 and rate["change"]["median"] == 225.5
    # inclusive quartiles of the parent's runs: 155.75 and 167.25
    assert rate["parent"]["iqr"] == 11.5
    assert rate["parent"]["runs"] == PARENT_RATES
    assert rate["change_better_pairs"] == 9  # pair 5 is lost
    assert rate["relative_change"] == round(-(225.5 - 161) / 161, 4)
    assert rate["within_bound"] is True
    assert rate["resolved"] is True  # IQR/median 0.07 and 0.05, bound 0.25
    p50 = out["metrics"]["report_s.p50"]
    assert p50["relative_change"] == 0.2 and p50["within_bound"] is True
    assert p50["change_better_pairs"] == 0


def runs_with_digests(digests):
    return [bench_pairs.parse_run(output(150, 0.01, digest=d + "0" * 56))
            for d in digests]


@pytest.mark.parametrize("parent, change, same", [
    (["f762f45d"] * 2, ["f762f45d"] * 2, True),
    (["f762f45d"] * 2, ["0a733411"] * 2, False),
    (["f762f45d"] * 2, ["f762f45d", "0a733411"], False),
    (["f762f45d", "0a733411"], ["f762f45d", "0a733411"], False),
], ids=["equal", "different", "change_split", "both_split"])
def test_summary_says_whether_the_reports_agree(parent, change, same):
    out = bench_pairs.summarize(
        {"w": {"parent": runs_with_digests(parent),
               "change": runs_with_digests(change)}}, SPEC)
    assert out["w"]["same_reports"] is same


def test_summary_flags_a_regression_beyond_its_bound():
    out = bench_pairs.summarize(
        {"w": {"parent": runs_of(PARENT_RATES, P50),
               "change": runs_of([r * 0.7 for r in PARENT_RATES], P50)}}, SPEC)
    rate = out["w"]["metrics"]["checks_per_s"]
    assert rate["relative_change"] == 0.3 and rate["within_bound"] is False


# inclusive quartiles 95 and 130: IQR/median = 35/112.5 > 0.25
WIDE_RATES = [80, 90, 95, 100, 110, 115, 130, 140, 150, 160]


@pytest.mark.parametrize("parent, change, resolved", [
    # the parent's runs spread too wide
    (WIDE_RATES, [r * 1.05 for r in WIDE_RATES], False),
    # the change's runs spread too wide
    (PARENT_RATES, WIDE_RATES, False),
    # both spread too wide, but every change run beats every parent run
    ([r / 2 for r in WIDE_RATES], [r + 80 for r in WIDE_RATES], True),
    # both narrow
    (PARENT_RATES, [r + 1 for r in PARENT_RATES], True),
], ids=["parent_wide", "change_wide", "clear_win", "both_narrow"])
def test_summary_marks_a_spread_wider_than_the_bound_unresolved(
        parent, change, resolved):
    out = bench_pairs.summarize(
        {"w": {"parent": runs_of(parent, P50), "change": runs_of(change, P50)}},
        SPEC)
    assert out["w"]["metrics"]["checks_per_s"]["resolved"] is resolved
    assert out["w"]["metrics"]["report_s.p50"]["resolved"] is True


def test_claim_needs_nine_of_ten_pairs_and_more_than_the_iqr():
    def claim(change_rates):
        workloads = bench_pairs.summarize(
            {"w": {"parent": runs_of(PARENT_RATES, P50),
                   "change": runs_of(change_rates, P50)}}, SPEC)
        return bench_pairs.claim_verdict(workloads, "w", "checks_per_s", "seed 301, 30 s")

    met = claim(CHANGE_RATES)
    assert met["met"] and met["change_better_pairs"] == 9 and met["pairs"] == 10
    assert met["median_gain"] == 64.5 and met["parent_iqr"] == 11.5
    # eight pairs won
    assert not claim([140, 150] + CHANGE_RATES[2:])["met"]
    # every pair won, by less than the parent's interquartile range
    assert not claim([r + 5 for r in PARENT_RATES])["met"]


def test_machine_line_names_the_bytecode_setting(monkeypatch):
    env = bench_pairs.parse_run(output(1, 1))["env"]
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    line = bench_pairs.machine_line(env)
    assert line.startswith("2 vCPUs (") and "Python 3.11.7" in line
    assert line.endswith("PYTHONDONTWRITEBYTECODE='1'")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench_pairs.machine_line(env).endswith("PYTHONDONTWRITEBYTECODE=unset")


def fake_checkout(root, name, rate, failed, holdout_rate=None, digest="f762f45d",
                  src=()):
    """A checkout whose bench/run.py prints a fixed result per seed (rate,
    or holdout_rate on seed 5) and exits 1 on failed checks, as the real one
    does; it appends its arguments to calls.log in the checkout.  src gives
    the line count of each file src/superproj/m<i>.py."""
    bench = root / name / "bench"
    bench.mkdir(parents=True)
    package = root / name / "src" / "superproj"
    package.mkdir(parents=True)
    for i, lines in enumerate(src):
        (package / f"m{i}.py").write_text("x = 1\n" * lines)
    (package / "notes.txt").write_text("not counted\n")
    texts = {1: output(rate, 0.01, failed, digest=digest + "0" * 56),
             5: output(holdout_rate or rate, 0.01, failed, digest="6bf8eb07" + "0" * 56)}
    (bench / "run.py").write_text(
        "import sys\n"
        "with open('calls.log', 'a') as log:\n"
        "    log.write(' '.join(sys.argv[1:]) + '\\n')\n"
        f"print({texts!r}[int(sys.argv[sys.argv.index('--seed') + 1])])\n"
        f"sys.exit({1 if failed else 0})\n")
    (root / name / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": SPEC}))
    return root / name


@pytest.mark.parametrize("failed, status", [(0, 0), (3, 1)])
def test_main_exits_nonzero_when_a_run_fails(tmp_path, failed, status):
    parent = fake_checkout(tmp_path, "parent", 150, 0, src=(3, 40))
    change = fake_checkout(tmp_path, "change", 200, failed, src=(3, 30, 2))
    out = tmp_path / "BENCH.json"
    args = [str(parent), str(change), "--workload", "w", "--seed", "1",
            "--seconds", "0", "--pairs", "2", "--pr", "7", "--out", str(out),
            "--claim", "w:checks_per_s"]
    assert bench_pairs.main(args) == status
    record = json.loads(out.read_text())
    assert record["pr"] == 7 and record["pairs"] == 2
    assert record["src_lines"] == {"parent": 43, "change": 35}
    assert record["workloads"]["w"]["failed"] == {"parent": 0, "change": 2 * failed}
    assert record["claim"][0]["change_better_pairs"] == 2


def test_main_prints_differing_reports_and_keeps_the_exit_code(tmp_path, capsys):
    parent = fake_checkout(tmp_path, "parent", 150, 0)
    change = fake_checkout(tmp_path, "change", 150, 0, digest="4daa7577")
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--seed", "1",
                             "--seconds", "0", "--pairs", "2", "--out", str(out)]) == 0
    assert ("w seed 1: reports differ, digests ['f762f45d'] vs ['4daa7577']"
            in capsys.readouterr().out.splitlines())
    assert json.loads(out.read_text())["workloads"]["w"]["same_reports"] is False


def test_main_refuses_an_unmeasured_claim(tmp_path):
    parent = fake_checkout(tmp_path, "parent", 150, 0)
    with pytest.raises(SystemExit):
        bench_pairs.main([str(parent), str(parent), "--workload", "w", "--seed", "1",
                          "--seconds", "0", "--pairs", "2", "--claim", "v:checks_per_s"])
    assert not (parent / "calls.log").exists()


@pytest.mark.parametrize("extra", [["--pairs", "1"], ["--pairs", "2", "--holdout-seconds", "3"]])
def test_main_refuses_one_pair_or_a_holdout_without_seed(tmp_path, extra):
    parent = fake_checkout(tmp_path, "parent", 150, 0)
    with pytest.raises(SystemExit):
        bench_pairs.main([str(parent), str(parent), "--workload", "w", "--seed", "1",
                          "--seconds", "0"] + extra)
    assert not (parent / "calls.log").exists()


def test_holdout_runs_the_same_pairs_on_its_seed(tmp_path):
    parent = fake_checkout(tmp_path, "parent", 150, 0, holdout_rate=150)
    change = fake_checkout(tmp_path, "change", 200, 0, holdout_rate=140)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([
        str(parent), str(change), "--workload", "w", "--seed", "1",
        "--seconds", "0", "--pairs", "2", "--out", str(out),
        "--claim", "w:checks_per_s", "--holdout-seed", "5",
        "--holdout-seconds", "0.5"]) == 0
    record = json.loads(out.read_text())
    main_claim, holdout_claim = record["claim"]
    assert main_claim["runs"] == "seed 1, 0 s" and main_claim["met"]
    assert holdout_claim["runs"] == "seed 5, 0.5 s" and not holdout_claim["met"]
    assert holdout_claim["change_better_pairs"] == 0
    holdout = record["holdout"]
    assert holdout["command"].startswith(
        "python3 bench/run.py --workload W --seed 5 --seconds 0.5 --trace 0")
    assert holdout["command"].endswith("after the seed-1 runs")
    assert holdout["workloads"]["w"]["digest"]["change"] == ["6bf8eb07"]
    assert record["workloads"]["w"]["digest"]["change"] == ["f762f45d"]
    rates = holdout["workloads"]["w"]["metrics"]["checks_per_s"]
    assert rates["parent"]["runs"] == [150, 150] and rates["change"]["runs"] == [140, 140]
    # each checkout: two runs on the seed, then two on the holdout
    for side in (parent, change):
        assert (side / "calls.log").read_text().splitlines() == [
            "--workload w --seed 1 --seconds 0.0 --trace 0"] * 2 + [
            "--workload w --seed 5 --seconds 0.5 --trace 0"] * 2


def test_no_holdout_block_without_a_holdout_seed(tmp_path):
    parent = fake_checkout(tmp_path, "parent", 150, 0)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(parent), str(parent), "--workload", "w", "--seed", "1",
                             "--seconds", "0", "--pairs", "2", "--out", str(out)]) == 0
    assert "holdout" not in json.loads(out.read_text())
