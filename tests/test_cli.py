import hashlib
import json
import os
import tempfile

import numpy as np
import pytest

from conftest import diverge_for_seed, save_penalty, serialize_libsvm
from spdpeg import bench
from spdpeg.cli import main, parse_synthetic_spec
from spdpeg.data import synthesize
from spdpeg.penalties import build_fused_matrix
from spdpeg.trace import read_trace_csv

# sha256 of the files the small verify-rates and check-lemma1 calls below
# write. Regenerate only on a commit whose outputs are known to be right:
#   PYTHONPATH=src python tests/test_cli.py
RATES_GOLDEN = {
    "convex": "7555caeca6c7c07fc9888bfe505df8959a1766c0662a1995bdfaefdaaf999da5",
    "all": "ecae7d1e803edc66c439c13d7f29f5e9dfb32a480ea53472c083216ee2c3c0e5",
}
# test_golden_trace.SWEEP_GOLDEN hashes bench.step_inequality_sweep at seed 1
# through json.dumps(sort_keys=True); the CLI runs seed 0 and writes the list
# of reports indented, in insertion order. So these pin bytes it does not.
LEMMA1_GOLDEN = {
    "both": "878e2d657a1654fffca913487684a0390c65a926050205f04321d38815f3b76f",
    "step-scale-100": "e14ef1070ecff9f9b173e3320e2f302c473efd98885f3ed5b3925026cf80e591",
}
# the calls, each followed by "--out"
RATES_ARGV = {
    "convex": ["verify-rates", "--regime", "convex", "--iters", "2000",
               "--seeds", "2", "--d", "8", "--n", "40", "--eval-every", "100"],
    "all": ["verify-rates", "--regime", "all", "--iters", "1500",
            "--seeds", "2", "--d", "8", "--n", "40", "--eval-every", "100"],
}
LEMMA1_ARGV = {
    "both": ["check-lemma1", "--d", "8", "--n", "40", "--steps", "60",
             "--references", "3", "--mode", "both"],
    "step-scale-100": ["check-lemma1", "--d", "8", "--n", "40", "--steps", "30",
                       "--references", "2", "--mode", "stochastic",
                       "--step-scale", "100"],
}


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_parse_synthetic_spec():
    spec = parse_synthetic_spec("fused-signal:d=12,N=80,noise=0.3", seed=7)
    assert spec == {"kind": "fused-signal", "d": 12, "n": 80, "noise": 0.3,
                    "seed": 7}
    with pytest.raises(ValueError, match="needs d and N"):
        parse_synthetic_spec("fused-signal:d=12", seed=0)
    with pytest.raises(ValueError, match="unknown synthetic field"):
        parse_synthetic_spec("fused-signal:d=4,N=8,rho=2", seed=0)
    assert parse_synthetic_spec("fused-signal:d=4,N=1e5", seed=0)["n"] == 100_000


def test_run_writes_traces_and_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--task", "flr", "--synthetic", "fused-signal:d=8,N=40",
               "--solver", "all", "--iters", "300", "--seeds", "2",
               "--eval-every", "100", "--out", str(out)])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert "manifest.json" in names
    assert sum(n.startswith("trace_") for n in names) == 6
    records = read_trace_csv(out / "trace_spdpeg_seed0.csv")
    assert [r.iteration for r in records] == [100, 200, 300]
    assert "final objective" in capsys.readouterr().out


def test_run_replays_manifest_byte_identically(tmp_path):
    out = tmp_path / "out"
    main(["run", "--task", "ggrlr", "--synthetic", "graph-logistic:d=8,N=40",
          "--iters", "200", "--out", str(out)])
    replay = tmp_path / "replay"
    rc = main(["run", "--from-manifest", str(out / "manifest.json"),
               "--out", str(replay)])
    assert rc == 0
    name = "trace_spdpeg_seed0.csv"
    assert (out / name).read_bytes() == (replay / name).read_bytes()


def test_run_reports_a_diverged_run_and_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(bench._SOLVER_FNS, "spdpeg", diverge_for_seed(1))
    out = tmp_path / "out"
    rc = main(["run", "--synthetic", "fused-signal:d=8,N=40", "--iters", "200",
               "--seeds", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"wrote {out / 'manifest.json'}" in captured.out
    assert "trace_spdpeg_seed0.csv: final objective" in captured.out
    [line] = captured.err.splitlines()
    assert line.startswith("error: spdpeg seed 1: iterate diverged at iteration")
    assert sorted(os.listdir(out)) == ["manifest.json", "trace_spdpeg_seed0.csv"]
    # the replay meets the same divergence, which is a faithful replay
    rc = main(["run", "--from-manifest", str(out / "manifest.json"),
               "--out", str(tmp_path / "replay")])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        f"replayed {tmp_path / 'replay' / 'trace_spdpeg_seed0.csv'}"]


def test_run_on_libsvm_file_with_penalty_file(tmp_path):
    ds, _, _ = synthesize("fused-signal", 6, 40, 0.2, 11)
    data_path = tmp_path / "data.txt"
    data_path.write_text(serialize_libsvm(ds))
    pen_path = tmp_path / "penalty.txt"
    save_penalty(pen_path, build_fused_matrix(6))
    out = tmp_path / "out"
    rc = main(["run", "--task", "flr", "--data", str(data_path),
               "--penalty-file", str(pen_path), "--iters", "150",
               "--normalize", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["core"]["data"]["normalize"] is True
    assert manifest["core"]["data"]["sha256"]
    assert manifest["core"]["penalty"]["source"] == "file"


def test_run_missing_data_file_fails_cleanly(tmp_path, capsys):
    rc = main(["run", "--task", "flr", "--data", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_run_without_seeds_fails_cleanly(tmp_path, capsys):
    rc = main(["run", "--task", "flr", "--synthetic", "fused-signal:d=8,N=40",
               "--seeds", "0", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_run_malformed_synthetic_spec_fails_cleanly(tmp_path, capsys):
    rc = main(["run", "--task", "flr", "--synthetic", "bogus:d=4,N=10",
               "--iters", "10", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", ["d=2.5,N=20", "d=1e400,N=20", "d=4,N=nan",
                                   "d=4,N=-inf"])
def test_run_rejects_a_synthetic_size_that_is_no_integer(tmp_path, capsys, sizes):
    rc = main(["run", "--task", "flr", "--synthetic", f"fused-signal:{sizes}",
               "--iters", "10", "--out", str(tmp_path / "o")])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: synthetic ") and "must be a finite integer" in line


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_run_rejects_non_finite_synthetic_noise(tmp_path, capsys, noise):
    rc = main(["run", "--synthetic", f"fused-signal:d=20,N=200,noise={noise}",
               "--iters", "10", "--out", str(tmp_path / "o")])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: noise must be finite and >= 0, got {noise}"
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_run_reports_worker_parse_error(tmp_path, capsys, monkeypatch):
    # with two worker processes the ParseError crosses a process boundary
    data_path = tmp_path / "bad.txt"
    data_path.write_text("1 1:0.5 2:1.0\n-1 1:x\n")
    monkeypatch.setenv("SPDPEG_THREADS", "2")
    rc = main(["run", "--task", "flr", "--data", str(data_path),
               "--iters", "10", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error: line 2: bad feature value 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_reports_power_iteration_error(tmp_path, capsys, monkeypatch, threads):
    # a file penalty gets its sigma_max by power iteration, and for the
    # first-difference matrix of d=300 that needs more than 10,000 steps;
    # with two workers the error crosses a process boundary
    pen_path = tmp_path / "penalty.txt"
    save_penalty(pen_path, build_fused_matrix(300))
    monkeypatch.setenv("SPDPEG_THREADS", threads)
    rc = main(["run", "--task", "flr", "--synthetic", "fused-signal:d=300,N=500",
               "--penalty-file", str(pen_path), "--iters", "10",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(
        "error: power iteration did not converge in 10000 iterations")


def test_run_fused_penalty_of_d_300(tmp_path):
    # the fused penalty's sigma_max is in closed form, so no power
    # iteration limits its dimension
    rc = main(["run", "--task", "flr", "--synthetic", "fused-signal:d=300,N=500",
               "--iters", "10", "--out", str(tmp_path / "o")])
    assert rc == 0


def test_verify_rates_small(tmp_path, capsys):
    out = tmp_path / "rates"
    rc = main([*RATES_ARGV["convex"], "--out", str(out)])
    assert rc == 0
    assert [p.name for p in out.iterdir()] == ["rates.json"]
    report = json.loads((out / "rates.json").read_text())
    assert report["convex"]["slope"] < 0.0
    assert sha256_of(out / "rates.json") == RATES_GOLDEN["convex"]
    assert "slope=" in capsys.readouterr().out


def test_verify_rates_ordering_small(tmp_path):
    out = tmp_path / "rates"
    rc = main([*RATES_ARGV["all"], "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "rates.json").read_text())
    assert "ordering" in report and "sc-nonuniform" in report
    assert sha256_of(out / "rates.json") == RATES_GOLDEN["all"]


def test_check_lemma1_cli(tmp_path, capsys):
    report_path = tmp_path / "lemma.json"
    rc = main([*LEMMA1_ARGV["both"], "--out", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "diverged" not in out
    reports = json.loads(report_path.read_text())
    assert {r["mode"] for r in reports} == {"deterministic", "stochastic"}
    assert all(r["min_relative_slack"] >= -1e-8 for r in reports)
    assert sha256_of(report_path) == LEMMA1_GOLDEN["both"]


def test_check_lemma1_flags_inflated_steps(tmp_path, capsys):
    report_path = tmp_path / "lemma.json"
    rc = main([*LEMMA1_ARGV["step-scale-100"], "--out", str(report_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert sha256_of(report_path) == LEMMA1_GOLDEN["step-scale-100"]
    flagged = int(out.split("steps with a negative")[0].rsplit(";", 1)[1].strip())
    assert flagged >= 1
    assert ("stochastic: the run diverged at iteration 15; only the 15 "
            "completed steps before it were audited") in out


@pytest.mark.parametrize("argv", [
    ["verify-rates", "--seeds", "0", "--iters", "300", "--d", "8", "--n", "40"],
    ["verify-rates", "--seeds", "-2", "--iters", "300", "--d", "8", "--n", "40"],
    ["verify-rates", "--eval-every", "0", "--iters", "20000"],
    ["check-lemma1", "--references", "0"],
    ["check-lemma1", "--references", "-3"],
])
def test_rate_and_lemma_commands_reject_empty_inputs(argv, capsys, monkeypatch):
    # no seed, no trace grid or no reference point: one error line, and
    # nothing built first
    builds = []
    monkeypatch.setattr(bench, "build_all", builds.append)
    assert main(argv) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "must be >= 1" in line
    assert builds == [] and "PASS" not in captured.out


def test_plotdata_cli(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--task", "flr", "--synthetic", "fused-signal:d=6,N=30",
          "--iters", "100", "--seeds", "2", "--eval-every", "50",
          "--out", str(out)])
    rc = main(["plotdata", "--in", str(out / "trace_*.csv"),
               "--out", str(tmp_path / "plot.csv")])
    assert rc == 0
    assert (tmp_path / "plot.csv").exists()
    assert (tmp_path / "plot_agg.csv").exists()
    header = (tmp_path / "plot.csv").read_text().splitlines()[0]
    assert header == "solver,metric,iteration,seed,value"


def test_plotdata_empty_glob(tmp_path, capsys):
    rc = main(["plotdata", "--in", str(tmp_path / "none_*.csv"),
               "--out", str(tmp_path / "plot.csv")])
    assert rc == 1
    assert "no trace files" in capsys.readouterr().err


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RATES_ARGV.items():
            main([*argv, "--out", os.path.join(tmp, name)])
            print(f'RATES {name}: {sha256_of(os.path.join(tmp, name, "rates.json"))}')
        for name, argv in LEMMA1_ARGV.items():
            path = os.path.join(tmp, f"{name}.json")
            main([*argv, "--out", path])
            print(f"LEMMA1 {name}: {sha256_of(path)}")
