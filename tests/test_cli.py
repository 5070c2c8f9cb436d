import hashlib
import json
import os
import shutil

import pytest

from conftest import (diverge_for_seed, ragged_copy, save_penalty,
                      serialize_libsvm)
from spdpeg import bench
from spdpeg.cli import _build_core, build_parser, main, parse_synthetic_spec
from spdpeg.data import synthesize
from spdpeg.penalties import build_fused_matrix
from spdpeg.trace import read_trace_csv

# The pins of this module (see conftest): ``rates/`` and ``lemma1/`` are the
# sha256 of the files the small verify-rates and check-lemma1 calls below
# write. The ``sweep/`` pins hash bench.step_inequality_sweep at seed 1
# through json.dumps(sort_keys=True); the CLI runs seed 0 and writes the
# list of reports indented, in insertion order, so ``lemma1/`` pins bytes
# ``sweep/`` does not. ``ragged/b<batch>/<file>`` is the sha256 of each
# trace CSV, without its wall_seconds column, of the run on a ragged
# LIBSVM file below; ``plotdata/`` that of the long and the aggregate CSV
# that plotdata writes from the committed flr replay traces (three solvers,
# two seeds, recorded wall times).
REPLAY_TRACES = os.path.join(os.path.dirname(__file__), "data", "replay", "flr")
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


@pytest.mark.parametrize("fields, name", [("d=5,N=10,d=7", "d"),
                                          ("d=5,N=10,n=12", "n"),
                                          ("d=5,n=10,N=12", "N"),
                                          ("noise=0.2,d=5,N=10,noise=0.3", "noise")])
def test_parse_synthetic_spec_rejects_a_repeated_field(fields, name):
    # N and n name one field
    spec = f"fused-signal:{fields}"
    with pytest.raises(ValueError) as exc:
        parse_synthetic_spec(spec, seed=0)
    assert str(exc.value) == f"synthetic field {name!r} is given twice in {spec!r}"


def test_run_rejects_a_repeated_synthetic_field(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--synthetic", "fused-signal:d=5,N=10,d=7", "--iters", "20",
               "--out", str(out)])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == ("error: synthetic field 'd' is given twice in "
                    "'fused-signal:d=5,N=10,d=7'")
    assert not out.exists()


@pytest.mark.parametrize("fields, key, value", [("d=abc,N=10", "d", "abc"),
                                                ("d=5,N=", "N", ""),
                                                ("d=5,N=10,noise=x", "noise", "x")])
def test_run_names_the_field_and_spec_of_a_value_that_is_no_number(
        tmp_path, capsys, fields, key, value):
    out = tmp_path / "o"
    spec = f"fused-signal:{fields}"
    rc = main(["run", "--synthetic", spec, "--out", str(out)])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == (f"error: synthetic field {key!r} must be a number, "
                    f"got {value!r} in {spec!r}")
    assert not out.exists()


@pytest.mark.parametrize("options, key", [
    (["--data", "{data}", "--synthetic", "fused-signal:d=50,N=400"], "path"),
    (["--normalize"], "normalize"),
    (["--synthetic", "fused-signal:d=8,N=40", "--normalize"], "normalize")])
def test_a_run_names_one_data_source_and_its_options_apply_to_it(
        tmp_path, capsys, options, key):
    ds, _, _ = synthesize("fused-signal", 6, 40, 0.2, 11)
    data_path = tmp_path / "tiny.txt"
    data_path.write_text(serialize_libsvm(ds))
    out = tmp_path / "out"
    rc = main(["run", *(o.format(data=data_path) for o in options), "--iters", "20",
               "--out", str(out)])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == (f"error: core.data.{key} belongs to a data file and cannot "
                    "be given beside core.data.synthetic")
    assert not out.exists()


@pytest.mark.parametrize("family", ["convex", "sc"])
def test_a_run_given_no_data_builds_its_tasks_rate_instance(family):
    # rate_core's data, penalty and problem, key for key, with the run's
    # own split and config
    rate = bench.rate_core(family)
    task = rate["problem"]["task"]
    core = _build_core(build_parser().parse_args(["run", "--task", task, "--out", "o"]))
    want = {"data": {"split": True, "train_fraction": 0.8, "split_seed": 12346,
                     "synthetic": rate["data"]["synthetic"]},
            "penalty": rate["penalty"], "problem": rate["problem"],
            "config": {"gamma": 0.1, "regime": rate["config"]["regime"],
                       "iters": 10_000, "batch_size": 1, "eval_every": 100}}
    assert json.dumps(core) == json.dumps(want)


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


@pytest.mark.parametrize("batch_size", [1, 4])
def test_run_on_a_ragged_libsvm_file_is_pinned_and_replays(tmp_path, batch_size,
                                                           pinned):
    # the precision-penalty run of every solver on a file of ragged rows (a
    # seeded graph-logistic set with about 30% of its entries dropped): CSR
    # normalisation, both CSR draw kernels and the CSR full passes
    ds, _, _ = synthesize("graph-logistic", 8, 60, 0.1, 21)
    data_path = tmp_path / "ragged.txt"
    data_path.write_text(serialize_libsvm(ragged_copy(ds, 22)), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--task", "ggrlr", "--data", str(data_path), "--normalize",
                 "--solver", "all", "--seeds", "2", "--iters", "200",
                 "--eval-every", "50", "--batch-size", str(batch_size),
                 "--out", str(out)]) == 0
    names = sorted(p.name for p in out.glob("trace_*"))
    assert names == [f"trace_{name}_seed{seed}.csv" for name in sorted(bench.SOLVERS)
                     for seed in (0, 1)]
    for name in names:
        rows = [line.split(",") for line in (out / name).read_text("utf-8").splitlines()]
        wall = rows[0].index("wall_seconds")
        text = "\n".join(",".join(r[:wall] + r[wall + 1:]) for r in rows)
        pinned(f"ragged/b{batch_size}/{name}", hashlib.sha256(text.encode()).hexdigest())
    replay = tmp_path / "replay"
    assert main(["run", "--from-manifest", str(out / "manifest.json"),
                 "--out", str(replay)]) == 0
    for name in names:
        assert (replay / name).read_bytes() == (out / name).read_bytes()


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
    # with two workers the build still runs in this process, so the
    # ParseError is raised here before any worker starts
    data_path = tmp_path / "bad.txt"
    data_path.write_text("1 1:0.5 2:1.0\n-1 1:x\n")
    monkeypatch.setenv("SPDPEG_THREADS", "2")
    rc = main(["run", "--task", "flr", "--data", str(data_path),
               "--iters", "10", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error: line 2: bad feature value 'x'" in capsys.readouterr().err


def test_a_strongly_convex_regime_without_a_ridge_starts_no_pool(tmp_path, capsys,
                                                                 monkeypatch):
    # flr folds no ridge, so no strongly convex schedule exists for it; the
    # build makes the runs' schedule, so the error is one line in this
    # process before any worker starts
    monkeypatch.setenv("SPDPEG_THREADS", "2")
    pools = []

    def no_pool(*args, **kwargs):
        pools.append(kwargs)
        raise RuntimeError("a pool was started")

    monkeypatch.setattr(bench, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "o"
    rc = main(["run", "--task", "flr", "--regime", "sc-uniform", "--out", str(out)])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: regime 'sc-uniform' requires mu > 0, a folded ridge"
    assert pools == [] and not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_reports_power_iteration_error(tmp_path, capsys, monkeypatch, threads):
    # a file penalty gets its sigma_max by power iteration, and for the
    # first-difference matrix of d=300 that needs more than 10,000 steps;
    # with two workers too, the build and its error stay in this process
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


def test_verify_rates_small(tmp_path, capsys, pinned):
    out = tmp_path / "rates"
    rc = main(["verify-rates", "--regime", "convex", "--iters", "2000", "--seeds", "2",
               "--d", "8", "--n", "40", "--eval-every", "100", "--out", str(out)])
    assert rc == 0
    assert [p.name for p in out.iterdir()] == ["rates.json"]
    report = json.loads((out / "rates.json").read_text())
    assert report["convex"]["slope"] < 0.0
    pinned("rates/convex", sha256_of(out / "rates.json"))
    assert "slope=" in capsys.readouterr().out


def test_verify_rates_ordering_small(tmp_path, pinned):
    out = tmp_path / "rates"
    rc = main(["verify-rates", "--regime", "all", "--iters", "1500", "--seeds", "2",
               "--d", "8", "--n", "40", "--eval-every", "100", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "rates.json").read_text())
    assert "ordering" in report and "sc-nonuniform" in report
    pinned("rates/all", sha256_of(out / "rates.json"))


def test_verify_rates_orders_at_the_last_grid_point_below_10000(tmp_path, capsys):
    # 10,000 is no multiple of 300, so the ordering falls on 9,900
    out = tmp_path / "rates"
    rc = main(["verify-rates", "--iters", "20000", "--eval-every", "300", "--d", "8",
               "--n", "40", "--seeds", "1", "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "rates.json").read_text())["ordering"]["iteration"] == 9900
    assert "ordering at t=9900:" in capsys.readouterr().out


def test_verify_rates_reports_a_diverged_seed(tmp_path, capsys, monkeypatch):
    # a divergence stops the rate fit: one error line, no report
    monkeypatch.setenv("SPDPEG_THREADS", "1")
    monkeypatch.setitem(bench._SOLVER_FNS, "spdpeg", diverge_for_seed(1))
    out = tmp_path / "rates"
    rc = main(["verify-rates", "--regime", "convex", "--iters", "300",
               "--eval-every", "50", "--d", "8", "--n", "40", "--seeds", "2",
               "--out", str(out)])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: iterate diverged at iteration ")
    assert not out.exists()


def test_check_lemma1_cli(tmp_path, capsys, pinned):
    report_path = tmp_path / "lemma.json"
    rc = main([*LEMMA1_ARGV["both"], "--out", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "diverged" not in out
    reports = json.loads(report_path.read_text())
    assert {r["mode"] for r in reports} == {"deterministic", "stochastic"}
    assert all(r["min_relative_slack"] >= -1e-8 for r in reports)
    pinned("lemma1/both", sha256_of(report_path))


def test_check_lemma1_fails_below_the_slack_threshold(tmp_path, capsys,
                                                       monkeypatch):
    # a threshold above every measured slack makes the audit fail
    monkeypatch.setattr(bench, "SLACK_THRESHOLD", 1.0)
    report_path = tmp_path / "lemma.json"
    rc = main([*LEMMA1_ARGV["both"], "--out", str(report_path)])
    assert rc == 1
    captured = capsys.readouterr()
    worst = min(r["min_relative_slack"]
                for r in json.loads(report_path.read_text()))
    assert 0.0 < worst < 1.0
    assert captured.err.splitlines() == [
        f"FAIL: minimum relative slack {worst:.3e} < 1e+00"]
    assert "PASS" not in captured.out


def test_check_lemma1_flags_inflated_steps(tmp_path, capsys, pinned):
    report_path = tmp_path / "lemma.json"
    rc = main([*LEMMA1_ARGV["step-scale-100"], "--out", str(report_path)])
    out = capsys.readouterr().out
    assert rc == 0
    pinned("lemma1/step-scale-100", sha256_of(report_path))
    flagged = int(out.split("steps with a negative")[0].rsplit(";", 1)[1].strip())
    assert flagged >= 1
    assert ("stochastic: the run diverged at iteration 15; only the 15 "
            "completed steps before it were audited") in out


EMPTY_INPUTS = [
    (["verify-rates", "--seeds", "0", "--iters", "300", "--d", "8", "--n", "40"],
     "must be >= 1"),
    (["verify-rates", "--seeds", "-2", "--iters", "300", "--d", "8", "--n", "40"],
     "must be >= 1"),
    (["verify-rates", "--eval-every", "0", "--iters", "20000"], "must be >= 1"),
    (["check-lemma1", "--references", "0"], "must be >= 1"),
    (["check-lemma1", "--references", "-3"], "must be >= 1"),
    *((["check-lemma1", "--step-scale", scale], "step_scale must be finite and > 0")
      for scale in ("nan", "inf", "0", "-1")),
    # a fitted regime on a grid of fewer than three points from iteration 100
    *((["verify-rates", "--regime", regime, "--iters", iters, "--eval-every", every],
       f"a rate fit needs at least three trace points from iteration 100 on; "
       f"iters {iters} at eval_every {every} gives {points}")
      for regime, iters, every, points in (("all", "200", "100", 2),
                                           ("convex", "200", "100", 2),
                                           ("sc-nonuniform", "1000", "500", 2),
                                           ("convex", "99", "1", 0))),
]


@pytest.mark.parametrize("argv,message", EMPTY_INPUTS,
                         ids=[f"argv{i}" for i in range(len(EMPTY_INPUTS))])
def test_rate_and_lemma_commands_reject_empty_inputs(argv, message, capsys,
                                                     monkeypatch):
    # no seed, no trace grid (or one too short to fit), no reference point or
    # no step: one error line, and nothing built first
    builds = []
    monkeypatch.setattr(bench, "build_all", builds.append)
    assert main(argv) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and message in line
    assert builds == [] and "PASS" not in captured.out


REJECTED_INPUTS = [
    (["run", "--seeds", "0"], None),
    (["run", "--iters", "0", "--seeds", "1"], None),
    (["run", "--synthetic", "fused-signal:d=1,N=10"], None),
    (["verify-rates", "--seeds", "0"], None),
    # a non-finite value is named by its key, before any run
    *((["run", "--iters", "20", "--seeds", "1", option, value], key)
      for option, key in (("--gamma", "core.config.gamma"),
                          ("--feasible-radius", "core.problem.feasible_radius"))
      for value in ("nan", "inf")),
    (["run", "--task", "ggrlr", "--data", "{data}", "--iters", "20", "--seeds", "1",
      "--precision-ridge", "nan"], "core.penalty.ridge"),
    (["verify-rates", "--iters", "300", "--d", "8", "--n", "40", "--gamma", "nan"],
     "core.config.gamma"),
    (["check-lemma1", "--steps", "20", "--gamma", "nan"], "core.config.gamma"),
    # a negative synthetic seed, then a negative split seed (data seed + 1)
    (["run", "--data-seed", "-1", "--iters", "20", "--seeds", "1"], None),
    (["run", "--data-seed", "-2", "--iters", "20", "--seeds", "1"], None),
]


@pytest.mark.parametrize("argv,key", REJECTED_INPUTS,
                         ids=[f"argv{i}" for i in range(len(REJECTED_INPUTS))])
def test_rejected_input_leaves_no_output_directory(argv, key, tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text(serialize_libsvm(synthesize("fused-signal", 6, 30, 0.1, 0)[0]))
    out = tmp_path / "d"
    argv = [arg.format(data=data) for arg in argv]
    assert main(argv + ["--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    if key is not None:
        assert line.startswith(f"error: {key} must be a finite number, got ")
    assert not out.exists()


def test_an_instance_too_large_to_allocate_is_one_error_line(tmp_path, capsys,
                                                              monkeypatch):
    # numpy raises MemoryError (its _ArrayMemoryError) for an array it
    # cannot allocate; no test allocates one
    def too_large(kind, d, n, *args):
        raise MemoryError(f"Unable to allocate {d * n * 8 / 2 ** 40:.2f} TiB for an "
                          f"array with shape ({n}, {d}) and data type float64")

    monkeypatch.setattr(bench, "synthesize", too_large)
    out = tmp_path / "d"
    assert main(["run", "--synthetic", "fused-signal:d=1000000,N=1000000",
                 "--iters", "20", "--seeds", "1", "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == ("error: Unable to allocate 7.28 TiB for an array with shape "
                    "(1000000, 1000000) and data type float64")
    assert not out.exists()


def test_a_manifest_is_strict_json(tmp_path):
    # no bare NaN or Infinity, which strict JSON parsers reject; a value
    # that would need one fails the write and leaves no manifest
    out = tmp_path / "o"
    assert main(["run", "--synthetic", "fused-signal:d=6,N=30", "--iters", "20",
                 "--seeds", "1", "--out", str(out)]) == 0

    def no_constant(name):
        raise AssertionError(f"manifest holds {name}")

    json.loads((out / "manifest.json").read_text(), parse_constant=no_constant)
    with pytest.raises(ValueError, match="Out of range float values"):
        bench.write_manifest({"derived": {"L_tilde": float("nan")}}, tmp_path)
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--synthetic", "fused-signal:d=6,N=30", "--iters", "20"],
    ["run", "--from-manifest", "manifest.json"],
    ["verify-rates", "--iters", "300", "--d", "8", "--n", "40"],
])
def test_out_naming_a_file_fails_before_any_work(argv, tmp_path, capsys,
                                                 monkeypatch):
    calls = []
    for name in ("run_suite", "replay_manifest", "verify_rates"):
        monkeypatch.setattr(bench, name, lambda *a, name=name, **k: calls.append(name))
    out = tmp_path / "d"
    out.write_text("kept")
    assert main(argv + ["--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: --out {out} exists and is not a directory"
    assert calls == [] and out.read_text() == "kept"


@pytest.mark.parametrize("argv", [
    ["check-lemma1", "--d", "8", "--n", "40", "--steps", "20"],
    ["plotdata", "--in", "{tmp}/trace_*.csv"],
])
def test_a_file_out_naming_a_directory_fails_before_any_work(argv, tmp_path, capsys,
                                                             monkeypatch):
    calls = []
    for name in ("step_inequality_sweep", "write_plotdata"):
        monkeypatch.setattr(bench, name, lambda *a, name=name, **k: calls.append(name))
    (tmp_path / "trace_spdpeg_seed0.csv").write_text("")
    out = tmp_path / "d"
    out.mkdir()
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv + ["--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: --out {out} exists and is a directory"
    assert calls == [] and list(out.iterdir()) == []


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


def test_plotdata_pins_both_csvs(tmp_path, pinned):
    rc = main(["plotdata", "--in", os.path.join(REPLAY_TRACES, "trace_*.csv"),
               "--out", str(tmp_path / "plot.csv")])
    assert rc == 0
    for name in ("plot.csv", "plot_agg.csv"):
        pinned(f"plotdata/{name}", sha256_of(tmp_path / name))


def test_plotdata_names_the_file_and_line_of_a_bad_trace(tmp_path, capsys):
    traces = tmp_path / "traces"
    shutil.copytree(REPLAY_TRACES, traces)
    bad = traces / "trace_spdpeg_seed1.csv"
    lines = bad.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace("1,100,", "1,2x0,", 1)
    bad.write_text("".join(lines))
    out = tmp_path / "plot.csv"
    rc = main(["plotdata", "--in", str(traces / "trace_*.csv"), "--out", str(out)])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == (f"error: {bad} line 3: invalid literal for int() with "
                    "base 10: '2x0'")
    assert sorted(tmp_path.iterdir()) == [traces]


def test_plotdata_empty_glob(tmp_path, capsys):
    pattern = str(tmp_path / "none_*.csv")
    rc = main(["plotdata", "--in", pattern, "--out", str(tmp_path / "plot.csv")])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: no trace files match {pattern!r}"
    assert list(tmp_path.iterdir()) == []


def test_plotdata_checks_the_aggregate_path_before_any_work(tmp_path, capsys,
                                                            monkeypatch):
    read = []
    monkeypatch.setattr(bench, "read_trace_csv", read.append)
    agg = tmp_path / "plot_agg.csv"
    agg.mkdir()
    rc = main(["plotdata", "--in", os.path.join(REPLAY_TRACES, "trace_*.csv"),
               "--out", str(tmp_path / "plot.csv")])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: --out {agg} exists and is a directory"
    assert read == [] and list(tmp_path.iterdir()) == [agg]
    assert list(agg.iterdir()) == []


def test_plotdata_rejects_a_seed_that_two_files_hold(tmp_path, capsys):
    # two run directories that both hold spdpeg seed 0
    for run, seeds in (("runs1", (0,)), ("runs2", (0, 1))):
        (tmp_path / run).mkdir()
        for seed in seeds:
            name = f"trace_spdpeg_seed{seed}.csv"
            shutil.copy(os.path.join(REPLAY_TRACES, name), tmp_path / run)
    out = tmp_path / "plot.csv"
    rc = main(["plotdata", "--in", str(tmp_path / "runs*" / "trace_*.csv"),
               "--out", str(out)])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    first, second = (str(tmp_path / run / "trace_spdpeg_seed0.csv")
                     for run in ("runs1", "runs2"))
    assert line == (f"error: trace files {first!r} and {second!r} both hold "
                    "spdpeg seed 0")
    assert not out.exists() and not (tmp_path / "plot_agg.csv").exists()
