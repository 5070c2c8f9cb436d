import hashlib
import json
import math
import os

import numpy as np
import pytest

from conftest import diverge_for_seed, save_penalty, serialize_libsvm
from spdpeg import bench, sparse
from spdpeg.data import normalize_features
from spdpeg.model import Dataset, estimate_lipschitz
from spdpeg.solver import run as run_spdpeg
from spdpeg.sparse import SparseMatrix
from spdpeg.trace import TraceRecord, read_trace_csv, write_trace_csv


def small_core(**overrides):
    core = bench.rate_core("convex", d=8, n=40, iters=300, eval_every=100)
    core["config"].update(overrides)
    return core


def test_trace_csv_roundtrip(tmp_path):
    records = [TraceRecord(10, 0.125, 0.5, 0.4, 0.9, 1e-3, 0.2),
               TraceRecord(20, 0.25, 0.3333333333333333, 0.3, 1.0, 0.0, 0.31)]
    path = tmp_path / "trace_spdpeg_seed0.csv"
    write_trace_csv(path, records)
    assert read_trace_csv(path) == records
    with open(path, "rb") as fh:
        assert fh.read().startswith(b"schema_version,iteration,")


def test_trace_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "trace_spdpeg_seed0.csv"
    path.write_text("iteration,objective\n1,2.0\n")
    with pytest.raises(ValueError, match="header"):
        read_trace_csv(path)


def test_fit_rate_recovers_power_law():
    t = np.arange(50, 5001, 50)
    fit = bench.fit_rate(t, 3.0 * t ** -0.7, (100, None))
    assert fit.slope == pytest.approx(-0.7, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.window == (100, 5000)


def test_fit_rate_drops_nonpositive_and_reports_window():
    t = np.array([100, 200, 400, 800, 1600])
    vals = np.array([1.0, 0.5, -1.0, 0.25, 0.125])
    fit = bench.fit_rate(t, vals)
    assert fit.window == (100, 1600)
    with pytest.raises(ValueError, match="window"):
        bench.fit_rate(t, -np.ones(5))


def test_reference_optimum_cached(tmp_path):
    core = small_core()
    train, _, problem, _ = bench.build_all(core)
    cache = tmp_path / "cache.json"
    a = bench.reference_optimum(problem, train, 0.1, max_iters=50_000,
                                cache_path=cache)
    assert cache.exists()
    b = bench.reference_optimum(problem, train, 0.1, max_iters=50_000,
                                cache_path=cache)
    assert a.objective == b.objective and a.iterations == b.iterations
    np.testing.assert_array_equal(a.x, b.x)


def test_reference_cache_keeps_capped_runs_apart(tmp_path):
    train, _, problem, _ = bench.build_all(small_core())
    cache = tmp_path / "cache.json"
    capped = bench.reference_optimum(problem, train, 0.1, max_iters=5,
                                     cache_path=cache)
    assert (capped.iterations, capped.converged) == (5, False)
    full = bench.reference_optimum(problem, train, 0.1, cache_path=cache)
    assert full.converged and full.iterations > 5
    assert full.objective < capped.objective
    bench.reference_optimum(problem, train, 0.1, max_iters=5, check_every=1,
                            cache_path=cache)
    assert len(json.loads(cache.read_text())) == 3


def test_reference_cache_file_is_pinned(tmp_path):
    # two capped runs, one ending between checkpoints and one on a
    # checkpoint, a run of no iterations and a converged run; generated with
    # the implementation that evaluated every final iterate again
    train, _, problem, _ = bench.build_all(small_core())
    cache = tmp_path / "cache.json"
    for max_iters, check_every in ((50, 20), (40, 20), (0, 20), (100_000, 500)):
        bench.reference_optimum(problem, train, 0.1, max_iters=max_iters,
                                check_every=check_every, tol=1e-6,
                                cache_path=cache)
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == \
        "c99d45e62f663d0e3974c3d9ddd17a0206630e772c2ed6e8cd018389f587d1d2"


def _count_calls(monkeypatch, owner, name, *aliases):
    """Count the calls of ``owner.name``, also through the modules in
    ``aliases`` that may have imported it by name."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for ns in (owner, *aliases):
        monkeypatch.setattr(ns, name, counted, raising=False)
    return calls


def test_uncached_reference_redoes_no_dataset_work(monkeypatch):
    matrix_hashes = _count_calls(monkeypatch, SparseMatrix, "fingerprint")
    dataset_hashes = _count_calls(monkeypatch, Dataset, "fingerprint")
    norms = _count_calls(monkeypatch, Dataset, "row_norms_sq")
    powers = _count_calls(monkeypatch, sparse, "power_iteration_sigma_max", bench)
    core = small_core()
    core["data"].update(split=True, split_seed=3)
    train, _, problem, derived = bench.build_all(core)
    ref = bench.reference_optimum(problem, train, 0.1, max_iters=5)
    assert (len(matrix_hashes), len(dataset_hashes), len(norms),
            len(powers)) == (0, 0, 1, 1)
    # the constants the reference steps with are the ones build_all derived
    assert bench.derive_constants(problem, train, 0.1, "convex") == derived
    assert (len(norms), len(powers)) == (1, 1)
    assert ref.iterations == 5


@pytest.mark.parametrize("max_iters, evaluations", [(5, 1), (7, 2), (10, 2), (0, 1)])
def test_reference_evaluates_each_iterate_once(monkeypatch, max_iters, evaluations):
    train, _, problem, _ = bench.build_all(small_core())
    calls = _count_calls(monkeypatch, bench, "objective_value")
    bench.reference_optimum(problem, train, 0.1, max_iters=max_iters,
                            check_every=5)
    assert len(calls) == evaluations


def test_normalized_dataset_gets_its_own_lipschitz_constant():
    train, _, _, _ = bench.build_all(small_core())
    before = estimate_lipschitz(train, "logistic")
    scaled, _ = normalize_features(train)
    after = estimate_lipschitz(scaled, "logistic")
    assert before == 0.25 * float(train.row_norms_sq().max())
    assert after == 0.25 * float(scaled.row_norms_sq().max())
    assert after != before
    assert estimate_lipschitz(train, "least-squares") == 4.0 * before


def test_reference_optimum_stays_in_feasible_ball():
    core = small_core()
    train, _, problem, _ = bench.build_all(core)
    free = bench.reference_optimum(problem, train, 0.1, max_iters=4000,
                                   check_every=500)
    radius = 0.5 * float(np.linalg.norm(free.x))
    core["problem"]["feasible_radius"] = radius
    train, _, ball, _ = bench.build_all(core)
    ref = bench.reference_optimum(ball, train, 0.1, max_iters=4000,
                                  check_every=500)
    assert np.linalg.norm(ref.x) <= radius * (1 + 1e-12)
    # the constrained optimum costs more, but beats the shrunk free optimum
    assert ref.objective > free.objective
    assert ref.objective <= bench.objective_value(ball, train, 0.5 * free.x)


def test_reference_matches_convex_solver():
    cvxpy = pytest.importorskip("cvxpy")
    core = small_core()
    train, _, problem, _ = bench.build_all(core)
    ref = bench.reference_optimum(problem, train, 0.1)
    A = np.zeros((train.n_samples, train.dimension))
    A[train.row_ids, train.indices] = train.data
    L = problem.penalty.to_dense()
    x = cvxpy.Variable(train.dimension)
    margins = cvxpy.multiply(train.labels, A @ x)
    objective = (cvxpy.sum(cvxpy.logistic(-margins)) / train.n_samples
                 + problem.r1.weight * cvxpy.norm1(x)
                 + problem.r2.weight * cvxpy.norm1(L @ x))
    cp_problem = cvxpy.Problem(cvxpy.Minimize(objective))
    cp_problem.solve()
    assert ref.objective == pytest.approx(cp_problem.value, abs=1e-6)
    assert ref.objective >= cp_problem.value - 1e-9


def test_build_data_split_deterministic():
    cfg = {"synthetic": {"kind": "fused-signal", "d": 6, "n": 30, "noise": 0.1,
                         "seed": 4}, "split": True, "train_fraction": 0.8,
           "split_seed": 9}
    train_a, test_a, _ = bench.build_data(cfg)
    train_b, test_b, _ = bench.build_data(cfg)
    assert train_a.n_samples == 24 and test_a.n_samples == 6
    np.testing.assert_array_equal(train_a.data, train_b.data)
    np.testing.assert_array_equal(test_a.labels, test_b.labels)


def test_build_data_checks_a_split_dataset_once(monkeypatch, tmp_path):
    # checked once per build, never per split: dense rows are checked
    # finite where they are synthesized and build no CSR matrix; parsed
    # rows get one CSR check of the whole file
    data = {**small_core()["data"], "split": True, "split_seed": 3}
    path = tmp_path / "core.svm"
    path.write_text(serialize_libsvm(bench.build_data({**data, "split": False})[0]))
    csr_sizes, finite_sizes = [], []
    check, isfinite = SparseMatrix.__post_init__, np.isfinite

    def counted_check(self):
        csr_sizes.append(self.n_rows)
        check(self)

    def counted_isfinite(a, *args, **kwargs):
        finite_sizes.append(np.size(a))
        return isfinite(a, *args, **kwargs)

    monkeypatch.setattr(SparseMatrix, "__post_init__", counted_check)
    monkeypatch.setattr(np, "isfinite", counted_isfinite)
    train, test, _ = bench.build_data(data)
    assert (csr_sizes, finite_sizes) == ([], [40 * 8])
    assert (train.n_samples, test.n_samples) == (32, 8)
    csr_sizes.clear()
    train, test, _ = bench.build_data({"path": str(path), "split": True,
                                       "split_seed": 3})
    assert csr_sizes == [40]
    assert (train.n_samples, test.n_samples) == (32, 8)


def test_build_data_checks_a_normalized_file_once(monkeypatch, tmp_path):
    # the parser checks the file's matrix; scaling its values into [-1, 1]
    # keeps that structure and needs no second check
    path = tmp_path / "core.svm"
    path.write_text(serialize_libsvm(bench.build_data(small_core()["data"])[0]))
    raw, _, _ = bench.build_data({"path": str(path)})
    csr_sizes = []
    check = SparseMatrix.__post_init__

    def counted_check(self):
        csr_sizes.append(self.n_rows)
        check(self)

    monkeypatch.setattr(SparseMatrix, "__post_init__", counted_check)
    train, _, _ = bench.build_data({"path": str(path), "normalize": True})
    assert csr_sizes == [40]
    scaled, _ = normalize_features(raw)
    checked = SparseMatrix(raw.n_samples, raw.dimension, raw.indptr,
                           raw.indices, scaled.data)
    for name in ("row_offsets", "col_indices", "values", "row_ids"):
        np.testing.assert_array_equal(getattr(train.features, name),
                                      getattr(checked, name))
    assert train.full_rows and Dataset(checked, train.labels).full_rows


def count_builds(monkeypatch, log):
    """Append each ``bench.build_all`` call's regime to the file ``log``,
    also from worker processes; return a reader of the calls so far."""
    build_all = bench.build_all

    def counted(core):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(core["config"]["regime"] + "\n")
        return build_all(core)

    monkeypatch.setattr(bench, "build_all", counted)
    return lambda: log.read_text().split() if log.exists() else []


def test_verify_rates_builds_each_core_once(monkeypatch, tmp_path):
    calls = count_builds(monkeypatch, tmp_path / "builds")
    bench.verify_rates(iters=1000, seeds=5, d=8, n=40)
    # one build per family serves its reference and every seed; the
    # uniform ordering runs reuse the sc build
    assert calls() == ["convex", "sc-nonuniform"]


def test_timing_scaling_builds_each_n_once(monkeypatch):
    build_all, built = bench.build_all, []

    def counted(core):
        built.append(core["data"]["synthetic"]["n"])
        return build_all(core)

    monkeypatch.setattr(bench, "build_all", counted)
    report = bench.timing_scaling(ns=(100, 300), d=5, iters_stochastic=50,
                                  iters_full=5)
    # the spdpeg and eg-full runs of one n share its build
    assert built == [100, 300]
    assert list(report["spdpeg"]) == list(report["eg-full"]) == [100, 300]


@pytest.mark.parametrize("threads", [1, 2])
def test_run_suite_and_replay_build_the_core_once(tmp_path, monkeypatch,
                                                  threads):
    monkeypatch.setenv("SPDPEG_THREADS", str(threads))
    calls = count_builds(monkeypatch, tmp_path / "builds")
    out = tmp_path / "out"
    manifest = bench.run_suite(small_core(), bench.SOLVERS, range(5), out)
    # one build per worker process, and with one worker none in the pool
    assert len(manifest["runs"]) == 15 and 1 <= len(calls()) <= threads
    (tmp_path / "builds").unlink()
    written = bench.replay_manifest(bench.write_manifest(manifest, out),
                                    tmp_path / "replay")
    assert len(written) == 15 and len(calls()) == 1


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_suite_keeps_finished_runs_when_one_diverges(tmp_path, monkeypatch,
                                                         threads):
    monkeypatch.setenv("SPDPEG_THREADS", threads)
    monkeypatch.setitem(bench._SOLVER_FNS, "spdpeg", diverge_for_seed(1))
    core = small_core()
    out = tmp_path / "out"
    manifest = bench.run_suite(core, ("spdpeg", "slinadmm"), [0, 1], out)
    mpath = bench.write_manifest(manifest, out)
    diverged = manifest["runs"][1]
    assert set(diverged) == {"solver", "seed", "diverged_at", "error"}
    assert (diverged["solver"], diverged["seed"]) == ("spdpeg", 1)
    assert diverged["diverged_at"] > 0
    assert f"iteration {diverged['diverged_at']}" in diverged["error"]
    finished = [e for e in manifest["runs"] if e is not diverged]
    assert sorted(p.name for p in out.glob("trace_*.csv")) == sorted(
        e["trace_file"] for e in finished)
    # finished runs keep their entries: as in a suite that never diverged
    clean = bench.run_suite(core, ("spdpeg", "slinadmm"), [0], tmp_path / "c")
    for a, b in zip(clean["runs"], finished[:2]):
        assert {**a, "wall_seconds": None} == {**b, "wall_seconds": None}
    written = bench.replay_manifest(mpath, tmp_path / "replay")
    assert [os.path.basename(p) for p in written] == [
        e["trace_file"] for e in finished]
    # without the divergent step the run finishes, which is a drift
    monkeypatch.setitem(bench._SOLVER_FNS, "spdpeg", run_spdpeg)
    with pytest.raises(ValueError, match="spdpeg seed 1 drifted"):
        bench.replay_manifest(mpath, tmp_path / "replay2")


def test_build_penalty_sources(tmp_path):
    cfg = {"synthetic": {"kind": "graph-logistic", "d": 6, "n": 30, "noise": 0.1,
                         "seed": 4}}
    train, _, graph = bench.build_data(cfg)
    fused = bench.build_penalty({"source": "fused"}, train, graph)
    assert fused.shape == (5, 6)
    gm = bench.build_penalty({"source": "synthetic-graph"}, train, graph)
    assert gm.shape == (len(graph.edges), 6)
    with pytest.raises(ValueError, match="synthetic graph"):
        bench.build_penalty({"source": "synthetic-graph"}, train, None)
    pm = bench.build_penalty({"source": "precision", "ridge": 0.1,
                              "threshold": 1e-4}, train, None)
    assert pm.n_cols == 6
    path = tmp_path / "pen.txt"
    save_penalty(path, fused)
    fm = bench.build_penalty({"source": "file", "path": str(path)}, train, None)
    np.testing.assert_array_equal(fm.to_dense(), fused.to_dense())


def test_build_problem_ggrlr_folds_quadratic():
    core = bench.rate_core("sc", d=6, n=30, iters=10)
    train, _, problem, derived = bench.build_all(core)
    assert problem.r1.kind == "none"
    assert problem.ridge == problem.strong_convexity_mu == 1e-2
    assert derived["lipschitz_L"] == pytest.approx(
        derived["lipschitz_data"] + 1e-2)


def test_run_suite_and_manifest_replay(tmp_path):
    core = small_core()
    out = tmp_path / "out"
    manifest = bench.run_suite(core, ("spdpeg", "slinadmm"), [0, 1], out)
    mpath = bench.write_manifest(manifest, out)
    originals = {e["trace_file"]: (out / e["trace_file"]).read_bytes()
                 for e in manifest["runs"]}
    assert len(originals) == 4
    replay_dir = tmp_path / "replay"
    written = bench.replay_manifest(mpath, replay_dir)
    assert len(written) == 4
    for entry in manifest["runs"]:
        assert (replay_dir / entry["trace_file"]).read_bytes() \
            == originals[entry["trace_file"]]


def test_replay_detects_drift(tmp_path):
    core = small_core()
    out = tmp_path / "out"
    manifest = bench.run_suite(core, ("spdpeg",), [0], out)
    manifest["runs"][0]["final_objective"] += 1e-3
    mpath = bench.write_manifest(manifest, out)
    with pytest.raises(ValueError, match="drifted"):
        bench.replay_manifest(mpath, tmp_path / "replay")


def test_replay_detects_derived_mismatch(tmp_path):
    core = small_core()
    out = tmp_path / "out"
    manifest = bench.run_suite(core, ("spdpeg",), [0], out)
    manifest["derived"]["L_tilde"] *= 2.0
    mpath = bench.write_manifest(manifest, out)
    with pytest.raises(ValueError, match="L_tilde"):
        bench.replay_manifest(mpath, tmp_path / "replay")


def test_manifest_records_everything_needed(tmp_path):
    core = small_core()
    manifest = bench.run_suite(core, ("spdpeg",), [3], tmp_path)
    assert manifest["core"]["config"]["gamma"] == 0.1
    for key in ("lipschitz_data", "lipschitz_L", "sigma_max_FtF", "L_tilde"):
        assert key in manifest["derived"]
    entry = manifest["runs"][0]
    assert entry["seed"] == 3
    assert len(entry["wall_seconds"]) == len(
        read_trace_csv(tmp_path / entry["trace_file"]))


def test_final_objective_consistent_with_averages(tmp_path):
    core = small_core()
    manifest = bench.run_suite(core, ("spdpeg",), [0], tmp_path)
    entry = manifest["runs"][0]
    train, _, problem, _ = bench.build_all(core)
    recomputed = bench.objective_value(problem, train,
                                       np.asarray(entry["final_x_avg"]))
    assert abs(recomputed - entry["final_objective"]) <= 1e-10


def test_aggregate_traces_mean_and_stderr(tmp_path):
    recs = {0: [TraceRecord(5, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0)],
            1: [TraceRecord(5, 0.0, 3.0, 0.0, 1.0, 0.0, 0.0)]}
    paths = []
    for seed, rec in recs.items():
        p = tmp_path / f"trace_spdpeg_seed{seed}.csv"
        write_trace_csv(p, rec)
        paths.append(p)
    long_rows, agg_rows = bench.aggregate_traces(bench.collect_trace_files(paths))
    obj = [r for r in agg_rows if r[1] == "objective"]
    assert obj[0][3] == pytest.approx(2.0)
    assert obj[0][4] == pytest.approx(np.std([1.0, 3.0], ddof=1) / math.sqrt(2))
    assert obj[0][5] == 2
    single_long, single_agg = bench.aggregate_traces(
        bench.collect_trace_files(paths[:1]))
    assert all(r[4] == 0.0 for r in single_agg)


def test_aggregate_traces_groups_by_solver(tmp_path):
    for solver in ("spdpeg", "eg-full"):
        write_trace_csv(tmp_path / f"trace_{solver}_seed0.csv",
                        [TraceRecord(5, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0)])
    _, agg = bench.aggregate_traces(
        bench.collect_trace_files(tmp_path.glob("trace_*.csv")))
    assert {r[0] for r in agg} == {"spdpeg", "eg-full"}


def test_collect_rejects_foreign_filenames(tmp_path):
    p = tmp_path / "results.csv"
    p.write_text("x\n")
    with pytest.raises(ValueError, match="does not follow"):
        bench.collect_trace_files([p])


def test_step_inequality_sweep_small():
    rep = bench.step_inequality_sweep(d=8, n=40, steps=60, n_references=3,
                                      mode="stochastic", seed=1)
    assert rep["passed"] and rep["min_relative_slack"] >= -1e-8
    det = bench.step_inequality_sweep(d=8, n=40, steps=30, n_references=2,
                                      mode="deterministic", seed=1)
    assert det["passed"]
    with pytest.raises(ValueError, match="small instances"):
        bench.step_inequality_sweep(d=200, n=50, steps=10)


def test_step_inequality_sweep_flags_inflated_steps():
    rep = bench.step_inequality_sweep(d=8, n=40, steps=30, n_references=2,
                                      seed=1, step_scale=100.0)
    assert rep["coefficient_negative_steps"] >= 1
    # the run diverges part-way; the steps before it are still audited
    assert rep["diverged_at"] is not None
    assert rep["steps"] == rep["diverged_at"] > 0


def test_max_workers_env(monkeypatch):
    monkeypatch.delenv("SPDPEG_THREADS", raising=False)
    assert bench.max_workers(8) == 1
    monkeypatch.setenv("SPDPEG_THREADS", "4")
    assert bench.max_workers(8) == 4
    assert bench.max_workers(2) == 2
    monkeypatch.setenv("SPDPEG_THREADS", "junk")
    assert bench.max_workers(8) == 1


def test_run_suite_parallel_matches_serial(tmp_path, monkeypatch):
    core = small_core()
    serial_dir = tmp_path / "serial"
    monkeypatch.setenv("SPDPEG_THREADS", "1")
    serial = bench.run_suite(core, ("spdpeg",), [0, 1], serial_dir)
    parallel_dir = tmp_path / "parallel"
    monkeypatch.setenv("SPDPEG_THREADS", "2")
    parallel = bench.run_suite(core, ("spdpeg",), [0, 1], parallel_dir)
    for a, b in zip(serial["runs"], parallel["runs"]):
        assert a["final_objective"] == b["final_objective"]
        assert a["final_x_avg"] == b["final_x_avg"]
