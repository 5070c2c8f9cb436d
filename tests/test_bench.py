import hashlib
import inspect
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (count_calls, diverge_for_seed, fingerprint, save_penalty,
                      serialize_libsvm, sparse_from_dense)
from spdpeg import bench, oracles, prox, solver, sparse
from spdpeg.data import ParseError, normalize_features
from spdpeg.model import Dataset, Problem, estimate_lipschitz
from spdpeg.penalties import GraphSpec, build_fused_matrix, build_graph_matrix
from spdpeg.prox import ProxSpec, prox_tv
from spdpeg.solver import run as run_spdpeg
from spdpeg.sparse import SparseMatrix
from spdpeg.trace import TRACE_COLUMNS, TraceRecord, read_trace_csv, write_trace_csv


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


TRACE_HEAD = ",".join(TRACE_COLUMNS) + "\n" + "1,10,0.125,0.5,0.4,0.9,0.001,0.2\n"


@pytest.mark.parametrize("text, line, message", [
    ("", 1, "unexpected trace header"),
    ("iteration,objective\n1,2.0\n", 1, "unexpected trace header"),
    (TRACE_HEAD + "1,20,0.25,0.5\n", 3,
     "malformed trace row ['1', '20', '0.25', '0.5']"),
    (TRACE_HEAD + "1,2x0,0.25,0.5,0.4,0.9,0.001,0.2\n", 3,
     "invalid literal for int() with base 10: '2x0'"),
    (TRACE_HEAD.replace("0.4,", "0.4.1,"), 2,
     "could not convert string to float: '0.4.1'"),
    (TRACE_HEAD + "2,20,0.25,0.5,0.4,0.9,0.001,0.2\n", 3,
     "unsupported trace schema version 2")],
    ids=["empty", "header", "short-row", "iteration", "float", "schema"])
def test_trace_csv_errors_name_the_file_and_line(tmp_path, text, line, message):
    path = tmp_path / "trace_spdpeg_seed0.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_trace_csv(path)
    assert str(exc.value) == f"{path} line {line}: {message}"


def test_fit_rate_recovers_power_law():
    t = np.arange(50, 5001, 50)
    fit = bench.fit_rate(t, 3.0 * t ** -0.7)
    assert fit["slope"] == pytest.approx(-0.7, abs=1e-9)
    assert fit["r_squared"] == pytest.approx(1.0)
    assert fit["window"] == (100, 5000)


def test_fit_rate_drops_nonpositive_and_reports_window():
    t = np.array([100, 200, 400, 800, 1600])
    vals = np.array([1.0, 0.5, -1.0, 0.25, 0.125])
    fit = bench.fit_rate(t, vals)
    assert fit["window"] == (100, 1600)
    with pytest.raises(ValueError, match="window"):
        bench.fit_rate(t, -np.ones(5))


def test_fit_rate_states_its_rule():
    # three positive, finite values, but only two from iteration 100 on
    with pytest.raises(ValueError, match="at least three trace points from "
                       "iteration 100 on, each with a positive, finite value; got 2"):
        bench.fit_rate([50, 100, 200], [1.0, 0.5, 0.25])


CAPPED_REFERENCES_DIGEST = \
    "75b0371b45bac00975a10e838eec08bc522b40bb34af0b338156d0e17d44e7a2"
FLOOR_CERTIFICATES = {"convex": (350, "0x1.48beaced9eb4fp-41"),
                      "sc": (150, "0x1.9113e51a4c6f3p-44")}


def capped_references():
    """Two capped runs, one ending between checkpoints and one on a
    checkpoint, a run of no iterations and a converged run, on the small
    core: their sha256 over (objective, iterations, converged) and x, the
    references, and the build."""
    train, _, problem, _ = bench.build_all(small_core())
    h = hashlib.sha256()
    capped = []
    for max_iters, check_every in ((50, 20), (40, 20), (0, 20), (100_000, 500)):
        ref = bench.reference_optimum(problem, train, 0.1, max_iters=max_iters,
                                      check_every=check_every, tol=1e-6)
        h.update(repr((ref.objective, ref.iterations, ref.converged)).encode())
        h.update(ref.x.tobytes())
        capped.append(ref)
    return h.hexdigest(), capped, (train, problem)


def floor_reference(family):
    """The uncapped reference at tol 0 on the d=8 core of a family: no gap
    is small enough, so it stops on its floor, a gap no lower than two
    checks before."""
    core = small_core() if family == "convex" else bench.rate_core("sc", d=8, n=40)
    train, _, problem, _ = bench.build_all(core)
    return bench.reference_optimum(problem, train, core["config"]["gamma"], tol=0.0)


def test_capped_references_are_pinned():
    digest, capped, (train, problem) = capped_references()
    assert all(ref.certified_gap is None for ref in capped)
    assert digest == CAPPED_REFERENCES_DIGEST
    assert [(r.iterations, r.converged) for r in capped] == \
        [(50, False), (40, False), (0, False), (15_000, True)]
    full = bench.reference_optimum(problem, train, 0.1)
    assert full.converged and full.certified_gap is not None
    assert full.objective < min(r.objective for r in capped)


@pytest.mark.parametrize("family", sorted(FLOOR_CERTIFICATES))
def test_fista_stops_once_its_gap_stops_falling(monkeypatch, family):
    steps = count_calls(monkeypatch, oracles, "_gradient_over_rows")
    ref = floor_reference(family)
    iterations, certificate = FLOOR_CERTIFICATES[family]
    assert len(steps) == ref.iterations == iterations
    assert ref.converged
    assert ref.certified_gap.hex() == certificate


def test_uncached_reference_redoes_no_dataset_work(monkeypatch):
    norms = count_calls(monkeypatch, Dataset, "row_norms_sq")
    powers = count_calls(monkeypatch, sparse, "power_iteration_sigma_max", bench)
    core = small_core()
    core["data"].update(split=True, split_seed=3)
    train, _, problem, derived = bench.build_all(core)
    ref = bench.reference_optimum(problem, train, 0.1, max_iters=5)
    # the fused penalty's sigma_max is set in closed form when it is built
    assert (len(norms), len(powers)) == (1, 0)
    # the data constants the reference steps with are the ones build_all
    # derived
    data = bench.derive_constants(problem, train)
    assert data == {key: derived[key] for key in data}
    assert (len(norms), len(powers)) == (1, 0)
    assert (ref.iterations, ref.converged, ref.certified_gap) == (5, False, None)


def split_sc_core():
    core = bench.rate_core("sc", d=8, n=40, iters=20, eval_every=10)
    core["data"].update(split=True, split_seed=3)
    return core


@pytest.mark.parametrize("core", [
    bench.rate_core("convex", d=8, n=40, iters=20, eval_every=10),
    bench.rate_core("sc", d=8, n=40, iters=20, eval_every=10), split_sc_core()],
    ids=["convex", "sc", "split-sc"])
def test_the_manifest_L_tilde_is_the_runs_L_tilde(monkeypatch, core):
    built = bench.build_all(core)
    _, _, problem, derived = built
    seeds = range(4)
    for seed in seeds:
        config = bench.make_config(core, derived, seed)
        assert solver.make_schedule(problem, config).L_tilde == derived["L_tilde"]
    # and each run steps with that schedule
    make_schedule, schedules = solver.make_schedule, []

    def recorded(problem, config):
        schedules.append(make_schedule(problem, config))
        return schedules[-1]

    monkeypatch.setattr(solver, "make_schedule", recorded)
    bench.run_jobs(core, built, [("spdpeg", seed) for seed in seeds])
    assert [s.L_tilde for s in schedules] == [derived["L_tilde"]] * len(seeds)


@pytest.mark.parametrize("max_iters, evaluations", [(5, 1), (7, 2), (10, 2), (0, 1)])
def test_reference_evaluates_each_iterate_once(monkeypatch, max_iters, evaluations):
    train, _, problem, _ = bench.build_all(small_core())
    calls = count_calls(monkeypatch, bench, "objective_value")
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


def test_reference_certifies_itself():
    # runs where the cvxpy cross-check above is skipped, on its instance
    train, _, problem, _ = bench.build_all(small_core())
    ref = bench.reference_optimum(problem, train, 0.1)
    assert ref.converged
    assert ref.certified_gap <= 1e-10 * max(1.0, abs(ref.objective))
    assert bench.objective_value(problem, train, ref.x) == ref.objective


def tv_dual(problem, dataset, x):
    """The dual point of r2 that one prox-gradient step from x gives on a
    fused penalty, as the FISTA reference takes it."""
    step = 1.0 / bench._smooth_lipschitz(problem, dataset)
    v = x - step * oracles.full_gradient(problem, dataset, x)
    return np.cumsum(v - prox_tv(v, step * problem.r2.weight))[:-1] / step


def tiny_problem(loss, r1, ridge=0.0, radius=None, fused=True):
    rng = np.random.default_rng(11)
    n, d = 30, 6
    dataset = Dataset.from_dense_rows(rng.standard_normal((n, d)),
                                      np.where(rng.random(n) < 0.5, 1.0, -1.0))
    penalty = (build_fused_matrix(d) if fused else build_graph_matrix(
        GraphSpec(((0, 2, 1.0), (1, 3, -0.5), (2, 5, 2.0), (3, 4, 1.0)), d)))
    return Problem(loss, ProxSpec(*r1), ProxSpec("l1", 0.05), penalty,
                   ridge=ridge, feasible_radius=radius), dataset


GAP_CASES = {
    "logistic-l1": dict(loss="logistic", r1=("l1", 0.02)),
    "least-squares-l1": dict(loss="least-squares", r1=("l1", 0.02)),
    "logistic-ridge": dict(loss="logistic", r1=("none", 0.0), ridge=0.05),
    "least-squares-ridge-graph": dict(loss="least-squares", r1=("none", 0.0),
                                      ridge=0.05, fused=False),
    "logistic-l1-ball": dict(loss="logistic", r1=("l1", 0.02), radius=0.03),
    "logistic-none-ball": dict(loss="logistic", r1=("none", 0.0), radius=0.03),
    "logistic-l1-ridge-ball": dict(loss="logistic", r1=("l1", 0.02),
                                   ridge=0.05, radius=0.03),
    "least-squares-squared-l2": dict(loss="least-squares",
                                     r1=("squared-l2", 0.1)),
}


@pytest.mark.parametrize("case", GAP_CASES)
def test_duality_gap_bounds_the_suboptimality(case):
    problem, dataset = tiny_problem(**GAP_CASES[case])
    ref = bench.reference_optimum(problem, dataset, 0.1)
    assert ref.converged and ref.certified_gap <= 1e-10
    # f* from a long extragradient run; the gap must cover f(x) - f* for
    # any x and any nu, including points close to the optimum
    long = bench.reference_optimum(problem, dataset, 0.1, max_iters=30_000,
                                   check_every=1000, tol=0.0)
    f_star = min(long.objective, ref.objective)
    assert ref.certified_gap >= ref.objective - f_star
    rng = np.random.default_rng(5)
    d, l = dataset.dimension, problem.penalty.n_rows
    points = [np.zeros(d), long.x, ref.x]
    points += [ref.x + s * rng.standard_normal(d) for s in (1e-8, 1e-4, 1e-1, 1.0)]
    if problem.feasible_radius is not None:
        points = [p * min(1.0, problem.feasible_radius / np.linalg.norm(p))
                  if p.any() else p for p in points]
    for x in points:
        duals = [np.zeros(l), rng.standard_normal(l), 0.05 * rng.standard_normal(l)]
        if bench._is_fused(problem.penalty):
            nu = tv_dual(problem, dataset, x)
            duals += [nu, 2.0 * nu]
        for nu in duals:
            gap = oracles.duality_gap(problem, dataset, x, nu)
            assert gap >= bench.objective_value(problem, dataset, x) - f_star
            # nu is taken clipped into r2's box
            box = problem.r2.weight
            assert gap == oracles.duality_gap(problem, dataset, x,
                                              np.clip(nu, -box, box))


def dual_prox_gap(problem, dataset, x):
    """The duality gap at x with the dual point of r2 that one
    ``prox_dual`` call from 0 gives after a prox-gradient step from x."""
    kern = solver.kernels(problem)
    step = 1.0 / bench._smooth_lipschitz(problem, dataset)
    v = x - step * oracles.full_gradient(problem, dataset, x)
    _, nu = prox.prox_dual(kern.prox_r1, kern.F, kern.Ft,
                           problem.penalty.sigma_max_FtF, v, step,
                           problem.r2.weight, np.zeros(problem.penalty.n_rows))
    return oracles.duality_gap(problem, dataset, x, nu / step)


def reference_instances():
    """(fused, graph, ball) problems with their training sets: the small
    fused core, the sc core at its size, and the fused core in a ball of
    half the radius of its optimum (about 13.3)."""
    train, _, problem, _ = bench.build_all(small_core())
    graph_train, _, graph, _ = bench.build_all(
        bench.rate_core("sc", d=8, n=40, iters=300, eval_every=100))
    return {"fused": (problem, train), "graph": (graph, graph_train),
            "ball": (replace(problem, feasible_radius=6.6), train)}


def test_fista_and_extragradient_references_agree():
    for name, (problem, train) in reference_instances().items():
        fista = bench.reference_optimum(problem, train, 0.1)
        eg = bench.reference_optimum(problem, train, 0.1, max_iters=30_000,
                                     check_every=1000, tol=0.0)
        eg_gap = (oracles.duality_gap(problem, train, eg.x,
                                      tv_dual(problem, train, eg.x))
                  if name == "fused" else dual_prox_gap(problem, train, eg.x))
        assert abs(fista.objective - eg.objective) <= fista.certified_gap + eg_gap, name
        # f* is at most eg.objective, so FISTA's certificate alone covers it
        assert fista.objective <= eg.objective + fista.certified_gap, name
        if name == "fused":
            free = fista.objective
        if name == "ball":  # and the ball binds
            assert np.linalg.norm(fista.x) <= 6.6 * (1 + 1e-12)
            assert fista.objective > free


def test_duality_gap_checks_its_inputs():
    problem, dataset = tiny_problem("logistic", ("l1", 0.02))
    with pytest.raises(ValueError, match="x must have length 6"):
        oracles.duality_gap(problem, dataset, np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError, match="nu must have length 5"):
        oracles.duality_gap(problem, dataset, np.zeros(6), np.zeros(6))


def test_the_solver_dual_point_is_minus_its_lambda():
    # seed 0 of the sc rate core at d=8, n=40 for 2,000 iterations: the z
    # block gives -lambda in the subdifferential of r2 at z, so -lambda_avg
    # is the run's dual point of r2; +lambda_avg certifies less tightly
    core = bench.rate_core("sc", d=8, n=40, iters=2000, eval_every=2000)
    train, _, problem, derived = bench.build_all(core)
    res = run_spdpeg(problem, train, bench.make_config(core, derived, 0))
    ref = bench.reference_optimum(problem, train, core["config"]["gamma"])
    x = res.x_avg
    minus = oracles.duality_gap(problem, train, x, -res.lambda_avg)
    assert minus >= bench.objective_value(problem, train, x) - ref.objective
    assert minus < oracles.duality_gap(problem, train, x, res.lambda_avg)


def test_only_a_fused_penalty_is_fused():
    assert bench._is_fused(build_fused_matrix(5))
    assert bench._is_fused(sparse_from_dense(build_fused_matrix(5).to_dense()))
    assert not bench._is_fused(sparse_from_dense(-build_fused_matrix(5).to_dense()))
    assert not bench._is_fused(tiny_problem("logistic", ("l1", 0.0),
                                           fused=False)[0].penalty)
    assert not bench._is_fused(SparseMatrix(0, 1, [0], [], []))


@pytest.mark.parametrize("penalty", ["fused", "graph", "ball", "empty"])
def test_uncapped_reference_runs_fista_only(monkeypatch, penalty):
    instances = reference_instances()
    problem, train = instances["fused" if penalty == "empty" else penalty]
    if penalty == "empty":
        problem = replace(problem, penalty=SparseMatrix(3, 8, [0, 0, 0, 0], [], []))
    steps = count_calls(monkeypatch, solver, "update_extragradient", bench)
    fista = count_calls(monkeypatch, bench, "_fista_reference")
    tv_steps = count_calls(monkeypatch, prox, "prox_tv")
    dual_steps = count_calls(monkeypatch, prox, "prox_dual", bench)
    ref = bench.reference_optimum(problem, train, 0.1)
    # the exact TV prox for a fused penalty with no ball, else the dual prox
    prox_steps = ((ref.iterations, 0) if penalty == "fused"
                  else (0, ref.iterations))
    assert len(steps) == 0 and len(fista) == 1
    assert (len(tv_steps), len(dual_steps)) == prox_steps
    # a capped call runs the extragradient loop, whatever the penalty
    capped = bench.reference_optimum(problem, train, 0.1, max_iters=300,
                                     check_every=100)
    assert len(steps) == 300 and len(fista) == 1
    assert (len(tv_steps), len(dual_steps)) == prox_steps
    assert capped.certified_gap is None


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
    # finite where they are synthesized or parsed and build no CSR matrix;
    # parsed ragged rows get one CSR check of the whole file
    data = {**small_core()["data"], "split": True, "split_seed": 3}
    path, ragged = tmp_path / "core.svm", tmp_path / "ragged.svm"
    text = serialize_libsvm(bench.build_data({**data, "split": False})[0])
    path.write_text(text)
    first, rest = text.split("\n", 1)  # row 0 loses its last feature
    ragged.write_text(first.rsplit(" ", 1)[0] + "\n" + rest)
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
    for file, checks in ((path, []), (ragged, [40])):
        csr_sizes.clear()
        train, test, _ = bench.build_data({"path": str(file), "split": True,
                                           "split_seed": 3})
        assert csr_sizes == checks
        assert (train.n_samples, test.n_samples) == (32, 8)


@pytest.mark.parametrize("extra, key", [({"path": "tiny.txt"}, "path"),
                                        ({"sha256": "0" * 64}, "sha256"),
                                        ({"normalize": True}, "normalize")])
def test_build_data_takes_one_source(extra, key):
    # a file's keys beside a synthetic set name a second source, or an
    # option that would change nothing; normalize off builds the set
    data = {"synthetic": small_core()["data"]["synthetic"]}
    with pytest.raises(ValueError) as exc:
        bench.build_data({**data, **extra})
    assert str(exc.value) == (f"core.data.{key} belongs to a data file and cannot "
                              "be given beside core.data.synthetic")
    plain = bench.build_data(data)[0]
    off = bench.build_data({**data, "normalize": False})[0]
    assert fingerprint(off) == fingerprint(plain)


def test_build_data_checks_a_normalized_file_once(monkeypatch, tmp_path):
    # the parser checks the file's values and keeps its full rows dense;
    # scaling the values into [-1, 1] keeps them dense rows, whose CSR view
    # has the structure of the parsed file's, and needs no check
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
    assert csr_sizes == []
    scaled, _ = normalize_features(raw)
    checked = SparseMatrix(raw.n_samples, raw.dimension, raw.indptr,
                           raw.indices, scaled.data)
    for name in ("row_offsets", "col_indices", "values", "row_ids"):
        np.testing.assert_array_equal(getattr(train.features, name),
                                      getattr(checked, name))
    assert train.dense_rows is not None
    assert Dataset(checked, train.labels).dense_rows is not None


def count_builds(monkeypatch, log):
    """Append each ``bench.build_all`` call's regime to the file ``log``,
    also from worker processes, where none should build; return a reader
    of the calls so far."""
    build_all = bench.build_all

    def counted(core):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(core["config"]["regime"] + "\n")
        return build_all(core)

    monkeypatch.setattr(bench, "build_all", counted)
    return lambda: log.read_text().split() if log.exists() else []


def test_verify_rates_builds_each_core_once(monkeypatch, tmp_path):
    calls = count_builds(monkeypatch, tmp_path / "builds")
    derive, derived = bench.derive_constants, []

    def counted(problem, train):
        derived.append(problem)
        return derive(problem, train)

    monkeypatch.setattr(bench, "derive_constants", counted)
    bench.verify_rates(iters=1000, seeds=5, d=8, n=40)
    # one build per family serves its reference and every seed; the
    # uniform ordering runs reuse the sc build and its constants
    assert calls() == ["convex", "sc-nonuniform"]
    assert len(derived) == 2


def test_verify_rates_rejects_an_ordering_past_the_sc_run(monkeypatch, tmp_path):
    calls = count_builds(monkeypatch, tmp_path / "builds")
    # the ordering point is no keyword, so none past the run can be asked for
    with pytest.raises(TypeError, match="ordering_iteration"):
        bench.verify_rates(regimes=("sc-uniform", "sc-nonuniform"), iters=300,
                           seeds=1, d=8, n=40, ordering_iteration=400)
    assert calls() == []
    # a run to 300 stops short of ORDERING_AT, so both sc regimes are
    # ordered at 300, the last point of the nonuniform run's grid
    kw = dict(iters=300, seeds=1, d=8, n=40)
    both = bench.verify_rates(regimes=("sc-uniform", "sc-nonuniform"), **kw)
    assert both["ordering"]["iteration"] == 300
    # alone, the uniform regime runs the sc core to the same point, same bits
    alone = bench.verify_rates(regimes=("sc-uniform",), **kw)
    assert alone["ordering"] == both["ordering"]
    assert calls() == ["sc-nonuniform", "sc-nonuniform"]


def test_verify_rates_checks_the_ordering_on_the_run_it_reads(monkeypatch, tmp_path):
    calls = count_builds(monkeypatch, tmp_path / "builds")
    run_jobs, horizons = bench.run_jobs, []

    def counted(core, built, jobs):
        horizons.append((core["config"]["regime"], core["config"]["iters"]))
        return run_jobs(core, built, jobs)

    monkeypatch.setattr(bench, "run_jobs", counted)
    # the convex regime computes no ordering
    report = bench.verify_rates(regimes=("convex",), iters=300, seeds=1, d=8, n=40)
    assert "ordering" not in report and calls() == ["convex"]
    # 10,000 is off the grid 300, 600, ..., 19,800, 20,000, so both sc
    # regimes are ordered at 9,900, which the nonuniform run passes on its
    # way to iters
    kw = dict(iters=20_000, eval_every=300, seeds=1, d=8, n=40)
    both = bench.verify_rates(regimes=("sc-uniform", "sc-nonuniform"), **kw)
    assert both["ordering"]["iteration"] == 9_900
    # alone, the uniform regime builds only the sc core, whose runs stop at
    # the ordering point with the same bits
    alone = bench.verify_rates(regimes=("sc-uniform",), **kw)
    assert alone["ordering"] == both["ordering"]
    assert calls() == ["convex", "sc-nonuniform", "sc-nonuniform"]
    assert horizons == [("convex", 300), ("sc-nonuniform", 20_000),
                        ("sc-uniform", 9_900), ("sc-nonuniform", 9_900),
                        ("sc-uniform", 9_900)]


@pytest.mark.parametrize("iters, eval_every, point", [
    (12_000, 100, 10_000), (20_000, 300, 9_900), (1_500, 100, 1_500),
    (50_000, 20_000, 20_000), (250, 100, 250)])
def test_the_ordering_point_is_the_last_grid_point_at_or_below_10000(
        iters, eval_every, point):
    # or the grid's first point when none is (50,000 at eval_every 20,000)
    report = bench.verify_rates(regimes=("sc-uniform",), iters=iters,
                                eval_every=eval_every, seeds=1, d=8, n=40)
    assert report["ordering"]["iteration"] == point


def test_verify_rates_sizes_its_instances_by_d_and_n_alone(monkeypatch, tmp_path):
    # its d and n default to rate_core's; any other rate_core key (here a
    # regime) is no keyword of verify_rates, so nothing is built
    calls = count_builds(monkeypatch, tmp_path / "builds")
    defaults = {f: inspect.signature(f).parameters for f in (bench.verify_rates,
                                                             bench.rate_core)}
    for key in ("d", "n"):
        assert (defaults[bench.verify_rates][key].default
                == defaults[bench.rate_core][key].default == bench.INSTANCE[key])
    with pytest.raises(TypeError, match="regime"):
        bench.verify_rates(regimes=("sc-nonuniform",), regime="convex")
    assert calls() == []


def test_verify_rates_fits_on_three_grid_points_and_orders_on_any():
    # 100, 200 and 250 (the last iteration, off the multiples) are the window
    report = bench.verify_rates(regimes=("convex",), iters=250, seeds=1, d=8, n=40)
    assert report["convex"]["window"] == (100, 250)
    # the uniform regime fits no slope, so it runs short of the window
    report = bench.verify_rates(regimes=("sc-uniform",), iters=50, seeds=1, d=8, n=40,
                                eval_every=10)
    assert report["ordering"]["iteration"] == 50


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
    # one build, in this process: the workers receive it
    assert len(manifest["runs"]) == 15 and calls() == ["convex"]
    (tmp_path / "builds").unlink()
    written = bench.replay_manifest(bench.write_manifest(manifest, out),
                                    tmp_path / "replay")
    assert len(written) == 15 and calls() == ["convex"]
    (tmp_path / "builds").unlink()
    bench.verify_rates(iters=300, seeds=2, d=8, n=40)
    assert calls() == ["convex", "sc-nonuniform"]
    (tmp_path / "builds").unlink()
    bench.comparative_benchmark(d=8, n=40, iters=100, seeds=2)
    assert calls() == ["convex"]


def test_a_build_error_starts_no_pool(tmp_path, monkeypatch):
    # the build runs in the calling process, so its error is raised there
    # before any worker starts
    monkeypatch.setenv("SPDPEG_THREADS", "2")
    pools = []

    def no_pool(*args, **kwargs):
        pools.append(kwargs)
        raise RuntimeError("a pool was started")

    monkeypatch.setattr(bench, "ProcessPoolExecutor", no_pool)
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1:0.5 2:1.0\n-1 1:x\n")
    with pytest.raises(ParseError, match="line 2: bad feature value 'x'"):
        bench.run_suite({**small_core(), "data": {"path": str(bad)}},
                        bench.SOLVERS, [0, 1], tmp_path / "o")
    core = small_core()
    core["problem"]["task"] = "lasso"
    with pytest.raises(ValueError, match="unknown task 'lasso'"):
        bench.run_suite(core, bench.SOLVERS, [0, 1], tmp_path / "o")
    assert pools == [] and not (tmp_path / "o").exists()
    # the control: a core that builds reaches the pool
    with pytest.raises(RuntimeError, match="a pool was started"):
        bench.run_suite(small_core(), bench.SOLVERS, [0, 1], tmp_path / "o")
    assert [p["max_workers"] for p in pools] == [2]


def test_verify_rates_report_is_the_same_on_two_workers(monkeypatch):
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("SPDPEG_THREADS", threads)
        reports.append(bench.verify_rates(iters=300, seeds=3, d=8, n=40))
    assert reports[0] == reports[1]
    assert set(reports[0]) == {"seeds", "iters", "convex", "sc-nonuniform",
                               "ordering"}


@pytest.mark.parametrize("regimes", [(), ("convx",), ("convex", "sc"),
                                     "convex", ["sc-uniform", None]])
def test_verify_rates_rejects_unknown_regimes(monkeypatch, tmp_path, regimes):
    calls = count_builds(monkeypatch, tmp_path / "builds")
    with pytest.raises(ValueError, match="regimes must be a nonempty subset"):
        bench.verify_rates(regimes=regimes, iters=300, seeds=1, d=8, n=40)
    assert calls() == []


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


def test_a_file_whose_sha256_changed_is_rejected(tmp_path):
    # a recorded sha256 is compared before the file is read; an empty one,
    # or none, skips the comparison
    data, pen = tmp_path / "data.svm", tmp_path / "pen.txt"
    data.write_text(serialize_libsvm(bench.build_data(small_core()["data"])[0]))
    save_penalty(pen, build_fused_matrix(4))
    train, _, _ = bench.build_data({"path": str(data), "sha256": ""})
    with pytest.raises(ValueError, match=f"data file {data} hash mismatch: "
                                         f"{bench._sha256_file(data)}"):
        bench.build_data({"path": str(data), "sha256": "0" * 64})
    wrong = {"source": "file", "path": str(pen), "sha256": "0" * 64}
    with pytest.raises(ValueError, match=f"penalty file {pen} hash mismatch"):
        bench.build_penalty(wrong, train, None)
    right = {**wrong, "sha256": bench._sha256_file(pen)}
    assert bench.build_penalty(right, train, None).shape == (3, 4)


def test_build_problem_ggrlr_folds_quadratic():
    core = bench.rate_core("sc", d=6, n=30, iters=10)
    train, _, problem, derived = bench.build_all(core)
    assert problem.r1.kind == "none"
    assert problem.ridge == 1e-2
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
    monkeypatch.setenv("SPDPEG_THREADS", "0")
    assert bench.max_workers(8) == 1
    monkeypatch.setenv("SPDPEG_THREADS", "junk")
    with pytest.raises(ValueError, match="SPDPEG_THREADS must be an integer, got 'junk'"):
        bench.max_workers(8)


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


def test_spawned_workers_give_the_serial_manifest(tmp_path, monkeypatch):
    # spawned workers (macOS's default start method) inherit nothing, so the
    # build reaches them pickled. Replaying their manifest here, serially,
    # must give every entry and trace file again byte for byte
    script = ("import multiprocessing, sys\n"
              "from spdpeg import bench\n"
              "multiprocessing.set_start_method('spawn')\n"
              "assert bench.max_workers(6) == 2\n"
              "core = bench.rate_core('sc', d=8, n=40, iters=300, eval_every=100)\n"
              "manifest = bench.run_suite(core, bench.SOLVERS, [0, 1], sys.argv[1])\n"
              "bench.write_manifest(manifest, sys.argv[1])\n")
    paths = (str(Path(bench.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH"))
    env = {**os.environ, "SPDPEG_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "spawn")],
                   env=env, check=True, timeout=300)
    monkeypatch.setenv("SPDPEG_THREADS", "1")
    written = bench.replay_manifest(tmp_path / "spawn" / "manifest.json",
                                    tmp_path / "serial")
    assert len(written) == 6


if __name__ == "__main__":
    # regenerates the two pins above; run as
    # PYTHONPATH=src python tests/test_bench.py
    print(f'CAPPED_REFERENCES_DIGEST = "{capped_references()[0]}"')
    for family in sorted(FLOOR_CERTIFICATES):
        ref = floor_reference(family)
        print(f'FLOOR_CERTIFICATES["{family}"] = '
              f'({ref.iterations}, "{ref.certified_gap.hex()}")')
