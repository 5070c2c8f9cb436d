"""Benchmark harness: run orchestration, manifests, and rate verification.

Every run is described by a JSON-able config dict (the "core") holding the
data source, penalty source, problem parameters, and solver parameters.
Rebuilding from the core is deterministic, which is what makes manifest
replay reproduce trace files byte-for-byte: the solver columns are
recomputed and must match; recorded wall-clock times are machine-dependent
and are carried through the manifest instead of being re-measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, oracles
from .baselines import run_eg_full, run_stoch_linadmm
from .data import SplitSpec, normalize_features, parse_libsvm, split, synthesize
from .model import (LOSS_LOGISTIC, Dataset, Problem, SolverConfig,
                    compute_L_tilde, estimate_lipschitz)
from .penalties import (GraphSpec, build_fused_matrix, build_graph_matrix,
                        load_penalty, precision_graph_from_data)
from .prox import ProxSpec
from .solver import run as run_spdpeg
from .solver import (DivergenceError, check_step_inequality, extragradient,
                     objective_from_margins, relative_slack, z_block)
from .sparse import SparseMatrix, power_iteration_sigma_max
from .trace import TraceRecord, read_trace_csv, write_trace_csv

SOLVERS = ("spdpeg", "eg-full", "slinadmm")
TASKS = ("flr", "ggrlr")
TASK_DEFAULTS = {  # (lambda_reg for r2, gamma_reg for r1/ridge)
    "flr": (5e-3, 5e-4),
    "ggrlr": (1e-5, 1e-2),
}
TRACE_FILE_RE = re.compile(r"trace_(?P<solver>[a-z\-]+)_seed(?P<seed>\d+)\.csv$")

_SOLVER_FNS = {
    "spdpeg": run_spdpeg,
    "eg-full": run_eg_full,
    "slinadmm": run_stoch_linadmm,
}


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# building problems from config dicts


def build_data(data_cfg: dict) -> tuple[Dataset, Dataset, GraphSpec | None]:
    """Return (train, test, graph); test equals train when split is off."""
    graph = None
    if "synthetic" in data_cfg:
        s = data_cfg["synthetic"]
        dataset, graph, _ = synthesize(s["kind"], s["d"], s["n"],
                                       s["noise"], s["seed"])
    else:
        path = data_cfg["path"]
        if data_cfg.get("sha256"):
            digest = _sha256_file(path)
            if digest != data_cfg["sha256"]:
                raise ValueError(f"data file {path} hash mismatch: {digest}")
        with open(path, "r", encoding="utf-8") as fh:
            dataset = parse_libsvm(fh)
        if data_cfg.get("normalize"):
            dataset, _ = normalize_features(dataset)
    if data_cfg.get("split", False):
        train, test = split(dataset, SplitSpec(data_cfg.get("train_fraction", 0.8),
                                               data_cfg["split_seed"]))
        return train, test, graph
    return dataset, dataset, graph


def build_penalty(pen_cfg: dict, train: Dataset,
                  graph: GraphSpec | None) -> SparseMatrix:
    source = pen_cfg["source"]
    if source == "fused":
        return build_fused_matrix(train.dimension)
    if source == "synthetic-graph":
        if graph is None:
            raise ValueError("no synthetic graph available; use a graph-logistic "
                             "synthetic dataset or another penalty source")
        return build_graph_matrix(graph)
    if source == "precision":
        spec = precision_graph_from_data(train, pen_cfg.get("ridge", 1e-2),
                                         pen_cfg.get("threshold", 1e-3))
        return build_graph_matrix(spec)
    if source == "file":
        if pen_cfg.get("sha256"):
            digest = _sha256_file(pen_cfg["path"])
            if digest != pen_cfg["sha256"]:
                raise ValueError(f"penalty file hash mismatch: {digest}")
        return load_penalty(pen_cfg["path"])
    raise ValueError(f"unknown penalty source {source!r}")


def build_problem(problem_cfg: dict, penalty: SparseMatrix) -> Problem:
    task = problem_cfg["task"]
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    lambda_reg = problem_cfg["lambda_reg"]
    gamma_reg = problem_cfg["gamma_reg"]
    radius = problem_cfg.get("feasible_radius")
    if task == "flr":
        return Problem(LOSS_LOGISTIC, ProxSpec("l1", gamma_reg),
                       ProxSpec("l1", lambda_reg), penalty,
                       feasible_radius=radius)
    # the quadratic regularizer is folded into the loss, which is what makes
    # the smooth part strongly convex with mu = gamma_reg
    return Problem(LOSS_LOGISTIC, ProxSpec("none"), ProxSpec("l1", lambda_reg),
                   penalty, ridge=gamma_reg, strong_convexity_mu=gamma_reg,
                   feasible_radius=radius)


def derive_constants(problem: Problem, train: Dataset, gamma: float,
                     regime: str) -> dict:
    lips_data = estimate_lipschitz(train, problem.loss)
    lips = max(lips_data + problem.ridge, 1e-12)
    sigma = power_iteration_sigma_max(problem.penalty) if problem.penalty.nnz else 0.0
    mu = 0.0 if regime == "convex" else problem.strong_convexity_mu
    return {"lipschitz_data": lips_data, "lipschitz_L": lips,
            "sigma_max_FtF": sigma,
            "L_tilde": compute_L_tilde(gamma, sigma, lips, mu)}


def make_config(core: dict, derived: dict, seed: int,
                full_batch: bool = False) -> SolverConfig:
    sc = core["config"]
    return SolverConfig(gamma=sc["gamma"], regime=sc["regime"],
                        max_iters=sc["iters"], seed=seed,
                        lipschitz_L=derived["lipschitz_L"],
                        sigma_max_FtF=derived["sigma_max_FtF"],
                        batch_size=sc.get("batch_size", 1),
                        eval_every=sc.get("eval_every", 100),
                        full_batch=full_batch)


def build_all(core: dict):
    """Rebuild (train, test, problem, derived) from a core config dict."""
    train, test, graph = build_data(core["data"])
    penalty = build_penalty(core["penalty"], train, graph)
    problem = build_problem(core["problem"], penalty)
    derived = derive_constants(problem, train, core["config"]["gamma"],
                               core["config"]["regime"])
    return train, test, problem, derived


def objective_value(problem: Problem, dataset: Dataset, x: np.ndarray) -> float:
    """Training objective: loss (with any folded ridge) + both regularizers."""
    x = oracles._check_x(dataset, x)
    return objective_from_margins(problem, dataset.labels,
                                  oracles.margins(dataset, x), x,
                                  problem.penalty.matvec(x))


# ---------------------------------------------------------------------------
# runs and manifests


def trace_filename(solver: str, seed: int) -> str:
    return f"trace_{solver}_seed{seed}.csv"


def execute_run(core: dict, solver: str, seed: int, out_dir: str,
                wall_override: list[float] | None = None) -> dict:
    """Run one (solver, seed) job from a core config and write its trace."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    train, test, problem, derived = build_all(core)
    config = make_config(core, derived, seed)
    result = _SOLVER_FNS[solver](problem, train, config, test)
    records = result.trace
    if wall_override is not None:
        if len(wall_override) != len(records):
            raise ValueError("wall_seconds override length does not match trace")
        records = [replace(r, wall_seconds=w)
                   for r, w in zip(records, wall_override)]
    path = os.path.join(out_dir, trace_filename(solver, seed))
    write_trace_csv(path, records)
    return {"solver": solver, "seed": seed,
            "trace_file": trace_filename(solver, seed),
            "wall_seconds": [r.wall_seconds for r in records],
            "final_objective": records[-1].objective,
            "final_x_avg": result.x_avg.tolist(),
            "final_z_avg": result.z_avg.tolist(),
            "final_lambda_avg": result.lambda_avg.tolist(),
            "max_dual_norm": result.state.max_dual_norm,
            "derived": derived}


def _run_job(args):
    core, solver, seed, out_dir, wall = args
    return execute_run(core, solver, seed, out_dir, wall)


def max_workers(n_jobs: int) -> int:
    cap = os.environ.get("SPDPEG_THREADS", "1")
    try:
        cap = max(1, int(cap))
    except ValueError:
        cap = 1
    return max(1, min(cap, n_jobs))


def run_suite(core: dict, solvers, seeds, out_dir) -> dict:
    """Run the (solver, seed) grid and return the manifest dict."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = [(core, s, seed, str(out_dir), None) for s in solvers for seed in seeds]
    workers = max_workers(len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(_run_job, jobs))
    else:
        entries = [_run_job(j) for j in jobs]
    derived = entries[0].pop("derived")
    for e in entries[1:]:
        if e.pop("derived") != derived:
            raise RuntimeError("worker runs disagree on derived constants")
    manifest = {"format": "spdpeg-manifest", "schema": 1, "version": __version__,
                "core": core, "derived": derived, "solvers": list(solvers),
                "seeds": [int(s) for s in seeds], "runs": entries}
    return manifest


def write_manifest(manifest: dict, out_dir) -> str:
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != "spdpeg-manifest":
        raise ValueError(f"{path} is not a run manifest")
    return manifest


def replay_manifest(manifest_path, out_dir) -> list[str]:
    """Recompute every run in a manifest; recorded wall times are reused so
    the rewritten trace files are byte-identical to the originals."""
    manifest = load_manifest(manifest_path)
    os.makedirs(out_dir, exist_ok=True)
    core = manifest["core"]
    _, _, _, derived = build_all(core)
    for key, expect in manifest["derived"].items():
        if derived[key] != expect:
            raise ValueError(f"derived constant {key} changed: manifest has "
                             f"{expect!r}, recomputed {derived[key]!r}")
    written = []
    for entry in manifest["runs"]:
        result = execute_run(core, entry["solver"], entry["seed"], str(out_dir),
                             wall_override=entry["wall_seconds"])
        if result["final_objective"] != entry["final_objective"]:
            raise ValueError(f"replay of {entry['trace_file']} drifted: "
                             f"{result['final_objective']!r} != "
                             f"{entry['final_objective']!r}")
        written.append(os.path.join(str(out_dir), entry["trace_file"]))
    return written


# ---------------------------------------------------------------------------
# reference optima and rate fitting


@dataclass(frozen=True)
class ReferenceSolution:
    objective: float
    x: np.ndarray
    iterations: int
    converged: bool


def _reference_key(problem: Problem, dataset: Dataset, gamma: float,
                   tol: float) -> str:
    h = hashlib.sha256()
    h.update(dataset.fingerprint().encode())
    h.update(problem.penalty.fingerprint().encode())
    payload = (problem.loss, problem.r1.kind, problem.r1.weight, problem.r2.kind,
               problem.r2.weight, problem.ridge, problem.feasible_radius,
               gamma, tol)
    h.update(repr(payload).encode())
    return h.hexdigest()


def reference_optimum(problem: Problem, dataset: Dataset, gamma: float,
                      max_iters: int = 1_000_000, tol: float = 1e-10,
                      check_every: int = 2000,
                      cache_path=None) -> ReferenceSolution:
    """High-accuracy optimum via constant-step full-gradient extra-gradient.

    The scheduled solvers shrink their steps, which is the wrong tool for a
    reference: with full gradients and a constant step the last iterate
    settles geometrically on these instances. An iteration is the solvers'
    z block and ``extragradient`` step (which projects onto any feasible
    ball) at c = 1/(1 + L_tilde). Stops when the objective change between
    checkpoints drops below tol (relative); the best iterate seen is
    returned and cached keyed by the problem/dataset fingerprints.
    """
    key = _reference_key(problem, dataset, gamma, tol)
    cache = {}
    if cache_path is not None and os.path.exists(cache_path):
        with open(cache_path, "r", encoding="utf-8") as fh:
            cache = json.load(fh)
        if key in cache:
            e = cache[key]
            return ReferenceSolution(e["objective"], np.asarray(e["x"]),
                                     e["iterations"], e["converged"])
    c = 1.0 / (1.0 + derive_constants(problem, dataset, gamma, "convex")["L_tilde"])
    penalty = problem.penalty

    def gradient(v):
        return oracles.full_gradient(problem, dataset, v)

    x = np.zeros(dataset.dimension)
    lam = np.zeros(penalty.n_rows)
    best = math.inf
    best_x = x.copy()
    prev = math.inf
    converged = False
    iterations = 0
    for k in range(max_iters):
        fx = penalty.matvec(x)
        z = z_block(problem, gamma, fx, lam)
        _, _, x, lam, _, _ = extragradient(problem, gamma, c, x, lam, fx, z,
                                           gradient)
        iterations = k + 1
        if iterations % check_every == 0:
            f = objective_value(problem, dataset, x)
            if f < best:
                best, best_x = f, x.copy()
            if abs(prev - f) <= tol * max(1.0, abs(f)):
                converged = True
                break
            prev = f
    f = objective_value(problem, dataset, x)
    if f < best:
        best, best_x = f, x.copy()
    solution = ReferenceSolution(best, best_x, iterations, converged)
    if cache_path is not None:
        cache[key] = {"objective": best, "x": best_x.tolist(),
                      "iterations": iterations, "converged": converged}
        with open(cache_path, "w", encoding="utf-8") as fh:
            json.dump(cache, fh)
    return solution


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    window: tuple[int, int]

    def __post_init__(self):
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError("r_squared must lie in [0, 1]")


def fit_rate(iterations, values, window=(100, None)) -> RateFit:
    """Least-squares slope of log(value) against log(iteration).

    Non-positive values cannot be logged and are dropped, which shrinks the
    window; raises when fewer than three points survive.
    """
    it = np.asarray(iterations, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    lo, hi = window
    hi = it.max() if hi is None else hi
    mask = (it >= lo) & (it <= hi) & (vals > 0.0) & np.isfinite(vals)
    if mask.sum() < 3:
        raise ValueError("rate-fit window is empty after dropping non-positive gaps")
    x = np.log(it[mask])
    y = np.log(vals[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return RateFit(float(slope), float(intercept), max(0.0, min(1.0, r2)),
                   (int(it[mask].min()), int(it[mask].max())))


def rate_core(family: str, d: int = 20, n: int = 200, data_seed: int = 12345,
              gamma: float | None = None, iters: int = 100_000,
              eval_every: int = 100, regime: str | None = None,
              batch_size: int = 1) -> dict:
    """Core config for the rate-verification instances.

    convex family: fused-penalty logistic regression, no strong convexity.
    sc family: graph-guided logistic regression with the quadratic folded in
    (mu = 1e-2). The augmented-Lagrangian gamma defaults keep
    gamma * sigma_max(F^T F) around or below one, which keeps the
    step-dependent bracket coefficients nonnegative from the first step.
    """
    if family == "convex":
        data = {"synthetic": {"kind": "fused-signal", "d": d, "n": n,
                              "noise": 0.1, "seed": data_seed}}
        penalty = {"source": "fused"}
        problem = {"task": "flr", "lambda_reg": 5e-3, "gamma_reg": 5e-4}
        gamma = 0.1 if gamma is None else gamma
        regime = "convex" if regime is None else regime
    elif family == "sc":
        data = {"synthetic": {"kind": "graph-logistic", "d": d, "n": n,
                              "noise": 0.1, "seed": data_seed}}
        penalty = {"source": "synthetic-graph"}
        problem = {"task": "ggrlr", "lambda_reg": 1e-5, "gamma_reg": 1e-2}
        gamma = 0.05 if gamma is None else gamma
        regime = "sc-nonuniform" if regime is None else regime
    else:
        raise ValueError(f"unknown rate family {family!r}")
    return {"data": data, "penalty": penalty, "problem": problem,
            "config": {"gamma": gamma, "regime": regime, "iters": iters,
                       "batch_size": batch_size, "eval_every": eval_every}}


def _gap_curves(core: dict, seeds, reference: float):
    """Run the core once per seed; return (iterations, objective-gap curves,
    feasibility-gap curves) stacked over seeds."""
    obj_curves, feas_curves = [], []
    iterations = None
    for seed in seeds:
        train, test, problem, derived = build_all(core)
        config = make_config(core, derived, seed)
        result = run_spdpeg(problem, train, config, test)
        its = np.array([r.iteration for r in result.trace])
        if iterations is None:
            iterations = its
        elif not np.array_equal(iterations, its):
            raise ValueError("trace grids differ across seeds")
        obj_curves.append(np.array([r.objective for r in result.trace]) - reference)
        feas_curves.append(np.array([r.feasibility_gap for r in result.trace]))
    return iterations, np.stack(obj_curves), np.stack(feas_curves)


def _grid_index(iterations: np.ndarray, t: int) -> int:
    """Position of iteration t on a trace grid."""
    return int(np.nonzero(iterations == t)[0][0])


def verify_rates(regimes=("convex", "sc-uniform", "sc-nonuniform"),
                 iters: int = 100_000, seeds: int = 5, base_seed: int = 0,
                 d: int = 20, n: int = 200, eval_every: int = 100,
                 ordering_iteration: int | None = None,
                 gamma: float | None = None,
                 cache_path=None, window_lo: int = 100) -> dict:
    """Fit empirical convergence slopes for the requested regimes.

    Convex regime: the mean objective gap of the uniformly averaged output
    should decay like 1/sqrt(t). Accelerated strongly convex regime: both
    the objective gap and the feasibility gap of the nonuniformly averaged
    output should decay like 1/t. When both strongly convex regimes are
    requested, their gaps at ``ordering_iteration`` are compared (uniform
    averaging should not beat nonuniform averaging there).
    """
    seed_list = [base_seed + i for i in range(seeds)]
    if ordering_iteration is None:
        ordering_iteration = min(10_000, iters)
    if ordering_iteration != iters and ordering_iteration % eval_every != 0:
        raise ValueError("ordering_iteration must land on the trace grid")
    report: dict = {"seeds": seed_list, "iters": iters}
    if "convex" in regimes:
        core = rate_core("convex", d=d, n=n, gamma=gamma, iters=iters,
                         eval_every=eval_every)
        train, _, problem, _ = build_all(core)
        ref = reference_optimum(problem, train, core["config"]["gamma"],
                                cache_path=cache_path)
        its, curves, _ = _gap_curves(core, seed_list, ref.objective)
        fit = fit_rate(its, curves.mean(axis=0), (window_lo, None))
        report["convex"] = {"slope": fit.slope, "r_squared": fit.r_squared,
                            "window": fit.window,
                            "reference_objective": ref.objective,
                            "reference_iterations": ref.iterations,
                            "reference_converged": ref.converged}
    if "sc-nonuniform" in regimes or "sc-uniform" in regimes:
        # the schedule does not depend on the horizon, so a run to iters
        # passes through the ordering iteration with the same bits as a run
        # that stops there
        core = rate_core("sc", d=d, n=n, gamma=gamma,
                         iters=(iters if "sc-nonuniform" in regimes
                                else ordering_iteration),
                         eval_every=eval_every)
        train, _, problem, _ = build_all(core)
        ref = reference_optimum(problem, train, core["config"]["gamma"],
                                cache_path=cache_path)
        its, obj_curves, feas_curves = _gap_curves(core, seed_list,
                                                   ref.objective)
        if "sc-nonuniform" in regimes:
            obj_fit = fit_rate(its, obj_curves.mean(axis=0), (window_lo, None))
            feas_fit = fit_rate(its, feas_curves.mean(axis=0), (window_lo, None))
            report["sc-nonuniform"] = {
                "slope": obj_fit.slope, "r_squared": obj_fit.r_squared,
                "window": obj_fit.window,
                "feasibility_slope": feas_fit.slope,
                "feasibility_r_squared": feas_fit.r_squared,
                "reference_objective": ref.objective,
                "reference_iterations": ref.iterations,
                "reference_converged": ref.converged}
        if "sc-uniform" in regimes:
            # the uniform regime is checked as an ordering against the
            # accelerated one at a fixed iteration count, not as a slope
            non_gaps = obj_curves[:, _grid_index(its, ordering_iteration)]
            uni_core = rate_core("sc", d=d, n=n, gamma=gamma,
                                 iters=ordering_iteration,
                                 eval_every=eval_every, regime="sc-uniform")
            uni_its, uni_curves, _ = _gap_curves(uni_core, seed_list,
                                                 ref.objective)
            uni_gaps = uni_curves[:, _grid_index(uni_its, ordering_iteration)]
            report["ordering"] = {
                "iteration": ordering_iteration,
                "gap_uniform_median": float(np.median(uni_gaps)),
                "gap_nonuniform_median": float(np.median(non_gaps)),
                "gap_uniform_mean": float(np.mean(uni_gaps)),
                "gap_nonuniform_mean": float(np.mean(non_gaps))}
    return report


# ---------------------------------------------------------------------------
# per-step inequality sweep


def step_inequality_sweep(d: int = 20, n: int = 100, steps: int = 1000,
                          n_references: int = 10, mode: str = "stochastic",
                          seed: int = 0, data_seed: int = 2024,
                          gamma: float = 0.1, step_scale: float = 1.0) -> dict:
    """Instrument a run and audit the per-step inequality against random
    reference points; returns the worst (minimum) relative slack seen."""
    if mode not in ("stochastic", "deterministic"):
        raise ValueError(f"unknown mode {mode!r}")
    if d > 50 or n > 200:
        raise ValueError("inequality sweeps are meant for small instances "
                         "(d <= 50, n <= 200)")
    core = rate_core("convex", d=d, n=n, data_seed=data_seed, gamma=gamma,
                     iters=steps, eval_every=steps)
    train, _, problem, derived = build_all(core)
    config = replace(make_config(core, derived, seed),
                     capture_steps=True, full_batch=(mode == "deterministic"))
    # a deliberately divergent step scale still yields an auditable prefix
    # of captured steps
    try:
        captures = run_spdpeg(problem, train, config, step_scale=step_scale).captures
        diverged_at = None
    except DivergenceError as exc:
        captures, diverged_at = exc.captures, exc.iteration
    if not captures:
        raise ValueError("run diverged before completing a single step")
    rng_ref = np.random.default_rng(seed + 709)
    l = problem.penalty.n_rows
    references = [(rng_ref.standard_normal(l), rng_ref.standard_normal(d),
                   rng_ref.standard_normal(l)) for _ in range(n_references)]
    min_rel = math.inf
    min_abs = math.inf
    flagged = 0
    for cap in captures:
        any_negative = False
        for ref in references:
            rep = check_step_inequality(cap, problem, config, ref)
            min_rel = min(min_rel, relative_slack(rep))
            min_abs = min(min_abs, rep.slack)
            any_negative = any_negative or rep.coefficient_negative
        flagged += int(any_negative)
    return {"mode": mode, "steps": len(captures), "references": n_references,
            "d": d, "n": n, "step_scale": step_scale,
            "min_relative_slack": min_rel, "min_slack": min_abs,
            "coefficient_negative_steps": flagged, "diverged_at": diverged_at,
            "threshold": -1e-8, "passed": bool(min_rel >= -1e-8)}


# ---------------------------------------------------------------------------
# trace aggregation for figures


def collect_trace_files(paths) -> list[tuple[str, int, list[TraceRecord]]]:
    out = []
    for path in sorted(str(p) for p in paths):
        match = TRACE_FILE_RE.search(os.path.basename(path))
        if match is None:
            raise ValueError(f"trace filename {path!r} does not follow "
                             "trace_<solver>_seed<seed>.csv")
        out.append((match["solver"], int(match["seed"]), read_trace_csv(path)))
    if not out:
        raise ValueError("no trace files given")
    return out


PLOT_METRICS = ("objective", "test_loss", "accuracy", "feasibility_gap",
                "max_dual_norm", "wall_seconds")


def aggregate_traces(traces) -> tuple[list[tuple], list[tuple]]:
    """Long-format rows plus per-(solver, metric, iteration) mean/stderr."""
    long_rows = []
    for solver, seed, records in traces:
        for rec in records:
            for metric in PLOT_METRICS:
                long_rows.append((solver, metric, rec.iteration, seed,
                                  getattr(rec, metric)))
    groups: dict = {}
    for solver, metric, iteration, _, value in long_rows:
        groups.setdefault((solver, metric, iteration), []).append(value)
    agg_rows = []
    for (solver, metric, iteration), values in sorted(groups.items()):
        arr = np.asarray(values)
        stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
        agg_rows.append((solver, metric, iteration, float(arr.mean()), stderr,
                         arr.size))
    long_rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    return long_rows, agg_rows


def write_plotdata(paths, out_path) -> tuple[str, str]:
    import csv

    traces = collect_trace_files(paths)
    long_rows, agg_rows = aggregate_traces(traces)
    root, ext = os.path.splitext(str(out_path))
    agg_path = f"{root}_agg{ext or '.csv'}"
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("solver", "metric", "iteration", "seed", "value"))
        for row in long_rows:
            w.writerow(row[:4] + (repr(float(row[4])),))
    with open(agg_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("solver", "metric", "iteration", "mean", "stderr", "n_seeds"))
        for solver, metric, iteration, mean, stderr, n in agg_rows:
            w.writerow((solver, metric, iteration, repr(mean), repr(stderr), n))
    return str(out_path), agg_path


# ---------------------------------------------------------------------------
# timing


def per_iteration_seconds(solver: str, core: dict, seed: int = 0,
                          repeats: int = 3) -> float:
    """Median wall seconds per iteration over a few short runs."""
    train, test, problem, derived = build_all(core)
    config = make_config(core, derived, seed)
    fn = _SOLVER_FNS[solver]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(problem, train, config, test)
        times.append((time.perf_counter() - t0) / config.max_iters)
    return float(np.median(times))


def timing_scaling(ns=(1000, 100_000), d: int = 50, iters_stochastic: int = 6000,
                   iters_full: int = 30, seed: int = 0) -> dict:
    """Per-iteration cost of the stochastic solver vs the full-gradient one
    as the sample count grows; the full-gradient cost scales with n."""
    report: dict = {"ns": list(ns), "spdpeg": {}, "eg-full": {}}
    for n in ns:
        core = rate_core("convex", d=d, n=n, iters=iters_stochastic,
                         eval_every=iters_stochastic)
        report["spdpeg"][n] = per_iteration_seconds("spdpeg", core, seed)
        core_full = rate_core("convex", d=d, n=n, iters=iters_full,
                              eval_every=iters_full)
        report["eg-full"][n] = per_iteration_seconds("eg-full", core_full, seed)
    lo, hi = min(ns), max(ns)
    report["spdpeg_ratio"] = report["spdpeg"][hi] / report["spdpeg"][lo]
    report["eg_full_ratio"] = report["eg-full"][hi] / report["eg-full"][lo]
    return report


def comparative_benchmark(d: int = 50, n: int = 1000, iters: int = 10_000,
                          seeds: int = 5, base_seed: int = 0,
                          data_seed: int = 12345) -> dict:
    """Final objective of the stochastic solvers on the same instance/seeds."""
    core = rate_core("convex", d=d, n=n, data_seed=data_seed, iters=iters,
                     eval_every=iters)
    train, test, problem, derived = build_all(core)
    finals: dict = {"spdpeg": [], "slinadmm": []}
    for i in range(seeds):
        config = make_config(core, derived, base_seed + i)
        finals["spdpeg"].append(
            run_spdpeg(problem, train, config, test).trace[-1].objective)
        finals["slinadmm"].append(
            run_stoch_linadmm(problem, train, config, test).trace[-1].objective)
    return {"iters": iters, "d": d, "n": n,
            "spdpeg_mean": float(np.mean(finals["spdpeg"])),
            "slinadmm_mean": float(np.mean(finals["slinadmm"])),
            "spdpeg_median": float(np.median(finals["spdpeg"])),
            "slinadmm_median": float(np.median(finals["slinadmm"])),
            "finals": finals}
