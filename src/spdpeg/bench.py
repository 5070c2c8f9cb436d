"""Benchmark harness: run orchestration, manifests, and rate verification.

Every run is described by a JSON-able config dict (the "core") holding the
data source, penalty source, problem parameters, and solver parameters.
Every seed loop is ``run_seeds`` on one ``build_all`` of its core (one per
worker process with ``SPDPEG_THREADS``); a diverged run stops only itself.
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
from pathlib import Path

import numpy as np

from . import __version__, oracles
from .baselines import run_eg_full, run_stoch_linadmm
from .data import (SplitSpec, normalize_features, parse_libsvm, split, split_order,
                   synthesize)
from .model import (LOSS_LOGISTIC, Dataset, Problem, SolverConfig,
                    compute_L_tilde, estimate_lipschitz)
from .penalties import (GraphSpec, build_fused_matrix, build_graph_matrix,
                        load_penalty, precision_graph_from_data)
from .prox import ProxSpec, prox_dual, prox_fused
from .solver import run as run_spdpeg
from .solver import (DivergenceError, check_dimensions, check_step_inequality,
                     kernels, objective_from_margins, relative_slack,
                     update_extragradient, update_z)
from .sparse import SparseMatrix
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
    """Return (train, test, graph); test equals train when split is off,
    and a synthetic split is two views of one array (``synthesize``)."""
    spec = (SplitSpec(data_cfg.get("train_fraction", 0.8), data_cfg["split_seed"])
            if data_cfg.get("split", False) else None)
    if "synthetic" in data_cfg:
        s = data_cfg["synthetic"]
        args = (s["kind"], s["d"], s["n"], s["noise"], s["seed"])
        if spec is None:
            dataset, graph, _ = synthesize(*args)
            return dataset, dataset, graph
        order, n_train = split_order(s["n"], spec)
        dataset, graph, _ = synthesize(*args, order)
        return (dataset.subset(slice(0, n_train)),
                dataset.subset(slice(n_train, None)), graph)
    path = data_cfg["path"]
    if data_cfg.get("sha256"):
        digest = _sha256_file(path)
        if digest != data_cfg["sha256"]:
            raise ValueError(f"data file {path} hash mismatch: {digest}")
    with open(path, "r", encoding="utf-8") as fh:
        dataset = parse_libsvm(fh)
    if data_cfg.get("normalize"):
        dataset, _ = normalize_features(dataset)
    if spec is None:
        return dataset, dataset, None
    return (*split(dataset, spec), None)


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
    """The step constants of a problem on its training set. The row norms
    are cached on ``train`` and ``SparseMatrix.sigma_max_FtF`` on
    ``problem.penalty``, so deriving again costs nothing."""
    lips_data = estimate_lipschitz(train, problem.loss)
    lips = max(lips_data + problem.ridge, 1e-12)
    sigma = problem.penalty.sigma_max_FtF
    mu = 0.0 if regime == "convex" else problem.strong_convexity_mu
    return {"lipschitz_data": lips_data, "lipschitz_L": lips,
            "sigma_max_FtF": sigma,
            "L_tilde": compute_L_tilde(gamma, sigma, lips, mu)}


def make_config(core: dict, derived: dict, seed: int) -> SolverConfig:
    sc = core["config"]
    return SolverConfig(gamma=sc["gamma"], regime=sc["regime"],
                        max_iters=sc["iters"], seed=seed,
                        lipschitz_L=derived["lipschitz_L"],
                        sigma_max_FtF=derived["sigma_max_FtF"],
                        batch_size=sc.get("batch_size", 1),
                        eval_every=sc.get("eval_every", 100))


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


def run_seeds(solver: str, built, core: dict, seeds) -> list:
    """Run one solver on ``built``, the tuple ``build_all(core)`` returns,
    once per seed; return each seed's SolverResult, or the DivergenceError
    that stopped it, in seed order."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    train, test, problem, derived = built
    fn = _SOLVER_FNS[solver]
    results = []
    for seed in seeds:
        try:
            results.append(fn(problem, train, make_config(core, derived, seed),
                              test))
        except DivergenceError as exc:
            results.append(exc)
    return results


def _completed(results: list) -> list:
    """``results`` of ``run_seeds``; raises the first divergence among them."""
    for result in results:
        if isinstance(result, DivergenceError):
            raise result
    return results


def _suite_entry(solver: str, seed: int, result, out_dir) -> dict:
    """Manifest entry of one run; a finished run's trace goes to out_dir."""
    if isinstance(result, DivergenceError):
        return {"solver": solver, "seed": seed,
                "diverged_at": result.iteration, "error": str(result)}
    records = result.trace
    write_trace_csv(os.path.join(out_dir, trace_filename(solver, seed)), records)
    return {"solver": solver, "seed": seed,
            "trace_file": trace_filename(solver, seed),
            "wall_seconds": [r.wall_seconds for r in records],
            "final_objective": records[-1].objective,
            "final_x_avg": result.x_avg.tolist(),
            "final_z_avg": result.z_avg.tolist(),
            "final_lambda_avg": result.lambda_avg.tolist(),
            "max_dual_norm": result.state.max_dual_norm}


_worker_build = None  # (core, build) in a run_suite worker, or its error


def _init_worker(core: dict) -> None:
    global _worker_build
    try:
        _worker_build = core, build_all(core)
    except Exception as exc:  # raised by each job: a failed initializer
        _worker_build = exc   # would break the pool and lose the message


def _worker_run(job):
    if isinstance(_worker_build, Exception):
        raise _worker_build
    (core, built), (solver, seed) = _worker_build, job
    return run_seeds(solver, built, core, [seed])[0], built[3]


def max_workers(n_jobs: int) -> int:
    cap = os.environ.get("SPDPEG_THREADS", "1")
    try:
        cap = max(1, int(cap))
    except ValueError:
        cap = 1
    return max(1, min(cap, n_jobs))


def run_suite(core: dict, solvers, seeds, out_dir) -> dict:
    """Run the (solver, seed) grid on one build of the core (one per worker
    process) and return the manifest dict."""
    jobs = [(s, seed) for s in solvers for seed in seeds]
    if not jobs:
        raise ValueError("run_suite needs at least one solver and one seed")
    os.makedirs(out_dir, exist_ok=True)
    workers = max_workers(len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(core,)) as pool:
            outcomes = list(pool.map(_worker_run, jobs))
    else:
        built = build_all(core)
        outcomes = [(r, built[3]) for s in solvers
                    for r in run_seeds(s, built, core, seeds)]
    derived = outcomes[0][1]
    if any(d != derived for _, d in outcomes):
        raise RuntimeError("worker runs disagree on derived constants")
    entries = [_suite_entry(s, seed, r, out_dir)
               for (s, seed), (r, _) in zip(jobs, outcomes)]
    return {"format": "spdpeg-manifest", "schema": 1, "version": __version__,
            "core": core, "derived": derived, "solvers": list(solvers),
            "seeds": [int(s) for s in seeds], "runs": entries}


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
    """Recompute every run in a manifest on one build of its core; each run
    must give its recorded entry again (a divergence at its iteration).
    Recorded wall times are reused, so each rewritten trace file must also
    be byte-identical to the recorded one next to the manifest, if there is
    one; they are read before a rerun into the same directory writes."""
    manifest = load_manifest(manifest_path)
    here = Path(manifest_path).parent
    recorded = {e["trace_file"]: (here / e["trace_file"]).read_bytes()
                for e in manifest["runs"]
                if "trace_file" in e and (here / e["trace_file"]).is_file()}
    os.makedirs(out_dir, exist_ok=True)
    core = manifest["core"]
    built = build_all(core)
    # in derivation order, so a changed sigma_max_FtF is named, not the
    # L_tilde that follows from it
    for key, value in built[3].items():
        expect = manifest["derived"].get(key, value)
        if value != expect:
            raise ValueError(f"derived constant {key} changed: manifest has "
                             f"{expect!r}, recomputed {value!r}")
    written = []
    for entry in manifest["runs"]:
        solver, seed = entry["solver"], entry["seed"]
        [result] = run_seeds(solver, built, core, [seed])
        if "wall_seconds" in entry and not isinstance(result, DivergenceError):
            if len(entry["wall_seconds"]) != len(result.trace):
                raise ValueError("wall_seconds override length does not match trace")
            result.trace = [replace(r, wall_seconds=w)
                            for r, w in zip(result.trace, entry["wall_seconds"])]
        again = _suite_entry(solver, seed, result, out_dir)
        if again != entry:
            keys = sorted(k for k in entry.keys() | again.keys()
                          if entry.get(k) != again.get(k))
            raise ValueError(f"replay of {solver} seed {seed} drifted: "
                             f"{', '.join(keys)} differ")
        if "trace_file" in again:
            name = again["trace_file"]
            path = os.path.join(str(out_dir), name)
            if name in recorded and Path(path).read_bytes() != recorded[name]:
                raise ValueError(f"replay of {solver} seed {seed} wrote {name}, "
                                 f"which differs from the recorded file")
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# reference optima and rate fitting


# an uncapped reference stops here at the latest
UNCAPPED_ITERS = 1_000_000
# iterations between the certificate checks of FISTA; a check costs about
# one of its steps
FISTA_CHECK_EVERY = 50
_EPS = 2.0 ** -52


@dataclass(frozen=True)
class ReferenceSolution:
    objective: float
    x: np.ndarray
    iterations: int
    converged: bool
    # bounds objective - f*; None for a capped call
    certified_gap: float | None = None


def _is_fused(penalty: SparseMatrix) -> bool:
    """Whether the penalty's fields are those of ``build_fused_matrix``."""
    d = penalty.n_cols
    if d < 2 or penalty.shape != (d - 1, d):
        return False
    fused = build_fused_matrix(d)
    return all(np.array_equal(getattr(penalty, name), getattr(fused, name))
               for name in ("row_offsets", "col_indices", "values"))


def duality_gap(problem: Problem, dataset: Dataset, x: np.ndarray,
                nu: np.ndarray) -> float:
    """Fenchel duality gap of x and a dual point nu of r2, an upper bound on
    ``objective_value(x) - f*``, for  l(Ax) + g(x) + r2(Fx)  where g is r1
    plus any folded ridge and feasible ball.

    theta = l'(Ax)/n, and nu is clipped into r2's box |nu| <= r2.weight.
    With w = A^T theta + F^T nu the dual value is -l*(theta) - g*(w):
    l* is minus the mean binary entropy of p = -b*n*theta for the logistic
    loss and mean(r^2/2 + b*r), r = n*theta, for least squares. For an l1
    weight a alone, g* is the indicator of |w| <= a, so (theta, nu) are
    scaled into it (Gap Safe: Ndiaye, Fercoq, Gramfort & Salmon, JMLR
    2017); with a quadratic q (ridge plus any squared-l2 r1) it is
    rho^2/(2q), with a ball of radius R it is R*rho, and with both the
    Huber function of the two, where rho = ||(|w| - a)_+||_2.

    Rounding margin, to first order in eps: each value is a sum of at most
    n + d + l terms, each evaluated within a few ulp, so it is off by at
    most (n + d + l + 16) eps times the sum of its terms' magnitudes
    (Higham, Accuracy and Stability, 2002, sec. 4.2). The rounding of the
    margins and of F x moves the objective by at most (d + 2) eps ||x||_1
    (max|a_ij| max|l'| + l r2.weight max|f_ij|), and that of w is at most
    err_w per entry, which is added to w's peak or to rho.
    """
    check_dimensions(problem, dataset)
    x = oracles._check_x(dataset, x)
    nu = np.asarray(nu, dtype=np.float64)
    if nu.shape != (problem.penalty.n_rows,):
        raise ValueError(f"nu must have length {problem.penalty.n_rows}, "
                         f"got {nu.shape}")
    return _objective_and_gap(problem, dataset, kernels(problem), x, nu)[1]


def _xlogx(v: np.ndarray) -> np.ndarray:
    return v * np.log(v, out=np.zeros_like(v), where=v > 0.0)


def _objective_and_gap(problem: Problem, dataset: Dataset, kern, x: np.ndarray,
                       nu: np.ndarray) -> tuple[float, float]:
    """The objective at x, with ``objective_value``'s bits, and
    ``duality_gap(problem, dataset, x, nu)``, through the run's kernels."""
    n, d, l = dataset.n_samples, dataset.dimension, problem.penalty.n_rows
    labels = dataset.labels
    m = oracles.margins(dataset, x)
    f = objective_from_margins(problem, labels, m, x, kern.F(x))
    if problem.loss == LOSS_LOGISTIC:
        p = oracles._sigmoid(-(labels * m))
        theta = -labels * p / n
        slope = 1.0  # the largest |l'| of a sample
    else:
        resid = m - labels
        theta = resid / n
        slope = float(np.max(np.abs(resid)))
    w2 = problem.r2.weight
    nu = np.clip(nu, -w2, w2)
    w = oracles._scatter(dataset, theta) + kern.Ft(nu)
    a_max = np.max(np.abs(dataset.data), initial=0.0)
    f_max = np.max(np.abs(problem.penalty.values), initial=0.0)
    err_w = (n + l + 8) * _EPS * (a_max * np.abs(theta).sum()
                                  + f_max * np.abs(nu).sum())
    r1, radius = problem.r1, problem.feasible_radius
    a = r1.weight if r1.kind == "l1" else 0.0
    q = problem.ridge + (r1.weight if r1.kind == "squared-l2" else 0.0)
    scale, conj_g = 1.0, 0.0
    if q == 0.0 and radius is None:
        peak = float(np.max(np.abs(w), initial=0.0)) + err_w
        if peak > a:
            scale = a / peak
    else:
        rho = (float(np.linalg.norm(np.maximum(np.abs(w) - a, 0.0)))
               + math.sqrt(d) * err_w)
        if radius is None or (q > 0.0 and rho <= q * radius):
            conj_g = rho * rho / (2.0 * q)
        else:
            conj_g = radius * rho - 0.5 * q * radius * radius
    if problem.loss == LOSS_LOGISTIC:
        p *= scale
        conj_terms = _xlogx(p) + _xlogx(1.0 - p)
    else:
        resid *= scale
        conj_terms = 0.5 * resid * resid + labels * resid
    dual = -float(np.mean(conj_terms)) - conj_g
    margin = _EPS * (
        (n + d + l + 16) * (abs(f) + float(np.mean(np.abs(conj_terms))) + conj_g)
        + (d + 2) * float(np.abs(x).sum()) * (a_max * slope + l * w2 * f_max))
    return f, f - dual + margin


def _smooth_lipschitz(problem: Problem, dataset: Dataset) -> float:
    """Lipschitz constant of the gradient of the loss plus any folded
    ridge: from the spectrum of A^T A / n for rows that store every
    feature (an ``eigvalsh`` of the d x d Gram matrix, with the margin of
    ``sparse.dense_sigma_max_bound``), else the per-sample bound. Rounded
    up to 4 significant digits, so that FISTA's iterates do not depend on
    the last bits of the BLAS and LAPACK calls."""
    rows = dataset.dense_rows
    if rows is not None:
        n, d = rows.shape
        gram = rows.T @ rows
        top = (np.max(np.linalg.eigvalsh(gram), initial=0.0)
               + (n + d) * _EPS * np.trace(gram)) / n
        lips = 0.25 * top if problem.loss == LOSS_LOGISTIC else top
    else:
        lips = estimate_lipschitz(dataset, problem.loss)
    lips = max(float(lips) + problem.ridge, 1e-12)
    unit = 10.0 ** (math.floor(math.log10(lips)) - 3)
    return math.ceil(lips / unit) * unit


def _fista_reference(problem: Problem, dataset: Dataset,
                     tol: float) -> ReferenceSolution:
    """FISTA (Beck & Teboulle, SIAM J. Imaging Sci. 2009) at step 1/L with
    the gradient restart of O'Donoghue & Candes (Found. Comput. Math.
    2015) and a prox of r1 + r2(F .) that also returns a dual point nu of
    step * r2: for a fused F with no ball the exact ``prox_fused``, whose
    TV prox gives nu = ``cumsum(v - t)[:-1]``, else ``prox_dual``,
    warm-started from the previous iteration's nu. Every
    ``FISTA_CHECK_EVERY`` iterations the iterate is certified with nu / step
    (``duality_gap``), and the run stops once that gap is at most
    tol * max(1, |f|) or no lower than two checks before, or after
    ``UNCAPPED_ITERS``; ``converged`` says that one of the first two
    happened. A gap no lower than two checks before has reached the floor
    that the rounding allowance of its dual point sets (``err_w`` in
    ``_objective_and_gap``, through the dual scaling)."""
    kern = kernels(problem)
    step = 1.0 / _smooth_lipschitz(problem, dataset)
    weight, sigma = problem.r2.weight, problem.penalty.sigma_max_FtF
    fused = problem.feasible_radius is None and _is_fused(problem.penalty)
    x = y = np.zeros(dataset.dimension)
    nu = np.zeros(problem.penalty.n_rows)
    t = 1.0
    f = gap = math.inf
    before = last = math.inf  # the gaps of the two checks before this one
    converged = False
    iterations = 0
    while iterations < UNCAPPED_ITERS:
        v = y - step * oracles._gradient_over_rows(problem, dataset, y)
        if fused:
            x_next, tv = prox_fused(kern.prox_r1, v, step, weight)
        else:
            x_next, nu = prox_dual(kern.prox_r1, kern.F, kern.Ft, sigma, v,
                                   step, weight, nu)
        move = x_next - x
        if (y - x_next).dot(move) > 0.0:  # momentum against descent
            t, y = 1.0, x_next
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_next + ((t - 1.0) / t_next) * move
            t = t_next
        x = x_next
        iterations += 1
        if iterations % FISTA_CHECK_EVERY and iterations < UNCAPPED_ITERS:
            continue
        if fused:
            nu = np.cumsum(v - tv)[:-1]
        f, gap = _objective_and_gap(problem, dataset, kern, x, nu / step)
        if gap <= tol * max(1.0, abs(f)) or gap >= before:
            converged = True
            break
        before, last = last, gap
    return ReferenceSolution(f, x, iterations, converged, gap)


def _extragradient_reference(problem: Problem, dataset: Dataset, gamma: float,
                             max_iters: int, tol: float,
                             check_every: int) -> ReferenceSolution:
    """``update_z`` and ``update_extragradient`` (which projects onto any
    feasible ball) at the constant step c = 1/(1 + L_tilde), with full
    gradients, for ``max_iters`` iterations at most: the scheduled solvers
    shrink their steps, while this last iterate settles geometrically. The
    objective is evaluated every ``check_every`` iterations, and the run
    stops once it changes by at most tol (relative) between checks.
    Returns the best iterate seen, with no certificate."""
    c = 1.0 / (1.0 + derive_constants(problem, dataset, gamma, "convex")["L_tilde"])
    kern = kernels(problem)

    def gradient(v):
        return oracles._gradient_over_rows(problem, dataset, v)

    x = np.zeros(dataset.dimension)
    lam = np.zeros(problem.penalty.n_rows)
    best = math.inf
    best_x = x.copy()
    prev = math.inf
    converged = False
    iterations = 0
    for k in range(max_iters):
        fx = kern.F(x)
        z = update_z(kern, gamma, fx, lam)
        _, _, x, lam, _, _ = update_extragradient(kern, gamma, c, x, lam, fx, z,
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
    # a loop that ended on a checkpoint has already evaluated this x
    if iterations == 0 or iterations % check_every:
        f = objective_value(problem, dataset, x)
        if f < best:
            best, best_x = f, x.copy()
    return ReferenceSolution(best, best_x, iterations, converged)


def reference_optimum(problem: Problem, dataset: Dataset, gamma: float,
                      max_iters: int | None = None, tol: float = 1e-10,
                      check_every: int = 2000) -> ReferenceSolution:
    """High-accuracy optimum. An uncapped call (``max_iters`` None) is
    ``_fista_reference``, whose ``certified_gap`` bounds ``objective - f*``.
    A capped call (an int ``max_iters``), whatever the penalty, is
    ``_extragradient_reference`` and reports ``certified_gap`` None;
    ``gamma`` and ``check_every`` serve capped calls only."""
    check_dimensions(problem, dataset)
    if max_iters is None:
        return _fista_reference(problem, dataset, tol)
    return _extragradient_reference(problem, dataset, gamma, max_iters, tol,
                                    check_every)


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    window: tuple[int, int]

    def __post_init__(self):
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError("r_squared must lie in [0, 1]")


def fit_rate(iterations, values) -> RateFit:
    """Least-squares slope of log(value) against log(iteration), over the
    iterations from 100 on.

    Non-positive values cannot be logged and are dropped, which shrinks the
    window; raises when fewer than three points survive.
    """
    it = np.asarray(iterations, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    mask = (it >= 100) & (vals > 0.0) & np.isfinite(vals)
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


# task, synthetic kind, penalty source, gamma and regime of each rate family
_RATE_FAMILIES = {
    "convex": ("flr", "fused-signal", "fused", 0.1, "convex"),
    "sc": ("ggrlr", "graph-logistic", "synthetic-graph", 0.05, "sc-nonuniform"),
}


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
    if family not in _RATE_FAMILIES:
        raise ValueError(f"unknown rate family {family!r}")
    task, kind, source, family_gamma, family_regime = _RATE_FAMILIES[family]
    lambda_reg, gamma_reg = TASK_DEFAULTS[task]
    return {"data": {"synthetic": {"kind": kind, "d": d, "n": n, "noise": 0.1,
                                   "seed": data_seed}},
            "penalty": {"source": source},
            "problem": {"task": task, "lambda_reg": lambda_reg, "gamma_reg": gamma_reg},
            "config": {"gamma": family_gamma if gamma is None else gamma,
                       "regime": family_regime if regime is None else regime,
                       "iters": iters, "batch_size": batch_size,
                       "eval_every": eval_every}}


def _gap_curves(built, core: dict, seeds, reference: float):
    """Run the core on its build once per seed; return (iterations,
    objective-gap curves, feasibility-gap curves) stacked over seeds."""
    results = _completed(run_seeds("spdpeg", built, core, seeds))
    return (np.array([r.iteration for r in results[0].trace]),
            np.array([[r.objective for r in res.trace] for res in results])
            - reference,
            np.array([[r.feasibility_gap for r in res.trace] for res in results]))


def _grid_index(iterations: np.ndarray, t: int) -> int:
    """Position of iteration t on a trace grid."""
    return int(np.nonzero(iterations == t)[0][0])


def _reference_report(ref: ReferenceSolution, iterations: np.ndarray,
                      mean_gaps: np.ndarray, fit: RateFit) -> dict:
    """The reference's entries of a regime's report. The trace points in
    the fit window whose mean gap is below 10x the reference's certificate
    are those where the reference's own error may reach a tenth of the
    gap; a non-positive gap counts."""
    lo, hi = fit.window
    in_window = (iterations >= lo) & (iterations <= hi)
    near = in_window & (mean_gaps < 10.0 * ref.certified_gap)
    return {"reference_objective": ref.objective,
            "reference_iterations": ref.iterations,
            "reference_converged": ref.converged,
            "reference_certified_gap": ref.certified_gap,
            "window_points_below_10x_certificate": int(np.sum(near))}


def verify_rates(regimes=("convex", "sc-uniform", "sc-nonuniform"),
                 iters: int = 100_000, seeds: int = 5, base_seed: int = 0,
                 d: int = 20, n: int = 200, eval_every: int = 100,
                 ordering_iteration: int | None = None,
                 gamma: float | None = None) -> dict:
    """Fit empirical convergence slopes for the requested regimes.

    Convex regime: the mean objective gap of the uniformly averaged output
    should decay like 1/sqrt(t). Accelerated strongly convex regime: both
    the objective gap and the feasibility gap of the nonuniformly averaged
    output should decay like 1/t. When both strongly convex regimes are
    requested, their gaps at ``ordering_iteration`` are compared (uniform
    averaging should not beat nonuniform averaging there).
    """
    if seeds < 1 or eval_every < 1:
        raise ValueError(f"seeds and eval_every must be >= 1, got {seeds}, {eval_every}")
    seed_list = [base_seed + i for i in range(seeds)]
    if ordering_iteration is None:
        ordering_iteration = min(10_000, iters)
    if ordering_iteration != iters and ordering_iteration % eval_every != 0:
        raise ValueError("ordering_iteration must land on the trace grid")
    if ("sc-nonuniform" in regimes and "sc-uniform" in regimes
            and ordering_iteration > iters):
        # the sc-nonuniform run that the ordering reads stops at iters
        raise ValueError(f"ordering_iteration {ordering_iteration} lies past "
                         f"iters {iters}")
    report: dict = {"seeds": seed_list, "iters": iters}
    # (family, regime fitted, iterations) of each build. The schedule does
    # not depend on the horizon, so an sc run to iters passes through the
    # ordering iteration with the same bits as a run that stops there
    builds = [("convex", "convex", iters)] if "convex" in regimes else []
    if "sc-nonuniform" in regimes or "sc-uniform" in regimes:
        builds.append(("sc", "sc-nonuniform", iters if "sc-nonuniform" in regimes
                       else ordering_iteration))
    for family, regime, horizon in builds:
        core = rate_core(family, d=d, n=n, gamma=gamma, iters=horizon,
                         eval_every=eval_every)
        built = build_all(core)
        train, _, problem, _ = built
        ref = reference_optimum(problem, train, core["config"]["gamma"])
        its, obj_curves, feas_curves = _gap_curves(built, core, seed_list,
                                                   ref.objective)
        if regime in regimes:
            mean_gaps = obj_curves.mean(axis=0)
            fit = fit_rate(its, mean_gaps)
            entry = {"slope": fit.slope, "r_squared": fit.r_squared,
                     "window": fit.window}
            if family == "sc":
                feas_fit = fit_rate(its, feas_curves.mean(axis=0))
                entry.update(feasibility_slope=feas_fit.slope,
                             feasibility_r_squared=feas_fit.r_squared)
            report[regime] = {**entry, **_reference_report(ref, its, mean_gaps, fit)}
    if "sc-uniform" in regimes:
        # the uniform regime is checked as an ordering against the
        # accelerated one at a fixed iteration count, not as a slope. Its
        # runs take the loop's last build, the sc one: make_config reads L
        # and sigma_max of its constants, and neither depends on the regime
        non_gaps = obj_curves[:, _grid_index(its, ordering_iteration)]
        uni_core = rate_core("sc", d=d, n=n, gamma=gamma, iters=ordering_iteration,
                             eval_every=eval_every, regime="sc-uniform")
        uni_its, uni_curves, _ = _gap_curves(built, uni_core, seed_list,
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
                          seed: int = 0, gamma: float = 0.1,
                          step_scale: float = 1.0) -> dict:
    """Instrument a run and audit the per-step inequality against random
    reference points; returns the worst (minimum) relative slack seen."""
    if mode not in ("stochastic", "deterministic"):
        raise ValueError(f"unknown mode {mode!r}")
    if n_references < 1:
        raise ValueError(f"n_references must be >= 1, got {n_references}")
    if d > 50 or n > 200:
        raise ValueError("inequality sweeps are meant for small instances "
                         "(d <= 50, n <= 200)")
    core = rate_core("convex", d=d, n=n, data_seed=2024, gamma=gamma,
                     iters=steps, eval_every=steps)
    train, _, problem, derived = build_all(core)
    config = replace(make_config(core, derived, seed),
                     full_batch=(mode == "deterministic"))
    # a deliberately divergent step scale still yields an auditable prefix
    # of captured steps
    captures, diverged_at = [], None
    try:
        run_spdpeg(problem, train, config, step_scale=step_scale,
                   captures=captures)
    except DivergenceError as exc:
        diverged_at = exc.iteration
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


def per_iteration_seconds(solver: str, built, core: dict) -> float:
    """Median wall seconds per iteration over three short seed-0 runs of
    ``core`` on ``built``, the ``build_all`` of a core that may differ in
    ``iters`` and ``eval_every``."""
    train, test, problem, derived = built
    config = make_config(core, derived, 0)
    fn = _SOLVER_FNS[solver]
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn(problem, train, config, test)
        times.append((time.perf_counter() - t0) / config.max_iters)
    return float(np.median(times))


def timing_scaling(ns=(1000, 100_000), d: int = 50, iters_stochastic: int = 6000,
                   iters_full: int = 30) -> dict:
    """Per-iteration cost of the stochastic solver vs the full-gradient one
    as the sample count grows; the full-gradient cost scales with n."""
    report: dict = {"ns": list(ns), "spdpeg": {}, "eg-full": {}}
    for n in ns:
        core = rate_core("convex", d=d, n=n, iters=iters_stochastic,
                         eval_every=iters_stochastic)
        built = build_all(core)
        report["spdpeg"][n] = per_iteration_seconds("spdpeg", built, core)
        core_full = rate_core("convex", d=d, n=n, iters=iters_full,
                              eval_every=iters_full)
        report["eg-full"][n] = per_iteration_seconds("eg-full", built, core_full)
    lo, hi = min(ns), max(ns)
    report["spdpeg_ratio"] = report["spdpeg"][hi] / report["spdpeg"][lo]
    report["eg_full_ratio"] = report["eg-full"][hi] / report["eg-full"][lo]
    return report


def comparative_benchmark(d: int = 50, n: int = 1000, iters: int = 10_000,
                          seeds: int = 5, base_seed: int = 0) -> dict:
    """Final objective of the stochastic solvers on the same instance/seeds."""
    core = rate_core("convex", d=d, n=n, iters=iters, eval_every=iters)
    built = build_all(core)
    seed_list = [base_seed + i for i in range(seeds)]
    finals = {s: [r.trace[-1].objective
                  for r in _completed(run_seeds(s, built, core, seed_list))]
              for s in ("spdpeg", "slinadmm")}
    return {"iters": iters, "d": d, "n": n,
            "spdpeg_mean": float(np.mean(finals["spdpeg"])),
            "slinadmm_mean": float(np.mean(finals["slinadmm"])),
            "spdpeg_median": float(np.median(finals["spdpeg"])),
            "slinadmm_median": float(np.median(finals["slinadmm"])),
            "finals": finals}
