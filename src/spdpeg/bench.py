"""Benchmark harness: run orchestration, manifests, and rate verification.

Every run is described by a JSON-able config dict (the "core") holding the
data source, penalty source, problem parameters, and solver parameters.
Every seed loop is ``run_jobs`` on one ``build_all`` of its core, made in
the calling process (``SPDPEG_THREADS`` worker processes receive that
build and never build); a diverged run stops only itself.
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
from numbers import Real
from pathlib import Path

import numpy as np

from . import __version__, oracles
from .baselines import run_eg_full, run_stoch_linadmm
from .data import (SplitSpec, normalize_features, parse_libsvm, split, split_order,
                   synthesize)
from .model import (LOSS_LOGISTIC, REGIMES, Dataset, Problem, SolverConfig,
                    estimate_lipschitz)
from .penalties import (GraphSpec, build_fused_matrix, build_graph_matrix,
                        load_penalty, precision_graph_from_data)
from .prox import ProxSpec, prox_dual, prox_fused
from .solver import run as run_spdpeg
from .solver import (DivergenceError, check_step_inequality, kernels, make_schedule,
                     relative_slack, trace_grid, update_extragradient, update_z)
from .sparse import EPS, SparseMatrix
from .trace import TRACE_COLUMNS, TraceRecord, read_trace_csv, write_trace_csv

_SOLVER_FNS = {
    "spdpeg": run_spdpeg,
    "eg-full": run_eg_full,
    "slinadmm": run_stoch_linadmm,
}
SOLVERS = tuple(_SOLVER_FNS)
# synthetic kind, penalty source and default regime of each task's instance
TASK_INSTANCES = {
    "flr": ("fused-signal", "fused", "convex"),
    "ggrlr": ("graph-logistic", "synthetic-graph", "sc-nonuniform"),
}
TASKS = tuple(TASK_INSTANCES)
TASK_DEFAULTS = {  # (lambda_reg for r2, gamma_reg for r1/ridge)
    "flr": (5e-3, 5e-4),
    "ggrlr": (1e-5, 1e-2),
}
SYNTH_NOISE = 0.1  # the label noise of a synthetic instance that names none

# Every key of a core, by section, as (kind,) or (kind, default). A kind is
# a JSON type (int: within int64; float: a finite number; Real: any
# number, for a key whose constructor rejects a non-finite one; str,
# bool), a list of one kind, a tuple of the allowed values or a function
# of the object that gives them, a dict describing a nested object, or
# None for an object that its reader checks. Bounds are left to the
# constructors that the builders call (SplitSpec, synthesize, Problem,
# SolverConfig). A key with no default may be absent: it is off, or its
# reader needs it, and reading it names its path.
CORE = {
    "data": {"path": (str,), "synthetic": ({"kind": (str,), "d": (int,), "n": (int,),
                                           "noise": (Real,), "seed": (int,)},),
             "sha256": (str, None), "normalize": (bool, False), "split": (bool, False),
             "train_fraction": (Real, 0.8), "split_seed": (int,)},
    "penalty": {"source": (("fused", "synthetic-graph", "precision", "file"),),
                "path": (str,), "sha256": (str, None), "ridge": (float, 1e-2),
                "threshold": (float, 1e-3)},
    "problem": {"task": (TASKS,), "lambda_reg": (Real,), "gamma_reg": (Real,),
                "feasible_radius": (float, None)},
    "config": {"gamma": (float,), "regime": (str,), "iters": (int,),
               "batch_size": (int, 1), "eval_every": (int, 100)},
}
_RUN = {"solver": (str,), "seed": (int,), "diverged_at": (int,), "error": (str,),
        "trace_file": (lambda entry: (trace_filename(entry["solver"], entry["seed"]),),),
        "final_objective": (float,), "max_dual_norm": (float,),
        **dict.fromkeys(("wall_seconds", "final_x_avg", "final_z_avg",
                         "final_lambda_avg"), ([float],))}
# the constants of ``build_all``; the replay compares each with the one it
# derives
_DERIVED = dict.fromkeys(("lipschitz_data", "lipschitz_L", "sigma_max_FtF",
                          "L_tilde"), (float,))
MANIFEST = {"format": (str,), "schema": (int,), "version": (str,), "solvers": ([str],),
            "seeds": ([int],), "core": (None,), "derived": (_DERIVED,),
            "runs": ([_RUN],)}
_KIND_NAMES = {int: "64-bit integer", float: "finite number", Real: "number",
               str: "string", bool: "boolean"}
TRACE_FILE_RE = re.compile(r"trace_(?P<solver>[a-z\-]+)_seed(?P<seed>\d+)\.csv$")


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _check_sha256(kind: str, path, expect: str | None) -> None:
    """A ValueError unless the file at ``path`` has the sha256 ``expect``,
    when one is given."""
    digest = _sha256_file(path) if expect else expect
    if digest != expect:
        raise ValueError(f"{kind} file {path} hash mismatch: {digest}")


# ---------------------------------------------------------------------------
# building problems from config dicts


def _fits(value, kind) -> bool:
    """Whether ``value`` is a JSON value of ``kind``, a type or a list of
    one: a bool is no number and a float no integer."""
    if type(value) is int:
        return kind in (int, float, Real) and -2 ** 63 <= value < 2 ** 63
    if isinstance(kind, list):
        return isinstance(value, list) and all(_fits(v, kind[0]) for v in value)
    if isinstance(value, float):
        return kind is Real or kind is float and math.isfinite(value)
    return type(value) is kind


class _Checked(dict):
    """An object that ``checked`` passed, at ``path``; reading a key that it
    lacks is a ValueError that names the key's path."""

    def __missing__(self, key):
        raise ValueError(f"{self.path}.{key} is missing")


def checked(section, spec: dict | None, path: str) -> dict:
    """``section``, the object at ``path``, with the defaults of the keys
    of ``spec`` (a section of ``CORE``, or ``MANIFEST``) filled in. One ValueError
    names the first key that ``spec`` lacks or the first value of the
    wrong kind, in nested objects too. An absent key with no default stays
    absent, and reading it from the result (or from a nested object of
    it) is a ValueError that names its path."""
    if not isinstance(section, dict):
        raise ValueError(f"{path} must be an object")
    if spec is None:  # an object that its reader checks
        return section
    out = _Checked({key: leaf[1] for key, leaf in spec.items() if len(leaf) > 1} | section)
    out.path = path
    for key, value in section.items():
        if key not in spec:
            raise ValueError(f"{path} has unknown key {key!r}")
        kind, where = spec[key][0], f"{path}.{key}"
        if isinstance(kind, type) or isinstance(kind, list) and isinstance(kind[0], type):
            if not _fits(value, kind):
                name = (f"a list of {_KIND_NAMES[kind[0]]}s" if isinstance(kind, list)
                        else f"a {_KIND_NAMES[kind]}")
                raise ValueError(f"{where} must be {name}, got {value!r}")
        elif kind is None or isinstance(kind, dict):
            out[key] = checked(value, kind, where)
        elif isinstance(kind, list):  # a list of objects
            if not _fits(value, [dict]):
                raise ValueError(f"{where} must be a list of objects")
            out[key] = [checked(item, kind[0], f"{where}[{i}]")
                        for i, item in enumerate(value)]
        else:
            allowed = kind if isinstance(kind, tuple) else kind(out)
            if value not in allowed:
                raise ValueError(f"{where}: unknown {key} {value!r}, not in {allowed}")
    return out


def build_data(data_cfg: dict) -> tuple[Dataset, Dataset, GraphSpec | None]:
    """Return (train, test, graph); test equals train when split is off,
    and a synthetic split is two views of one array (``synthesize``)."""
    data_cfg = checked(data_cfg, CORE["data"], "core.data")
    spec = (SplitSpec(data_cfg["train_fraction"], data_cfg["split_seed"])
            if data_cfg["split"] else None)
    if "synthetic" in data_cfg:
        for key in ("path", "sha256", "normalize"):  # a data file's keys, if set
            if data_cfg.get(key) not in (None, False):
                raise ValueError(f"core.data.{key} belongs to a data file and "
                                 "cannot be given beside core.data.synthetic")
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
    _check_sha256("data", path, data_cfg["sha256"])
    with open(path, "r", encoding="utf-8") as fh:
        dataset = parse_libsvm(fh)
    if data_cfg["normalize"]:
        dataset, _ = normalize_features(dataset)
    if spec is None:
        return dataset, dataset, None
    return (*split(dataset, spec), None)


def build_penalty(pen_cfg: dict, train: Dataset,
                  graph: GraphSpec | None) -> SparseMatrix:
    pen_cfg = checked(pen_cfg, CORE["penalty"], "core.penalty")
    source = pen_cfg["source"]
    if source == "fused":
        return build_fused_matrix(train.dimension)
    if source == "synthetic-graph":
        if graph is None:
            raise ValueError("no synthetic graph available; use a graph-logistic "
                             "synthetic dataset or another penalty source")
        return build_graph_matrix(graph)
    if source == "precision":
        return build_graph_matrix(precision_graph_from_data(
            train, pen_cfg["ridge"], pen_cfg["threshold"]))
    _check_sha256("penalty", pen_cfg["path"], pen_cfg["sha256"])  # the file source
    return load_penalty(pen_cfg["path"])


def build_problem(problem_cfg: dict, penalty: SparseMatrix) -> Problem:
    problem_cfg = checked(problem_cfg, CORE["problem"], "core.problem")
    lambda_reg = problem_cfg["lambda_reg"]
    gamma_reg = problem_cfg["gamma_reg"]
    radius = problem_cfg["feasible_radius"]
    if problem_cfg["task"] == "flr":
        return Problem(LOSS_LOGISTIC, ProxSpec("l1", gamma_reg),
                       ProxSpec("l1", lambda_reg), penalty,
                       feasible_radius=radius)
    # the quadratic regularizer is folded into the loss, which is what makes
    # the smooth part strongly convex with mu = ridge = gamma_reg
    return Problem(LOSS_LOGISTIC, ProxSpec("none"), ProxSpec("l1", lambda_reg),
                   penalty, ridge=gamma_reg, feasible_radius=radius)


def derive_constants(problem: Problem, train: Dataset) -> dict:
    """The data constants of a problem on its training set, which no
    regime changes. The row norms are cached on ``train`` and
    ``SparseMatrix.sigma_max_FtF`` on ``problem.penalty``, so deriving
    again costs nothing."""
    lips_data = estimate_lipschitz(train, problem.loss)
    return {"lipschitz_data": lips_data,
            "lipschitz_L": max(lips_data + problem.ridge, 1e-12),
            "sigma_max_FtF": problem.penalty.sigma_max_FtF}


def make_config(core: dict, derived: dict, seed: int) -> SolverConfig:
    sc = checked(core["config"], CORE["config"], "core.config")
    return SolverConfig(gamma=sc["gamma"], regime=sc["regime"],
                        max_iters=sc["iters"], seed=seed,
                        lipschitz_L=derived["lipschitz_L"],
                        sigma_max_FtF=derived["sigma_max_FtF"],
                        batch_size=sc["batch_size"], eval_every=sc["eval_every"])


def build_all(core: dict):
    """Rebuild (train, test, problem, derived) from a core config dict:
    ``derived`` holds the data constants and the L_tilde of the runs'
    schedule, so a bad config is an error of the build. Each section is
    checked where it enters its builder, the config in ``make_config``."""
    core = checked(core, dict.fromkeys(CORE, (None,)), "core")
    train, test, graph = build_data(core["data"])
    penalty = build_penalty(core["penalty"], train, graph)
    problem = build_problem(core["problem"], penalty)
    derived = derive_constants(problem, train)
    derived["L_tilde"] = make_schedule(problem, make_config(core, derived, 0)).L_tilde
    return train, test, problem, derived


def objective_value(problem: Problem, dataset: Dataset, x: np.ndarray) -> float:
    """Training objective: loss (with any folded ridge) + both regularizers."""
    x = oracles._check_x(dataset, x)
    return oracles.objective_from_margins(problem, dataset.labels,
                                          oracles.margins(dataset, x), x,
                                          problem.penalty.matvec(x))


# ---------------------------------------------------------------------------
# runs and manifests


def trace_filename(solver: str, seed: int) -> str:
    return f"trace_{solver}_seed{seed}.csv"


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


def _run_job(built, solver: str, config: SolverConfig):
    train, test, problem, _ = built
    try:
        return _SOLVER_FNS[solver](problem, train, config, test)
    except DivergenceError as exc:
        return exc


_pool_build = None  # the build that a run_jobs worker received


def _receive_build(built) -> None:
    global _pool_build
    _pool_build = built


def _pool_job(job):
    return _run_job(_pool_build, *job)


def max_workers(n_jobs: int) -> int:
    """``SPDPEG_THREADS``, an integer (below 1 means 1), capped at n_jobs."""
    threads = os.environ.get("SPDPEG_THREADS", "1")
    try:
        return max(1, min(int(threads), n_jobs))
    except ValueError:
        raise ValueError(f"SPDPEG_THREADS must be an integer, got {threads!r}") from None


def run_jobs(core: dict, built, jobs) -> list:
    """Run each (solver, seed) job on ``built``, the tuple ``build_all``
    returned in the caller (for ``core``, or for a core that differs in
    its config only); return each job's SolverResult, or the
    DivergenceError that stopped it, in job order. The configs are made
    here; with ``max_workers`` above 1 the jobs run in a process pool whose
    workers receive ``built`` (inherited under fork, pickled under spawn),
    so no worker builds."""
    for solver, _ in jobs:
        if solver not in SOLVERS:
            raise ValueError(f"unknown solver {solver!r}")
    jobs = [(solver, make_config(core, built[3], seed)) for solver, seed in jobs]
    workers = max_workers(len(jobs))
    if workers == 1:
        return [_run_job(built, *job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers, initializer=_receive_build,
                             initargs=(built,)) as pool:
        return list(pool.map(_pool_job, jobs))


def run_suite(core: dict, solvers, seeds, out_dir) -> dict:
    """Run the (solver, seed) grid on one build of the core and return the
    manifest dict."""
    jobs = [(s, seed) for s in solvers for seed in seeds]
    if not jobs:
        raise ValueError("run_suite needs at least one solver and one seed")
    built = build_all(core)
    results = run_jobs(core, built, jobs)
    os.makedirs(out_dir, exist_ok=True)
    entries = [_suite_entry(s, seed, r, out_dir)
               for (s, seed), r in zip(jobs, results)]
    return {"format": "spdpeg-manifest", "schema": 1, "version": __version__,
            "core": core, "derived": built[3], "solvers": list(solvers),
            "seeds": [int(s) for s in seeds], "runs": entries}


def write_manifest(manifest: dict, out_dir) -> str:
    path = os.path.join(out_dir, "manifest.json")
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


def load_manifest(path) -> dict:
    """The run manifest at ``path``, checked against ``MANIFEST``; its core
    is checked where ``build_all`` reads it."""
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or manifest.get("format") != "spdpeg-manifest":
        raise ValueError(f"{path} is not a run manifest")
    return checked(manifest, MANIFEST, "manifest")


def replay_manifest(manifest_path, out_dir) -> list[str]:
    """Recompute every run in a manifest on one build of its core; each run
    must give its recorded entry again (a divergence at its iteration).
    Recorded wall times are reused, so each rewritten trace file must also
    be byte-identical to the recorded one next to the manifest, if there is
    one; they are read before a rerun into the same directory writes. A
    key that the replay reads and the manifest lacks is a ValueError that
    names its path (``checked``)."""
    here = Path(manifest_path).parent
    manifest = load_manifest(manifest_path)
    core, runs = manifest["core"], manifest["runs"]
    jobs = [(e["solver"], e["seed"]) for e in runs]
    built = build_all(core)
    # in derivation order, so a changed sigma_max_FtF is named, not the
    # L_tilde that follows from it
    for key, value in built[3].items():
        expect = manifest["derived"][key]
        if value != expect:
            raise ValueError(f"derived constant {key} changed: manifest "
                             f"has {expect!r}, recomputed {value!r}")
    results = run_jobs(core, built, jobs)
    recorded = {e["trace_file"]: (here / e["trace_file"]).read_bytes()
                for e in runs
                if "trace_file" in e and (here / e["trace_file"]).is_file()}
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for entry, (solver, seed), result in zip(runs, jobs, results):
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
               + (n + d) * EPS * np.trace(gram)) / n
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
    (``oracles.duality_gap``), and the run stops once that gap is at most
    tol * max(1, |f|) or no lower than two checks before, or after
    ``UNCAPPED_ITERS``; ``converged`` says that one of the first two
    happened. A gap no lower than two checks before has reached the floor
    that the rounding allowance of its dual point sets (``err_w`` in
    ``oracles.objective_and_gap``, through the dual scaling)."""
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
        f, gap = oracles.objective_and_gap(problem, dataset, kern.F, kern.Ft,
                                           x, nu / step)
        if gap <= tol * max(1.0, abs(f)) or gap >= before:
            converged = True
            break
        before, last = last, gap
    return ReferenceSolution(f, x, iterations, converged, gap)


def _extragradient_reference(problem: Problem, dataset: Dataset, gamma: float,
                             max_iters: int, tol: float,
                             check_every: int) -> ReferenceSolution:
    """``update_z`` and ``update_extragradient`` (which projects onto any
    feasible ball) at the constant step c = 1/(1 + L_tilde), with the
    L_tilde of a convex schedule and full gradients, for ``max_iters``
    iterations at most: the scheduled solvers shrink their steps, while
    this last iterate settles geometrically. The objective is evaluated
    every ``check_every`` iterations, and the run stops once it changes by
    at most tol (relative) between checks. Returns the best iterate seen,
    with no certificate."""
    # the config's max_iters and seed enter no schedule
    data = derive_constants(problem, dataset)
    config = SolverConfig(gamma, "convex", 1, 0, data["lipschitz_L"], data["sigma_max_FtF"])
    c = 1.0 / (1.0 + make_schedule(problem, config).L_tilde)
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
    oracles.check_dimensions(problem, dataset)
    if max_iters is None:
        return _fista_reference(problem, dataset, tol)
    return _extragradient_reference(problem, dataset, gamma, max_iters, tol,
                                    check_every)


# the first iteration of a rate fit's window
FIT_START = 100
# the strongly convex regimes are ordered at the last trace point at or
# below this iteration (the grid's first point if none is)
ORDERING_AT = 10_000


def fit_rate(iterations, values) -> dict:
    """Least-squares slope of log(value) against log(iteration), over the
    iterations from ``FIT_START`` on, as a report's ``slope``,
    ``r_squared`` (clamped to [0, 1]) and ``window`` entries.

    Non-positive values cannot be logged and are dropped, which shrinks the
    window; raises when fewer than three points survive.
    """
    it = np.asarray(iterations, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    mask = (it >= FIT_START) & (vals > 0.0) & np.isfinite(vals)
    if mask.sum() < 3:
        raise ValueError(f"a rate-fit window needs at least three trace points from "
                         f"iteration {FIT_START} on, each with a positive, finite "
                         f"value; got {int(mask.sum())}")
    x = np.log(it[mask])
    y = np.log(vals[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return {"slope": float(slope), "r_squared": max(0.0, min(1.0, r2)),
            "window": (int(it[mask].min()), int(it[mask].max()))}


# task and gamma of each rate family
_RATE_FAMILIES = {"convex": ("flr", 0.1), "sc": ("ggrlr", 0.05)}
# the default size and data seed of the rate cores, which verify_rates and a
# run given no data take too
INSTANCE = {"d": 20, "n": 200, "data_seed": 12345}


def rate_core(family: str, d: int = INSTANCE["d"], n: int = INSTANCE["n"],
              data_seed: int = INSTANCE["data_seed"], gamma: float | None = None,
              iters: int = 100_000, regime: str | None = None, **config) -> dict:
    """Core config for the rate-verification instances; ``config`` holds
    further keys of its config section (``batch_size``, ``eval_every``),
    and one not given takes its ``CORE`` default.

    convex family: fused-penalty logistic regression, no strong convexity.
    sc family: graph-guided logistic regression with the quadratic folded in
    (mu = 1e-2). The augmented-Lagrangian gamma defaults keep
    gamma * sigma_max(F^T F) around or below one, which keeps the
    step-dependent bracket coefficients nonnegative from the first step.
    """
    if family not in _RATE_FAMILIES:
        raise ValueError(f"unknown rate family {family!r}")
    task, family_gamma = _RATE_FAMILIES[family]
    kind, source, task_regime = TASK_INSTANCES[task]
    lambda_reg, gamma_reg = TASK_DEFAULTS[task]
    return {"data": {"synthetic": {"kind": kind, "d": d, "n": n, "noise": SYNTH_NOISE,
                                   "seed": data_seed}},
            "penalty": {"source": source},
            "problem": {"task": task, "lambda_reg": lambda_reg, "gamma_reg": gamma_reg},
            "config": {"gamma": family_gamma if gamma is None else gamma,
                       "regime": task_regime if regime is None else regime,
                       "iters": iters, **config}}


def _seed_curves(built, core: dict, solver: str, seeds):
    """Run ``solver`` on ``core`` and its build once per seed, raising the
    first divergence; return (iterations, objective curves, feasibility-gap
    curves) stacked over seeds."""
    results = run_jobs(core, built, [(solver, s) for s in seeds])
    for result in results:
        if isinstance(result, DivergenceError):
            raise result
    return (np.array([r.iteration for r in results[0].trace]),
            np.array([[r.objective for r in res.trace] for res in results]),
            np.array([[r.feasibility_gap for r in res.trace] for res in results]))


def _reference_report(ref: ReferenceSolution, iterations: np.ndarray,
                      mean_gaps: np.ndarray, fit: dict) -> dict:
    """The reference's entries of a regime's report. The trace points in
    the fit window whose mean gap is below 10x the reference's certificate
    are those where the reference's own error may reach a tenth of the
    gap; a non-positive gap counts."""
    lo, hi = fit["window"]
    in_window = (iterations >= lo) & (iterations <= hi)
    near = in_window & (mean_gaps < 10.0 * ref.certified_gap)
    return {"reference_objective": ref.objective,
            "reference_iterations": ref.iterations,
            "reference_converged": ref.converged,
            "reference_certified_gap": ref.certified_gap,
            "window_points_below_10x_certificate": int(np.sum(near))}


def verify_rates(regimes=REGIMES, iters: int = 100_000, seeds: int = 5,
                 base_seed: int = 0, d: int = INSTANCE["d"], n: int = INSTANCE["n"],
                 eval_every: int = CORE["config"]["eval_every"][1],
                 gamma: float | None = None) -> dict:
    """Fit empirical convergence slopes for the requested regimes.

    Convex regime: the mean objective gap of the uniformly averaged output
    should decay like 1/sqrt(t). Accelerated strongly convex regime: both
    the objective gap and the feasibility gap of the nonuniformly averaged
    output should decay like 1/t. The uniform strongly convex regime is
    compared with it at the ordering point, the last point of the trace
    grid at or below ``ORDERING_AT`` (uniform averaging should not beat
    nonuniform averaging there).
    """
    if seeds < 1 or eval_every < 1:
        raise ValueError(f"seeds and eval_every must be >= 1, got {seeds}, {eval_every}")
    if not regimes or not set(regimes) <= set(REGIMES):
        raise ValueError(f"regimes must be a nonempty subset of {REGIMES}, "
                         f"got {regimes!r}")
    seed_list = [base_seed + i for i in range(seeds)]
    grid = trace_grid(iters, eval_every)
    ordering = max((t for t in grid if t <= ORDERING_AT), default=grid[0])
    points = sum(t >= FIT_START for t in grid)
    if points < 3 and {"convex", "sc-nonuniform"} & set(regimes):
        raise ValueError(f"a rate fit needs at least three trace points from "
                         f"iteration {FIT_START} on; iters {iters} at eval_every "
                         f"{eval_every} gives {points}")
    report: dict = {"seeds": seed_list, "iters": iters}
    # (family, regime fitted, iterations) of each build. The schedule does
    # not depend on the horizon, so an sc run to iters passes through the
    # ordering point with the same bits as a run that stops there
    builds = [("convex", "convex", iters)] if "convex" in regimes else []
    if "sc-nonuniform" in regimes or "sc-uniform" in regimes:
        builds.append(("sc", "sc-nonuniform",
                       iters if "sc-nonuniform" in regimes else ordering))
    for family, regime, horizon in builds:
        core = rate_core(family, d=d, n=n, gamma=gamma, iters=horizon,
                         eval_every=eval_every)
        built = build_all(core)
        train, _, problem, _ = built
        ref = reference_optimum(problem, train, core["config"]["gamma"])
        its, objectives, feasibility = _seed_curves(built, core, "spdpeg", seed_list)
        gaps = objectives - ref.objective
        if regime in regimes:
            mean_gaps = gaps.mean(axis=0)
            entry = fit_rate(its, mean_gaps)
            if family == "sc":
                feas_fit = fit_rate(its, feasibility.mean(axis=0))
                entry.update(feasibility_slope=feas_fit["slope"],
                             feasibility_r_squared=feas_fit["r_squared"])
            report[regime] = {**entry, **_reference_report(ref, its, mean_gaps, entry)}
        if family == "sc" and "sc-uniform" in regimes:
            # the uniform regime is checked as an ordering against the
            # accelerated one, not as a slope. Its runs take the sc build
            # and reference: make_config reads L and sigma_max of its
            # constants, and neither depends on the regime
            uni_core = rate_core("sc", d=d, n=n, gamma=gamma, iters=ordering,
                                 eval_every=eval_every, regime="sc-uniform")
            uni_gaps = _seed_curves(built, uni_core, "spdpeg",
                                    seed_list)[1][:, -1] - ref.objective
            non_gaps = gaps[:, its.tolist().index(ordering)]
            report["ordering"] = {
                "iteration": ordering,
                "gap_uniform_median": float(np.median(uni_gaps)),
                "gap_nonuniform_median": float(np.median(non_gaps)),
                "gap_uniform_mean": float(np.mean(uni_gaps)),
                "gap_nonuniform_mean": float(np.mean(non_gaps))}
    return report


# ---------------------------------------------------------------------------
# per-step inequality sweep


# the least relative slack of the per-step inequality that passes the audit
SLACK_THRESHOLD = -1e-8


def step_inequality_sweep(d: int = 20, n: int = 100, steps: int = 1000,
                          n_references: int = 10, mode: str = "stochastic",
                          seed: int = 0, gamma: float | None = None,
                          step_scale: float = 1.0) -> dict:
    """Instrument a run and audit the per-step inequality against random
    reference points; returns the worst (minimum) relative slack seen.
    ``gamma`` None takes the convex rate family's."""
    if mode not in ("stochastic", "deterministic"):
        raise ValueError(f"unknown mode {mode!r}")
    if n_references < 1:
        raise ValueError(f"n_references must be >= 1, got {n_references}")
    if not 0 < step_scale < math.inf:
        raise ValueError(f"step_scale must be finite and > 0, got {step_scale}")
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
        reports = check_step_inequality(cap, problem, train, config, references)
        for rep in reports:
            min_rel = min(min_rel, relative_slack(rep))
            min_abs = min(min_abs, rep.slack)
        # the brackets depend on the step, not on the reference
        flagged += int(reports[0].coefficient_negative)
    return {"mode": mode, "steps": len(captures), "references": n_references,
            "d": d, "n": n, "step_scale": step_scale,
            "min_relative_slack": min_rel, "min_slack": min_abs,
            "coefficient_negative_steps": flagged, "diverged_at": diverged_at,
            "threshold": SLACK_THRESHOLD, "passed": bool(min_rel >= SLACK_THRESHOLD)}


# ---------------------------------------------------------------------------
# trace aggregation for figures


def collect_trace_files(paths) -> list[tuple[str, int, list[TraceRecord]]]:
    """(solver, seed, records) of each trace file, in path order; a
    (solver, seed) that two files hold is a ValueError naming both."""
    out, seen = [], {}
    for path in sorted(str(p) for p in paths):
        match = TRACE_FILE_RE.search(os.path.basename(path))
        if match is None:
            raise ValueError(f"trace filename {path!r} does not follow "
                             "trace_<solver>_seed<seed>.csv")
        key = match["solver"], int(match["seed"])
        if key in seen:
            raise ValueError(f"trace files {seen[key]!r} and {path!r} both hold "
                             f"{key[0]} seed {key[1]}")
        seen[key] = path
        out.append((*key, read_trace_csv(path)))
    if not out:
        raise ValueError("no trace files given")
    return out


# the float columns of a trace
PLOT_METRICS = TRACE_COLUMNS[2:]


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


def plotdata_paths(out_path) -> tuple[str, str]:
    """The long and the aggregate CSV that ``write_plotdata`` writes for
    ``out_path``."""
    root, ext = os.path.splitext(str(out_path))
    return str(out_path), f"{root}_agg{ext or '.csv'}"


def write_plotdata(paths, out_path) -> tuple[str, str]:
    import csv

    traces = collect_trace_files(paths)
    long_rows, agg_rows = aggregate_traces(traces)
    long_path, agg_path = plotdata_paths(out_path)
    with open(long_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("solver", "metric", "iteration", "seed", "value"))
        for row in long_rows:
            w.writerow(row[:4] + (repr(float(row[4])),))
    with open(agg_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("solver", "metric", "iteration", "mean", "stderr", "n_seeds"))
        for solver, metric, iteration, mean, stderr, n in agg_rows:
            w.writerow((solver, metric, iteration, repr(mean), repr(stderr), n))
    return long_path, agg_path


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
    finals = {s: _seed_curves(built, core, s, seed_list)[1][:, -1].tolist()
              for s in ("spdpeg", "slinadmm")}
    return {"iters": iters, "d": d, "n": n,
            "spdpeg_mean": float(np.mean(finals["spdpeg"])),
            "slinadmm_mean": float(np.mean(finals["slinadmm"])),
            "spdpeg_median": float(np.median(finals["spdpeg"])),
            "slinadmm_median": float(np.median(finals["slinadmm"])),
            "finals": finals}
