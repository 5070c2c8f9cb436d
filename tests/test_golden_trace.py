"""Golden traces: the solvers' outputs on a fixed grid, pinned to the bit.

Each case runs one solver for a few hundred iterations and hashes its trace
CSV (without the ``wall_seconds`` column, the only one that may vary between
runs) together with ``x_avg.tobytes()``. A refactor or a speedup that keeps
these digests keeps every trace byte-identical.

The ``xavg/`` pins hold each case's trajectory apart from its evaluation:
the sha256 of ``x_avg``, the final ``x`` and the final ``lam``. A change to
how the trace columns are evaluated (the objective or test loss) moves a
``golden/`` digest but none of these; a change to a step moves both.

The grid is 3 solvers x 2 seeds x 3 instances:
- ``convex-b1``: the convex rate family (fused logistic) at batch size 1;
- ``sc-b16``: the strongly convex rate family (graph-guided logistic) at
  batch size 16;
- ``ls-ragged-b4``: least squares on rows of unequal length, one of them
  empty, at batch size 4, evaluated on a separate test set.

Two more loops are pinned the same way:
- ``bench.reference_optimum`` on the problem and training set of each of
  the 3 instances, capped at ``REFERENCE_ITERS`` iterations: the digest
  covers ``x.tobytes()``, the objective, the iteration count and the
  converged flag (the convex instance runs to the cap, the other two stop
  early);
- ``bench.step_inequality_sweep`` in stochastic mode, in deterministic mode
  and at a step scale that diverges part-way: the digest covers the whole
  report, floats in their round-trip ``repr``.

The digests pin the rounding of one numpy/BLAS build: they are the
``golden/``, ``xavg/``, ``reference/`` and ``sweep/`` pins of
``tests/data/pins.json`` (see ``conftest`` for how to rewrite one).
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import PIN_FILE, csr_dataset
from spdpeg import baselines, bench, solver
from spdpeg.model import (LOSS_LEAST_SQUARES, Dataset, Problem, SolverConfig,
                          estimate_lipschitz)
from spdpeg.penalties import build_fused_matrix
from spdpeg.prox import ProxSpec
from spdpeg.sparse import power_iteration_sigma_max
from spdpeg.trace import TRACE_COLUMNS, write_trace_csv

ITERS = 300
EVAL_EVERY = 50
SEEDS = (0, 1)
SOLVER_FNS = {"spdpeg": solver.run, "eg-full": baselines.run_eg_full,
              "slinadmm": baselines.run_stoch_linadmm}
REFERENCE_ITERS = 4000
REFERENCE_CHECK_EVERY = 500
SWEEPS = {
    "stochastic": dict(d=8, n=40, steps=60, n_references=3,
                       mode="stochastic", seed=1),
    "deterministic": dict(d=8, n=40, steps=30, n_references=2,
                          mode="deterministic", seed=1),
    "divergent": dict(d=8, n=40, steps=30, n_references=2, seed=1,
                      step_scale=100.0),
}


def _ragged_dataset(rng: np.random.Generator, n: int, d: int,
                    empty_row: int) -> Dataset:
    lengths = rng.integers(1, d + 1, size=n)
    lengths[empty_row] = 0
    indices = np.concatenate([np.sort(rng.choice(d, size=k, replace=False))
                              for k in lengths])
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    data = rng.standard_normal(indices.size)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return csr_dataset(indptr, indices, data, labels, d)


def _ragged_instance():
    rng = np.random.default_rng(4242)
    d = 12
    train = _ragged_dataset(rng, 60, d, empty_row=7)
    test = _ragged_dataset(rng, 30, d, empty_row=0)
    penalty = build_fused_matrix(d)
    ridge = 1e-2
    problem = Problem(LOSS_LEAST_SQUARES, ProxSpec("l1", 1e-3),
                      ProxSpec("l1", 1e-3), penalty, ridge=ridge)
    config = SolverConfig(gamma=0.1, regime="sc-uniform", max_iters=ITERS,
                          seed=0, lipschitz_L=estimate_lipschitz(
                              train, LOSS_LEAST_SQUARES) + ridge,
                          sigma_max_FtF=power_iteration_sigma_max(penalty),
                          batch_size=4, eval_every=EVAL_EVERY)
    return problem, train, test, config


def _rate_instance(family: str, batch_size: int):
    core = bench.rate_core(family, iters=ITERS, eval_every=EVAL_EVERY,
                           batch_size=batch_size)
    train, test, problem, derived = bench.build_all(core)
    return problem, train, test, bench.make_config(core, derived, 0)


INSTANCES = {
    "convex-b1": lambda: _rate_instance("convex", 1),
    "sc-b16": lambda: _rate_instance("sc", 16),
    "ls-ragged-b4": _ragged_instance,
}


@functools.lru_cache(maxsize=None)
def run_result(instance: str, solver_name: str, seed: int):
    """One run per case, shared by the trace and the iterate digests."""
    problem, train, test, config = INSTANCES[instance]()
    test_dataset = None if test is train else test
    return SOLVER_FNS[solver_name](problem, train, replace(config, seed=seed),
                                   test_dataset)


CASES = [(inst, name, seed) for inst in INSTANCES for name in SOLVER_FNS
         for seed in SEEDS]


@pytest.mark.parametrize("instance,solver_name,seed", CASES)
def test_trace_matches_golden(instance, solver_name, seed, pinned, tmp_path):
    # sha256 of the trace CSV without wall_seconds, then x_avg
    result = run_result(instance, solver_name, seed)
    write_trace_csv(tmp_path / "trace.csv", result.trace)
    wall = TRACE_COLUMNS.index("wall_seconds")
    h = hashlib.sha256()
    for line in (tmp_path / "trace.csv").read_bytes().splitlines(keepends=True):
        fields = line.split(b",")
        h.update(b",".join(fields[:wall] + fields[wall + 1:]))
    h.update(result.x_avg.tobytes())
    pinned(f"golden/{instance}/{solver_name}/seed{seed}", h.hexdigest())


@pytest.mark.parametrize("instance,solver_name,seed", CASES)
def test_iterates_match_golden(instance, solver_name, seed, pinned):
    # sha256 of x_avg, the final x and the final lam
    result = run_result(instance, solver_name, seed)
    h = hashlib.sha256(result.x_avg.tobytes())
    h.update(result.state.x.tobytes())
    h.update(result.state.lam.tobytes())
    pinned(f"xavg/{instance}/{solver_name}/seed{seed}", h.hexdigest())


def test_golden_covers_grid():
    grid = sorted(f"{i}/{n}/seed{s}" for i, n, s in CASES)
    names = json.loads(PIN_FILE.read_text(encoding="utf-8"))["pins"]
    for prefix in ("golden/", "xavg/"):
        assert sorted(n[len(prefix):] for n in names if n.startswith(prefix)) == grid


@pytest.mark.parametrize("instance", list(INSTANCES))
def test_reference_matches_golden(instance, pinned):
    # sha256 of the capped reference's x, objective, iterations, converged
    problem, train, _, config = INSTANCES[instance]()
    ref = bench.reference_optimum(problem, train, config.gamma,
                                  max_iters=REFERENCE_ITERS,
                                  check_every=REFERENCE_CHECK_EVERY)
    h = hashlib.sha256(ref.x.tobytes())
    h.update(repr((ref.objective, ref.iterations, ref.converged)).encode())
    pinned(f"reference/{instance}", h.hexdigest())


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_matches_golden(name, pinned):
    report = bench.step_inequality_sweep(**SWEEPS[name])
    pinned(f"sweep/{name}",
           hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest())
