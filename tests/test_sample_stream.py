"""The block-drawn batches of a run against one generator call per gradient.

``solver.drawn_gradient`` draws the sample indices ``SAMPLE_BLOCK`` batches
at a time. Every batch must be the array that one ``integers(0, n,
size=batch)`` call on the same generator would have returned, inside a
block, across block boundaries and at the end of a run that stops inside a
block. A counting generator pins how few calls that takes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from spdpeg import oracles
from spdpeg import solver as solver_mod
from spdpeg.baselines import run_eg_full, run_stoch_linadmm
from spdpeg.model import Dataset, Problem, SolverConfig, estimate_lipschitz
from spdpeg.penalties import build_fused_matrix
from spdpeg.prox import ProxSpec
from spdpeg.solver import SAMPLE_BLOCK, drawn_gradient, run
from spdpeg.sparse import power_iteration_sigma_max

SIZES = [1, 2, 200, 80_000]


def _instance(n, batch, iters, seed=3, d=3):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    dataset = Dataset.from_dense_rows(features, labels)
    penalty = build_fused_matrix(d)
    problem = Problem("logistic", ProxSpec("l1", 1e-3), ProxSpec("l1", 1e-2),
                      penalty)
    config = SolverConfig(gamma=0.1, regime="convex", max_iters=iters, seed=5,
                          lipschitz_L=estimate_lipschitz(dataset, "logistic"),
                          sigma_max_FtF=power_iteration_sigma_max(penalty),
                          batch_size=batch, eval_every=iters)
    return problem, dataset, config


def _recording_kernels(monkeypatch):
    """Make every ``oracles.draw_kernel`` keep a copy of the rows it is
    served; returns that list."""
    served = []
    real = oracles.draw_kernel

    def draw_kernel(problem, dataset, batch_size):
        kernel = real(problem, dataset, batch_size)

        def recorded(x, rows):
            served.append(rows.copy())
            return kernel(x, rows)
        return recorded

    monkeypatch.setattr(oracles, "draw_kernel", draw_kernel)
    return served


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("batch", [1, 16])
def test_stream_rows_are_the_per_call_draws(monkeypatch, n, batch):
    # two block boundaries crossed, and the last block left part used
    problem, dataset, config = _instance(n, batch, 1)
    served = _recording_kernels(monkeypatch)
    gradient = drawn_gradient(problem, dataset, config,
                              np.random.default_rng(n + batch))
    x = np.zeros(dataset.dimension)
    for _ in range(2 * SAMPLE_BLOCK + 37):
        gradient(x)
    rng = np.random.default_rng(n + batch)
    assert len(served) == 2 * SAMPLE_BLOCK + 37
    for got in served:
        want = rng.integers(0, n, size=batch)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _per_call_gradient(problem, dataset, config, rng):
    """``solver.drawn_gradient`` with one ``integers`` call per gradient."""
    kernel = oracles.draw_kernel(problem, dataset, config.batch_size)
    n, b = dataset.n_samples, config.batch_size
    return lambda v: kernel(v, rng.integers(0, n, size=b))


def _recorded_run(monkeypatch, solve, instance, blocked):
    served = _recording_kernels(monkeypatch)
    if not blocked:
        monkeypatch.setattr(solver_mod, "drawn_gradient", _per_call_gradient)
    result = solve(*instance)
    monkeypatch.undo()
    return result, served


# SPDPEG draws twice per step and SLinADMM once; 300 and 600 steps both
# give 600 draws, past the first block boundary and not a multiple of it
@pytest.mark.parametrize("solve,iters", [(run, 300), (run_stoch_linadmm, 600)],
                         ids=["spdpeg", "slinadmm"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("batch", [1, 16])
def test_runs_draw_the_per_call_indices(monkeypatch, solve, iters, n, batch):
    assert iters * (2 if solve is run else 1) == 600 > SAMPLE_BLOCK
    instance = _instance(n, batch, iters)
    blocked, rows = _recorded_run(monkeypatch, solve, instance, blocked=True)
    per_call, want = _recorded_run(monkeypatch, solve, instance, blocked=False)
    assert len(rows) == len(want) == 600
    assert all(a.tobytes() == b.tobytes() for a, b in zip(rows, want))
    assert blocked.x_avg.tobytes() == per_call.x_avg.tobytes()
    assert blocked.state.x.tobytes() == per_call.state.x.tobytes()
    assert ([r.objective for r in blocked.trace]
            == [r.objective for r in per_call.trace])


@pytest.mark.parametrize("solve,draws", [(run, 2000), (run_stoch_linadmm, 1000),
                                         (run_eg_full, 0)],
                         ids=["spdpeg", "slinadmm", "eg-full"])
def test_generator_calls_per_run(monkeypatch, solve, draws):
    instance = _instance(200, 1, 1000)
    made = []
    real = np.random.default_rng

    class CountingGenerator:
        def __init__(self, seed):
            self.rng = real(seed)
            self.calls = 0
            made.append(self)

        def integers(self, *args, **kwargs):
            self.calls += 1
            return self.rng.integers(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    solve(*instance)
    assert [g.calls for g in made] == [math.ceil(draws / SAMPLE_BLOCK)]
