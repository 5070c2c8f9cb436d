"""The block-drawn sample stream against one generator call per gradient.

``solver.drive`` hands its steps a ``SampleStream``, which draws the
sample indices ``SAMPLE_BLOCK`` rows at a time. Every row must be the
array that one ``integers(0, n, size=batch)`` call on the same generator
would have returned, inside a block, across block boundaries and at the
end of a run that stops inside a block. A counting generator pins how
few calls that takes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from spdpeg import solver as solver_mod
from spdpeg.baselines import run_eg_full, run_stoch_linadmm
from spdpeg.model import Dataset, Problem, SolverConfig, estimate_lipschitz
from spdpeg.penalties import build_fused_matrix
from spdpeg.prox import ProxSpec
from spdpeg.solver import SAMPLE_BLOCK, SampleStream, run
from spdpeg.sparse import power_iteration_sigma_max

SIZES = [1, 2, 200, 80_000]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("batch", [1, 16])
def test_stream_rows_are_the_per_call_draws(n, batch):
    # two block boundaries crossed, and the last block left part used
    stream = SampleStream(np.random.default_rng(n + batch))
    rng = np.random.default_rng(n + batch)
    for _ in range(2 * SAMPLE_BLOCK + 37):
        want = rng.integers(0, n, size=batch)
        got = stream.integers(0, n, size=batch)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_stream_serves_one_range_and_size():
    stream = SampleStream(np.random.default_rng(0))
    stream.integers(0, 10, size=1)
    for args in ((0, 11, 1), (0, 10, 2), (1, 10, 1)):
        with pytest.raises(ValueError, match="stream draws"):
            stream.integers(*args)


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


class _Recorder:
    """Passes requests to ``source`` and keeps a copy of every row served."""

    def __init__(self, source):
        self.source = source
        self.rows = []

    def integers(self, low, high, size):
        row = self.source.integers(low, high, size=size)
        self.rows.append(row.copy())
        return row


def _recorded_run(monkeypatch, solve, instance, blocked):
    made = []

    def stream(rng):
        made.append(_Recorder(SampleStream(rng) if blocked else rng))
        return made[-1]

    monkeypatch.setattr(solver_mod, "SampleStream", stream)
    result = solve(*instance)
    monkeypatch.undo()
    (recorder,) = made
    return result, recorder.rows


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
