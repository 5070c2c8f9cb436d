"""Golden traces: the solvers' outputs on a fixed grid, pinned to the bit.

Each case runs one solver for a few hundred iterations and hashes its trace
CSV (without the ``wall_seconds`` column, the only one that may vary between
runs) together with ``x_avg.tobytes()``. A refactor or a speedup that keeps
these digests keeps every trace byte-identical.

``XAVG_GOLDEN`` pins each case's trajectory apart from its evaluation: the
sha256 of ``x_avg``, the final ``x`` and the final ``lam``. A change to how
the trace columns are evaluated (the objective or test loss) moves a
``GOLDEN`` digest but none of these; a change to a step moves both.

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

The digests pin the rounding of one numpy/BLAS build. Regenerate them with
``PYTHONPATH=src python tests/test_golden_trace.py`` only on a commit whose
traces are known to be right, and say so in the change that does it.
Regenerate only the digests the change is meant to move.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest

from conftest import csr_dataset
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

GOLDEN = {
    "convex-b1/spdpeg/seed0": "e913a0f26364b865c6ed491b5ec556df459a0d79188a15d999520fe0c0b0893e",
    "convex-b1/spdpeg/seed1": "f7b4eaa3c266b73af4c0eda276d5030e6a45b978460f8a6ed2825280dbca7664",
    "convex-b1/eg-full/seed0": "56c6786a71a0d94c06fe64efe636dcb78396329910ec4a463bb54bddaf2004d0",
    "convex-b1/eg-full/seed1": "56c6786a71a0d94c06fe64efe636dcb78396329910ec4a463bb54bddaf2004d0",
    "convex-b1/slinadmm/seed0": "8deb02235c740e6d37fc232a36c4a6fbbfdd0f5cb567b06edf80dbec486bcbc5",
    "convex-b1/slinadmm/seed1": "b6abeabea25140959c4f7c647f25399c71f5b9421d23581aec9be5f718d74bca",
    "sc-b16/spdpeg/seed0": "1083247c4476be85ea77a4d6ee5e0b9684686880663cb698f92e3ae14b6a76ea",
    "sc-b16/spdpeg/seed1": "3383357fd733f4e6257466ae541e6db49c4db9c34149d8c872ddab6c8e2fb0ea",
    "sc-b16/eg-full/seed0": "6327008f825d6ac08b1f36210f8e0ec1c919407d5b0e89e38c2eae6d6a356714",
    "sc-b16/eg-full/seed1": "6327008f825d6ac08b1f36210f8e0ec1c919407d5b0e89e38c2eae6d6a356714",
    "sc-b16/slinadmm/seed0": "8e0ab6e7d8e402d2f02e0207ee4a7caed52676ea0aac3bf49b89642e35336642",
    "sc-b16/slinadmm/seed1": "ab0990813a6e89a18a1aa00117ad35a4b710c6738c9dff5d9f99453d72ee3b9e",
    "ls-ragged-b4/spdpeg/seed0": "e8d49b6db59d8557119e772a54cc0f510998370bebd933a474b560b0a23299c7",
    "ls-ragged-b4/spdpeg/seed1": "3df856c31834209c89215a3463617b4516e81819c9ef743ab1e03f5d776d0fe7",
    "ls-ragged-b4/eg-full/seed0": "8bfb49ac3ba1f8c917f4d9334ed4cf1234f4f79584b3c2dc474e11e0039a4d0b",
    "ls-ragged-b4/eg-full/seed1": "8bfb49ac3ba1f8c917f4d9334ed4cf1234f4f79584b3c2dc474e11e0039a4d0b",
    "ls-ragged-b4/slinadmm/seed0": "efdbcefc14e7fa2f5bbf273cdff2bb9c09581b650216e9eb84df95ce68930bd0",
    "ls-ragged-b4/slinadmm/seed1": "b0b2da844f7ca71ced4d40f1a9ca5079a7004f12535ea0368123fdf68ba3d7f1",
}

XAVG_GOLDEN = {
    "convex-b1/spdpeg/seed0": "7ee669449507dcf22022277800c706a6f13f63e8fd085eabe1a741ae1c2aaf46",
    "convex-b1/spdpeg/seed1": "387ab84629252a5d1e660e88786ed4e1b0d56997e2c249388ed02ef33fe31bfc",
    "convex-b1/eg-full/seed0": "7cc29c0078dcdd4a2af569318638ae8fc90fac071ed2876193b52730c7dceccc",
    "convex-b1/eg-full/seed1": "7cc29c0078dcdd4a2af569318638ae8fc90fac071ed2876193b52730c7dceccc",
    "convex-b1/slinadmm/seed0": "d33dc8fa40ba882f203159402af285af5aae636119eebdccd499d547ded0c6b4",
    "convex-b1/slinadmm/seed1": "758483b957b3bd8695cf40b2994ac62a5ff0ba1b2567a8bc5906256fb002ebca",
    "sc-b16/spdpeg/seed0": "1018884e5e812cb665aa4f8befe188869d07591cf5915599b849a5d66185ac65",
    "sc-b16/spdpeg/seed1": "8e7710f68b995afac98b74a0ae6c8587648799a5e5ba427681149d56d3338e60",
    "sc-b16/eg-full/seed0": "d37d907469adfba6dfad6ecf55253ce6bc176e89539eda5f85f31ef90a5bf641",
    "sc-b16/eg-full/seed1": "d37d907469adfba6dfad6ecf55253ce6bc176e89539eda5f85f31ef90a5bf641",
    "sc-b16/slinadmm/seed0": "a28de418ba39eb2196f9854ccf09db6329aebd339c43763cde75f3f07ebed738",
    "sc-b16/slinadmm/seed1": "2159d2e47466412c1b9dbbdf65bb8db2c59b1818ec830bc4922b789ec13122bf",
    "ls-ragged-b4/spdpeg/seed0": "58823812d28f13a4182adc19d0fd2fecb2dfa56f6da9fbdf47c68fd140ad74b8",
    "ls-ragged-b4/spdpeg/seed1": "f9edfa7f65bcd39bd1ceaaae0ad93a380f42ba1bbdb4559117902ee0c8de7ee7",
    "ls-ragged-b4/eg-full/seed0": "eb66a500c6e62ca7340bc8e4f7a5d43ddc61e7628e078cda9f843c47ec1c279f",
    "ls-ragged-b4/eg-full/seed1": "eb66a500c6e62ca7340bc8e4f7a5d43ddc61e7628e078cda9f843c47ec1c279f",
    "ls-ragged-b4/slinadmm/seed0": "ca135dd0d96328140188ab589e7c81631285ea41883ec5c3dc021eda28dcd68b",
    "ls-ragged-b4/slinadmm/seed1": "fd111397c22221fc04332bd9f39c8d9df8436713eb9472737e2a202f2efc2590",
}

REFERENCE_ITERS = 4000
REFERENCE_CHECK_EVERY = 500
REFERENCE_GOLDEN = {
    "convex-b1": "2251be6edfff2a49e5fd5ceb5cdee35e14038a6ec8256c70febe78f3f9ffaaae",
    "sc-b16": "a743d7dec8efbd3899aedd5ddd8e8157a0ebd7848559c2e2493c973a4d1f4caf",
    "ls-ragged-b4": "92a19c13cd965f4e70a5e0a0473eaa5a7f4cec668a20dcf85a7e836da527e9e3",
}

SWEEPS = {
    "stochastic": dict(d=8, n=40, steps=60, n_references=3,
                       mode="stochastic", seed=1),
    "deterministic": dict(d=8, n=40, steps=30, n_references=2,
                          mode="deterministic", seed=1),
    "divergent": dict(d=8, n=40, steps=30, n_references=2, seed=1,
                      step_scale=100.0),
}
SWEEP_GOLDEN = {
    "stochastic": "c5dace119c5e80d4972a16b542d2c9125b21d1325e56ad95181e08c37176b2b9",
    "deterministic": "8125179d4bf5de8a44edf471f4a9566c00471a6e83cd3dd35d025194f471a0e2",
    "divergent": "1fee75651200c8004f3b502ebec113e7b562fdd66ae7d9298ebfae41e295385b",
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
                      ProxSpec("l1", 1e-3), penalty, ridge=ridge,
                      strong_convexity_mu=ridge)
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


def trace_digest(result) -> str:
    """sha256 of the trace CSV without ``wall_seconds``, then ``x_avg``."""
    wall = TRACE_COLUMNS.index("wall_seconds")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_trace_csv(path, result.trace)
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
    h = hashlib.sha256()
    for line in lines:
        fields = line.split(b",")
        h.update(b",".join(fields[:wall] + fields[wall + 1:]))
    h.update(result.x_avg.tobytes())
    return h.hexdigest()


def iterate_digest(result) -> str:
    """sha256 of ``x_avg``, the final ``x`` and the final ``lam``."""
    h = hashlib.sha256(result.x_avg.tobytes())
    h.update(result.state.x.tobytes())
    h.update(result.state.lam.tobytes())
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def run_result(instance: str, solver_name: str, seed: int):
    """One run per case, shared by the trace and the iterate digests."""
    problem, train, test, config = INSTANCES[instance]()
    test_dataset = None if test is train else test
    return SOLVER_FNS[solver_name](problem, train, replace(config, seed=seed),
                                   test_dataset)


def run_case(instance: str, solver_name: str, seed: int) -> str:
    return trace_digest(run_result(instance, solver_name, seed))


CASES = [(inst, name, seed) for inst in INSTANCES for name in SOLVER_FNS
         for seed in SEEDS]


@pytest.mark.parametrize("instance,solver_name,seed", CASES)
def test_trace_matches_golden(instance, solver_name, seed):
    key = f"{instance}/{solver_name}/seed{seed}"
    assert run_case(instance, solver_name, seed) == GOLDEN[key]


@pytest.mark.parametrize("instance,solver_name,seed", CASES)
def test_iterates_match_golden(instance, solver_name, seed):
    key = f"{instance}/{solver_name}/seed{seed}"
    assert (iterate_digest(run_result(instance, solver_name, seed))
            == XAVG_GOLDEN[key])


def test_golden_covers_grid():
    grid = sorted(f"{i}/{n}/seed{s}" for i, n, s in CASES)
    assert sorted(GOLDEN) == grid
    assert sorted(XAVG_GOLDEN) == grid


def reference_digest(instance: str) -> str:
    """sha256 of the capped reference's x, objective, iterations, converged."""
    problem, train, _, config = INSTANCES[instance]()
    ref = bench.reference_optimum(problem, train, config.gamma,
                                  max_iters=REFERENCE_ITERS,
                                  check_every=REFERENCE_CHECK_EVERY)
    h = hashlib.sha256(ref.x.tobytes())
    h.update(repr((ref.objective, ref.iterations, ref.converged)).encode())
    return h.hexdigest()


def sweep_digest(name: str) -> str:
    report = bench.step_inequality_sweep(**SWEEPS[name])
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("instance", list(INSTANCES))
def test_reference_matches_golden(instance):
    assert reference_digest(instance) == REFERENCE_GOLDEN[instance]


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_matches_golden(name):
    assert sweep_digest(name) == SWEEP_GOLDEN[name]


if __name__ == "__main__":
    for inst, name, seed in CASES:
        print(f'    "{inst}/{name}/seed{seed}": "{run_case(inst, name, seed)}",',
              file=sys.stdout)
    print("XAVG_GOLDEN")
    for inst, name, seed in CASES:
        digest = iterate_digest(run_result(inst, name, seed))
        print(f'    "{inst}/{name}/seed{seed}": "{digest}",')
    print("REFERENCE_GOLDEN")
    for inst in INSTANCES:
        print(f'    "{inst}": "{reference_digest(inst)}",')
    print("SWEEP_GOLDEN")
    for name in SWEEPS:
        print(f'    "{name}": "{sweep_digest(name)}",')
