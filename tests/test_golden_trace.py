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
    "convex-b1/spdpeg/seed1": "335b22e9d31672ab21dcd6889e02693f2a3912861d2651714355855b63cb4474",
    "convex-b1/eg-full/seed0": "0eaf13775b2f0cc25f896a8987394ff946e439bbdf6213943d2f7798babd6c74",
    "convex-b1/eg-full/seed1": "0eaf13775b2f0cc25f896a8987394ff946e439bbdf6213943d2f7798babd6c74",
    "convex-b1/slinadmm/seed0": "8deb02235c740e6d37fc232a36c4a6fbbfdd0f5cb567b06edf80dbec486bcbc5",
    "convex-b1/slinadmm/seed1": "b6abeabea25140959c4f7c647f25399c71f5b9421d23581aec9be5f718d74bca",
    "sc-b16/spdpeg/seed0": "6d50fa87758ece2f8b5eb4d0e4265e4657f87d0f37613b7341bcba691d848c2b",
    "sc-b16/spdpeg/seed1": "f83d08dea69a1e60383409143c47639f50414bc2012e21b858744eea0b023644",
    "sc-b16/eg-full/seed0": "134e3cf7a30c371445535637f1533cd4145d2ece243de9dca4d34407bd64142d",
    "sc-b16/eg-full/seed1": "134e3cf7a30c371445535637f1533cd4145d2ece243de9dca4d34407bd64142d",
    "sc-b16/slinadmm/seed0": "5e766565661e22da7a6699aa9e82dcc41358d0d2a073b79844d33ca514bc7c0d",
    "sc-b16/slinadmm/seed1": "16a9ff33ac478b416c33e8d8d16167b94a84890cab10118195b73ded1c2b43fc",
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
    "convex-b1/eg-full/seed0": "55f53184e344fd5c368222b711cc94e2fd0405005545273791b02ed4c20c5129",
    "convex-b1/eg-full/seed1": "55f53184e344fd5c368222b711cc94e2fd0405005545273791b02ed4c20c5129",
    "convex-b1/slinadmm/seed0": "d33dc8fa40ba882f203159402af285af5aae636119eebdccd499d547ded0c6b4",
    "convex-b1/slinadmm/seed1": "758483b957b3bd8695cf40b2994ac62a5ff0ba1b2567a8bc5906256fb002ebca",
    "sc-b16/spdpeg/seed0": "7cb018a1d140206ff1debc965c9b549e5c9d3e48ed70fd60b4ce4911d9fab647",
    "sc-b16/spdpeg/seed1": "49fcedd60903167c68ce36086a5cd3dbb208c0c962fdc0dbd0fd59deaf493122",
    "sc-b16/eg-full/seed0": "ea8070ab4bf537ebfd89b42112044ec08faa3fd61baf7d32cedeba5402e1154f",
    "sc-b16/eg-full/seed1": "ea8070ab4bf537ebfd89b42112044ec08faa3fd61baf7d32cedeba5402e1154f",
    "sc-b16/slinadmm/seed0": "c1c3045c51ddfb964b747442cb47931b683f1814a4fb6a02e7e057aff2cf943f",
    "sc-b16/slinadmm/seed1": "70b12f89c460b25ab16a46cc63f33e10221b46eba17572cc6cacac8814ed306f",
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
    "convex-b1": "020ce0cbec332ddffbf2e03f3982bdc57d0f16eca22993fe2186d8c0a0867c05",
    "sc-b16": "1605dc40385a4ed2ee9e3c37c04ef9632f7ef2bd3c92c160b4dfffa7f837065e",
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
