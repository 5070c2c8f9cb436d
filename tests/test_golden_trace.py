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
    "convex-b1/spdpeg/seed0": "f1281f9f3fc81c7c388e9a02a8e56409d979ab877ceef3285593bb360b41b356",
    "convex-b1/spdpeg/seed1": "4f2948d09e5660d84b342dca3637d698a2ee18529a7dfd43f9e164673faa04d0",
    "convex-b1/eg-full/seed0": "ad27d0f5f18d3ce4dedb5fa51fbb458c8c50761826a2cae423ef5bfebbf1084e",
    "convex-b1/eg-full/seed1": "ad27d0f5f18d3ce4dedb5fa51fbb458c8c50761826a2cae423ef5bfebbf1084e",
    "convex-b1/slinadmm/seed0": "385aa78c187e56cecff35060ee017d8afab15cfffb4b58c9cbfe0d2b3c1b8e2b",
    "convex-b1/slinadmm/seed1": "c576b1f6bef0f64986b8640b6b750d352ca5b5a094d40df9ead88a6ce5d93f4c",
    "sc-b16/spdpeg/seed0": "d8083d2462d556e5008617286b5ebbcaec65501ba77942041fd6eef03831b828",
    "sc-b16/spdpeg/seed1": "3505615bdc8a9a9e54f2a6070902ca715045834851fd16e41ec3184413ed1f14",
    "sc-b16/eg-full/seed0": "7c0fdd1b6f965894864db85c531ac2797c476693754866b79a039c1e0ccb9a05",
    "sc-b16/eg-full/seed1": "7c0fdd1b6f965894864db85c531ac2797c476693754866b79a039c1e0ccb9a05",
    "sc-b16/slinadmm/seed0": "a33d905ff2d89c29a547e916578ac787cd5a421a1b0095d9769601a241c3f793",
    "sc-b16/slinadmm/seed1": "33a09c8e07b37020750bfd66adee159e0adaa0e7bdb2b5ee30a3a3343ed5ec8c",
    "ls-ragged-b4/spdpeg/seed0": "b13efe61ef41389ebba4d8855b6ca5d4c85f527e1a6efef643033adecef593a9",
    "ls-ragged-b4/spdpeg/seed1": "b069a56feabff349cc3423952a179ca7c62ff244b9441c9a9f4133b8a434b187",
    "ls-ragged-b4/eg-full/seed0": "defe4cd86b30ae38bb4ae69eb7336bc82db1e75945e58347728b127b45d9bbbe",
    "ls-ragged-b4/eg-full/seed1": "defe4cd86b30ae38bb4ae69eb7336bc82db1e75945e58347728b127b45d9bbbe",
    "ls-ragged-b4/slinadmm/seed0": "084c656f6f9069bc2c7ead03ae648f38cc2cb230742f20e79363ed0586f2c37e",
    "ls-ragged-b4/slinadmm/seed1": "ab1c04c27a9dc773e6e447d1a9ea54a04279beac0f49467c3901e47a5e3029d1",
}

XAVG_GOLDEN = {
    "convex-b1/spdpeg/seed0": "f2d81f3c1dc15fb2a05bef6f406c2f991b97241cc73d45690f9901ffef979290",
    "convex-b1/spdpeg/seed1": "b33bac834adf48192e703680335c5d309a3ce506f244e767db8adcff49c48f13",
    "convex-b1/eg-full/seed0": "63ceb0307df830e69207f3916f2cffc561b7825ddfe3369f5ec83026d6f59a36",
    "convex-b1/eg-full/seed1": "63ceb0307df830e69207f3916f2cffc561b7825ddfe3369f5ec83026d6f59a36",
    "convex-b1/slinadmm/seed0": "62fc599cb42dc38609c6a4b51d8d7ad453ea9cda622223082c4cbe18aa0b101a",
    "convex-b1/slinadmm/seed1": "d7395846b11104105e807dc40da76fbedd7a23703c3cac45952b185a4fb4dbb3",
    "sc-b16/spdpeg/seed0": "245cf6f1201b9c99de7e601e4eb5bc426d9462cf23402233fccd335534fe32d5",
    "sc-b16/spdpeg/seed1": "97a27f28b7b3923fc7fc466b0910b314a69a0514cabdc09f1d1e16fe82ae02ea",
    "sc-b16/eg-full/seed0": "8547a043ee179fbfe6015611b02705d1e750abee31ee88d5154cd82951c4ee3b",
    "sc-b16/eg-full/seed1": "8547a043ee179fbfe6015611b02705d1e750abee31ee88d5154cd82951c4ee3b",
    "sc-b16/slinadmm/seed0": "8f4125bc3ffa013904187f760650e4c052507bd2b00328316fa6939e81d8b76c",
    "sc-b16/slinadmm/seed1": "6176e7af48aa71b7b4c0b60355bcaa145766d27a069c19e0867c629142d5a4e0",
    "ls-ragged-b4/spdpeg/seed0": "58823812d28f13a4182adc19d0fd2fecb2dfa56f6da9fbdf47c68fd140ad74b8",
    "ls-ragged-b4/spdpeg/seed1": "f9edfa7f65bcd39bd1ceaaae0ad93a380f42ba1bbdb4559117902ee0c8de7ee7",
    "ls-ragged-b4/eg-full/seed0": "5dd727084f1a3ed5fd2b7402e245f55af58abe459fa4beedf2061cac4c9729dd",
    "ls-ragged-b4/eg-full/seed1": "5dd727084f1a3ed5fd2b7402e245f55af58abe459fa4beedf2061cac4c9729dd",
    "ls-ragged-b4/slinadmm/seed0": "ca135dd0d96328140188ab589e7c81631285ea41883ec5c3dc021eda28dcd68b",
    "ls-ragged-b4/slinadmm/seed1": "fd111397c22221fc04332bd9f39c8d9df8436713eb9472737e2a202f2efc2590",
}

REFERENCE_ITERS = 4000
REFERENCE_CHECK_EVERY = 500
REFERENCE_GOLDEN = {
    "convex-b1": "186c41e62cbc43b98af61ffeb955bfade826981cbd169fd378c3629616ecd459",
    "sc-b16": "6028e69da6b8701e956e3b6265d72fdd26744e44698d2aff95f4e2d8018d118a",
    "ls-ragged-b4": "2045caf16122abeb6d0d5b832de28cd30089147bc79117a9cff51da4df573f07",
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
    "stochastic": "ab1817639a03af8ad0027eb9d2c43f6a82a555da0565c2aa71886b2058a37f08",
    "deterministic": "88b50f6b033a0c7d0beb8af0ccbf8da37a05a004f1a7a758f20ed5e66b20cfe9",
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
    print("GOLDEN")
    for inst, name, seed in CASES:
        print(f'    "{inst}/{name}/seed{seed}": "{run_case(inst, name, seed)}",')
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
