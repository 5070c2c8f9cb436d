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
    "convex-b1/spdpeg/seed0": "e913a0f26364b865c6ed491b5ec556df459a0d79188a15d999520fe0c0b0893e",
    "convex-b1/spdpeg/seed1": "f7b4eaa3c266b73af4c0eda276d5030e6a45b978460f8a6ed2825280dbca7664",
    "convex-b1/eg-full/seed0": "07ea4f5e66f89977d1d2019ee8d5a17017248246c9a14d4d9964172da23b2183",
    "convex-b1/eg-full/seed1": "07ea4f5e66f89977d1d2019ee8d5a17017248246c9a14d4d9964172da23b2183",
    "convex-b1/slinadmm/seed0": "8deb02235c740e6d37fc232a36c4a6fbbfdd0f5cb567b06edf80dbec486bcbc5",
    "convex-b1/slinadmm/seed1": "b6abeabea25140959c4f7c647f25399c71f5b9421d23581aec9be5f718d74bca",
    "sc-b16/spdpeg/seed0": "87e99656bbb4e9ab4752e90d542ad0b531b1f5e5023898a5820069ce0d93ba1d",
    "sc-b16/spdpeg/seed1": "5d9d2ead44890900ad0edb710282af015e2e3093d6690a252ec37fb3d098aa97",
    "sc-b16/eg-full/seed0": "647975f88e25170451ba0cb52f5352baabb5642a17137e23d97a89dfef5b2d7f",
    "sc-b16/eg-full/seed1": "647975f88e25170451ba0cb52f5352baabb5642a17137e23d97a89dfef5b2d7f",
    "sc-b16/slinadmm/seed0": "084e4e5f1302ac2b77ec81df529db58b590ad6fd70183baeb68d22af60685358",
    "sc-b16/slinadmm/seed1": "e534e4dab7339c46b507fd3b28b11143b87db34eca1405031ab27c1ffe3dc2aa",
    "ls-ragged-b4/spdpeg/seed0": "b13efe61ef41389ebba4d8855b6ca5d4c85f527e1a6efef643033adecef593a9",
    "ls-ragged-b4/spdpeg/seed1": "b069a56feabff349cc3423952a179ca7c62ff244b9441c9a9f4133b8a434b187",
    "ls-ragged-b4/eg-full/seed0": "defe4cd86b30ae38bb4ae69eb7336bc82db1e75945e58347728b127b45d9bbbe",
    "ls-ragged-b4/eg-full/seed1": "defe4cd86b30ae38bb4ae69eb7336bc82db1e75945e58347728b127b45d9bbbe",
    "ls-ragged-b4/slinadmm/seed0": "084c656f6f9069bc2c7ead03ae648f38cc2cb230742f20e79363ed0586f2c37e",
    "ls-ragged-b4/slinadmm/seed1": "ab1c04c27a9dc773e6e447d1a9ea54a04279beac0f49467c3901e47a5e3029d1",
}

XAVG_GOLDEN = {
    "convex-b1/spdpeg/seed0": "7ee669449507dcf22022277800c706a6f13f63e8fd085eabe1a741ae1c2aaf46",
    "convex-b1/spdpeg/seed1": "387ab84629252a5d1e660e88786ed4e1b0d56997e2c249388ed02ef33fe31bfc",
    "convex-b1/eg-full/seed0": "1253f9cb24c22718b2d3f84de64a95107bf45c82d8b8afc08eefe4f807f4face",
    "convex-b1/eg-full/seed1": "1253f9cb24c22718b2d3f84de64a95107bf45c82d8b8afc08eefe4f807f4face",
    "convex-b1/slinadmm/seed0": "d33dc8fa40ba882f203159402af285af5aae636119eebdccd499d547ded0c6b4",
    "convex-b1/slinadmm/seed1": "758483b957b3bd8695cf40b2994ac62a5ff0ba1b2567a8bc5906256fb002ebca",
    "sc-b16/spdpeg/seed0": "41e35bf44ca4ecf9275a6f5de3d36750e1685a1ae34ffa5513f38c67874fe645",
    "sc-b16/spdpeg/seed1": "1051f1cabee69e5a8e39058a4946451a087693ef56bc9bee35477a6f0621caf0",
    "sc-b16/eg-full/seed0": "d5776d4b5001d5933dd91bde9ae21dfbef0627331fd85b50cea046b2b30c59b3",
    "sc-b16/eg-full/seed1": "d5776d4b5001d5933dd91bde9ae21dfbef0627331fd85b50cea046b2b30c59b3",
    "sc-b16/slinadmm/seed0": "ceb18a10938f01824488cd5be5619c1c7912890a93e5deded90bb4eea3877800",
    "sc-b16/slinadmm/seed1": "4af0027fa91f414a72186f329334f90c5f27f601e0120965f65df2601b77b23d",
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
    "convex-b1": "e095694b089e3abbd2235abd5f6df0ae73f7257643864d3c1189d535b71c74f6",
    "sc-b16": "c3e4acaa0063ae5add453a483c16008a6c3ed590c9d1a177731e084019a52d06",
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
    "stochastic": "c5dace119c5e80d4972a16b542d2c9125b21d1325e56ad95181e08c37176b2b9",
    "deterministic": "ce280c627768f923723a8a8db9a06b4498aa90d6c6550e8d8bc8ebab42919922",
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
