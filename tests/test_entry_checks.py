"""Inputs are checked once, where a run enters; the iterations run kernels.

``solver.drive`` (so ``solver.run``, ``baselines.run_eg_full`` and
``baselines.run_stoch_linadmm``) and ``bench.reference_optimum``, capped or
certified, check the penalty width and the test set's dimension before their
loops. The loops then call the kernels of ``SparseMatrix.products``, the
resolved proxes, ``oracles.draw_kernel`` and ``oracles._gradient_over_rows``,
never the checked public wrappers, which trace evaluation still calls. That
holds on rows of either layout: ``Dataset.dense_rows`` and ragged CSR rows,
whose full passes run the data matrix's ``products`` kernels.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import count_calls, ragged_copy
from spdpeg import bench, oracles, prox, solver
from spdpeg.baselines import run_eg_full, run_stoch_linadmm
from spdpeg.data import synthesize
from spdpeg.model import Problem, SolverConfig
from spdpeg.penalties import build_fused_matrix
from spdpeg.prox import ProxSpec
from spdpeg.sparse import SparseMatrix

D = 6
SOLVERS = {"spdpeg": solver.run, "eg-full": run_eg_full,
           "slinadmm": run_stoch_linadmm}


def reference(problem, dataset, config, test_dataset=None):
    # the reference's loop behind the solvers' signature
    return bench.reference_optimum(problem, dataset, config.gamma,
                                   max_iters=config.max_iters, check_every=10)


def certified(problem, dataset, config, test_dataset=None):
    # the uncapped reference: FISTA, with the TV prox on a fused penalty with
    # no ball, else with the dual prox
    return bench.reference_optimum(problem, dataset, config.gamma)


ENTRIES = {**SOLVERS, "reference": reference, "certified": certified}


def instance(penalty=None, batch_size=1, iters=30, ragged=False):
    dataset, _, _ = synthesize("fused-signal", D, 40, 0.1, 7)
    if ragged:
        dataset = ragged_copy(dataset, 5)
    problem = Problem("logistic", ProxSpec("l1", 1e-3), ProxSpec("l1", 1e-2),
                      build_fused_matrix(D) if penalty is None else penalty)
    config = SolverConfig(gamma=0.1, regime="convex", max_iters=iters, seed=3,
                          lipschitz_L=1.0, sigma_max_FtF=4.0,
                          batch_size=batch_size, eval_every=10)
    return problem, dataset, config


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("cols", [D - 1, D + 1, 0])
def test_entries_reject_a_penalty_of_the_wrong_width(entry, cols):
    penalty = SparseMatrix(0, cols, [0], [], []) if cols == 0 else build_fused_matrix(cols)
    problem, dataset, config = instance(penalty)
    with pytest.raises(ValueError, match=f"penalty has {cols} columns but the "
                                         f"dataset dimension is {D}"):
        ENTRIES[entry](problem, dataset, config)


@pytest.mark.parametrize("entry", SOLVERS)
def test_solvers_reject_a_test_set_of_another_dimension(entry):
    problem, dataset, config = instance()
    other, _, _ = synthesize("fused-signal", D + 1, 20, 0.1, 8)
    with pytest.raises(ValueError, match="train and test dimensions differ"):
        SOLVERS[entry](problem, dataset, config, other)


@pytest.mark.parametrize("entry", ENTRIES)
def test_an_empty_penalty_runs_as_a_penalty_of_stored_zeros(entry):
    # with no stored entry the kernels fill float zeros where bincount would
    # return int64; a penalty that stores zeros gives the same bits, since
    # each of its sums starts from 0.0
    empty = SparseMatrix(3, D, [0, 0, 0, 0], [], [])
    zeros = SparseMatrix(3, D, [0, 1, 2, 3], [0, 2, 5], [0.0, -0.0, 0.0])
    got, want = (ENTRIES[entry](*instance(penalty)) for penalty in (empty, zeros))
    if entry in ("reference", "certified"):
        assert got.x.tobytes() == want.x.tobytes()
        assert got.objective == want.objective
        if entry == "certified":
            assert got.converged
            assert got.certified_gap <= 1e-10 * max(1.0, abs(got.objective))
        return
    for name in ("x_avg", "z_avg", "lambda_avg"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == np.float64 and a.tobytes() == b.tobytes(), name
    assert got.state.z.dtype == np.float64


CHECKED = [(SparseMatrix, "matvec"), (SparseMatrix, "rmatvec"),
           (prox, "apply_prox"), (prox, "prox_l1"),
           (oracles, "stochastic_gradient"), (oracles, "full_gradient"),
           (oracles, "_check_x")]


CASES = [("spdpeg", 1, "l1", None), ("spdpeg", 4, "squared-l2", 0.5),
         ("eg-full", 1, "none", None), ("slinadmm", 1, "l1", None),
         ("slinadmm", 4, "squared-l2", 0.5), ("reference", 1, "l1", 0.5),
         ("certified", 1, "l1", None), ("certified", 1, "squared-l2", 0.5)]


@pytest.mark.parametrize("entry,batch_size,r1,radius,ragged", [
    pytest.param(*case, ragged,
                 id="-".join(map(str, case)) + ("-ragged" if ragged else ""))
    for ragged in (False, True) for case in CASES])
def test_iterations_call_no_checked_wrapper(monkeypatch, entry, batch_size,
                                            r1, radius, ragged):
    outside, inside, evaluating = {}, {}, []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls = inside if evaluating else outside
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def evaluation(fn):
        def wrapper(*args, **kwargs):
            evaluating.append(1)
            try:
                return fn(*args, **kwargs)
            finally:
                evaluating.pop()
        return wrapper

    for owner, name in CHECKED:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    monkeypatch.setattr(solver, "evaluate_trace_record",
                        evaluation(solver.evaluate_trace_record))
    monkeypatch.setattr(bench, "objective_value",
                        evaluation(bench.objective_value))
    certificates = count_calls(monkeypatch, oracles, "objective_and_gap")
    monkeypatch.setattr(oracles, "objective_and_gap",
                        evaluation(oracles.objective_and_gap))
    problem, dataset, config = instance(batch_size=batch_size, iters=40,
                                        ragged=ragged)
    problem = replace(problem, r1=ProxSpec(r1, 0.0 if r1 == "none" else 0.05),
                      feasible_radius=radius)
    ENTRIES[entry](problem, dataset, config)
    assert outside == {}
    if entry == "certified":
        # its checkpoints run kernels too
        assert certificates and inside == {}
        return
    # the counters are live: evaluation still goes through the checks
    assert inside["matvec"] > 0
