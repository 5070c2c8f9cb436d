"""Comparison solvers on the shared driver, trace schema and averaging.

Both baselines run through ``solver.drive``, which owns the loop, the
trace cadence and the final averages, and resolves a run's schedule,
kernels, gamma and drawn gradient (with its random stream) once.
``run_eg_full`` is the deterministic limit of the extra-gradient solver
(both gradient draws replaced by the full gradient), so its per-iteration
cost scales with the dataset size. ``run_stoch_linadmm`` supplies only its
step, built from those: a single-draw linearized stochastic ADMM, that is
one prox-gradient step on the full augmented Lagrangian linearization,
then the exact z block and a dual ascent step, with uniform averaging.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import solver
from .model import Dataset, Problem, SolverConfig
from .solver import SolverResult, advance, step_size, update_z


def run_eg_full(problem: Problem, dataset: Dataset, config: SolverConfig,
                test_dataset: Dataset | None = None) -> SolverResult:
    """Extra-gradient run with full gradients in both prox-gradient steps."""
    return solver.run(problem, dataset, replace(config, full_batch=True),
                      test_dataset)


def run_stoch_linadmm(problem: Problem, dataset: Dataset, config: SolverConfig,
                      test_dataset: Dataset | None = None) -> SolverResult:
    """Stochastic linearized ADMM with the same schedule family.

    Per iteration: one gradient draw; x steps through the prox of r1 along
    the drawn gradient minus F^T lambda plus the linearized penalty
    gamma * F^T (F x - z); then the exact z block at the new x and a dual
    step. Averages (x, z, lambda) uniformly.
    """
    def make_step(schedule, kern, gamma, gradient):
        # F x of the current iterate, carried over from the previous step;
        # each step size is a 0-d array, as gamma is: see ``solver``
        fx = kern.F(np.zeros(dataset.dimension))

        def step(state):
            nonlocal fx
            c = step_size(schedule, state.k)
            direction = (gradient(state.x) - kern.Ft(state.lam)
                         + gamma * kern.Ft(fx - state.z))
            x_next = kern.prox_r1(state.x - np.array(c) * direction, c)
            fx = kern.F(x_next)
            z_next = update_z(kern, gamma, fx, state.lam)
            lam_next = state.lam - gamma * (fx - z_next)
            advance(state, 1, x_next, lam_next, x_next, z_next, lam_next)
        return step

    return solver.drive(problem, dataset, config, test_dataset, make_step)
