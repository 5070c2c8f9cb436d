"""Comparison solvers sharing the trace schema and averaging contract.

``run_eg_full`` is the deterministic limit of the extra-gradient solver
(both gradient draws replaced by the full gradient), so its per-iteration
cost scales with the dataset size. ``run_stoch_linadmm`` is a single-draw
linearized stochastic ADMM: one prox-gradient step on the full augmented
Lagrangian linearization, then the exact z block and a dual ascent step,
with uniform averaging.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from . import oracles, solver
from .model import Dataset, Problem, SolverConfig
from .prox import apply_prox
from .solver import (DIVERGENCE_LIMIT, DivergenceError, SolverResult, SolverState,
                     evaluate_trace_record, initial_state, make_schedule,
                     project_ball, step_size)
from .trace import TraceRecord


def run_eg_full(problem: Problem, dataset: Dataset, config: SolverConfig,
                test_dataset: Dataset | None = None,
                step_scale: float = 1.0) -> SolverResult:
    """Extra-gradient run with full gradients in both prox-gradient steps."""
    return solver.run(problem, dataset, replace(config, full_batch=True),
                      test_dataset, step_scale)


def run_stoch_linadmm(problem: Problem, dataset: Dataset, config: SolverConfig,
                      test_dataset: Dataset | None = None,
                      step_scale: float = 1.0) -> SolverResult:
    """Stochastic linearized ADMM with the same schedule family.

    Per iteration: one gradient draw; x steps through the prox of r1 along
    the drawn gradient minus F^T lambda plus the linearized penalty
    gamma * F^T (F x - z); then the exact z block at the new x and a dual
    step. Averages (x, z, lambda) uniformly.
    """
    solver._validate_run_inputs(problem, dataset, config, test_dataset)
    eval_dataset = dataset if test_dataset is None else test_dataset
    schedule = make_schedule(problem, config)
    rng = np.random.default_rng(config.seed)
    state: SolverState = initial_state(problem, dataset)
    penalty, gamma = problem.penalty, config.gamma
    trace: list[TraceRecord] = []
    t0 = time.perf_counter()
    # F x of the current iterate, carried over from the previous iteration
    fx = penalty.matvec(state.x)
    for k in range(config.max_iters):
        c = step_size(schedule, k) * step_scale
        gs = oracles.stochastic_gradient(problem, dataset, state.x, rng,
                                         config.batch_size,
                                         enumerate_all=config.full_batch)
        direction = (gs.gradient - penalty.rmatvec(state.lam)
                     + gamma * penalty.rmatvec(fx - state.z))
        x_next = apply_prox(problem.r1, state.x - c * direction, c)
        if problem.feasible_radius is not None:
            x_next = project_ball(x_next, problem.feasible_radius)
        fx_next = penalty.matvec(x_next)
        z_next = apply_prox(problem.r2, fx_next - state.lam / gamma, 1.0 / gamma)
        lam_next = state.lam - gamma * (fx_next - z_next)

        peak = float(np.max(np.abs(x_next))) if x_next.size else 0.0
        if lam_next.size:
            peak = max(peak, float(np.max(np.abs(lam_next))))
        if not math.isfinite(peak) or peak > DIVERGENCE_LIMIT:
            raise DivergenceError(k, f"iterate diverged at iteration {k} (peak {peak!r})")

        state.weighted_x_sum += x_next
        state.weighted_z_sum += z_next
        state.weighted_lambda_sum += lam_next
        state.raw_weight_sum += 1
        state.x, state.z, state.lam = x_next, z_next, lam_next
        fx = fx_next
        state.k = k + 1
        state.max_dual_norm = max(state.max_dual_norm,
                                  float(np.linalg.norm(lam_next)))
        done = k + 1
        if done % config.eval_every == 0 or done == config.max_iters:
            wsum = state.raw_weight_sum
            trace.append(evaluate_trace_record(
                problem, dataset, eval_dataset,
                state.weighted_x_sum / wsum, state.weighted_z_sum / wsum,
                done, time.perf_counter() - t0, state.max_dual_norm))
    total = config.max_iters
    return SolverResult(x_avg=state.weighted_x_sum / total,
                        z_avg=state.weighted_z_sum / total,
                        lambda_avg=state.weighted_lambda_sum / total,
                        trace=trace, state=state)
