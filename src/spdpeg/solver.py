"""Stochastic primal-dual proximal extra-gradient solver (SPDPEG).

The composite problem  min E[l(x, xi)] + r1(x) + r2(F x)  is split as
min l(x) + r1(x) + r2(z) subject to F x = z and attacked through its
augmented Lagrangian with penalty gamma. One iteration, run at step c:

  1. z-block: exact minimization, z = prox_{r2/gamma}(F x - lambda/gamma).
  2. predictor: x_bar from a prox-gradient step at x using a stochastic
     gradient drawn at x; lambda_bar from the dual residual at x.
  3. corrector: x from a second prox-gradient step at x using a fresh
     stochastic gradient drawn at x_bar and the predictor dual; lambda
     from the dual residual at x_bar.

``update_z`` (step 1) and ``update_extragradient`` (steps 2-3, at any
step and gradient source) are the step's kernels: SPDPEG and ``eg-full``
call both with the scheduled step, a capped reference optimum in ``bench``
with a constant one, and the linearized ADMM baseline calls ``update_z``.

``drive`` is the one loop over ``max_iters`` (its docstring says how it
resolves a run); steps advance the state through ``advance``. The steps'
scalar operands (gamma, the batch divisor, the ridge, and once per step
the step size) are 0-d float64 arrays: numpy applies them faster than a
Python float (NEP 50's scalar path), with the same bits. SPDPEG averages
the predictor iterates: uniform weights, or weights proportional to k+3
for the accelerated strongly convex regime.

``check_step_inequality`` evaluates the per-step energy inequality that
the update quintuple satisfies pathwise on steps captured into the
caller's list by ``run(..., captures=caps)``; it is the runtime-checkable
core of the convergence analysis, exercised by ``check-lemma1``. A capture
records only what the step computed; the audit computes the full
gradients that measure the step's gradient noise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import oracles
from .model import (REGIME_CONVEX, REGIME_SC_NONUNIFORM, REGIMES, Dataset,
                    Problem, SolverConfig, compute_L_tilde)
from .prox import prox_kernel, reg_value
from .trace import TraceRecord

DIVERGENCE_LIMIT = 1e12
_LIMIT_SQ = DIVERGENCE_LIMIT ** 2
# Batches per generator call of a run's drawn gradient. At d=20, n=200 one
# integers(size=1) call costs about 9 us and a row of a block about 0.3 us.
SAMPLE_BLOCK = 512


class DivergenceError(RuntimeError):
    """An iterate left the finite range; ``iteration`` is the failing step."""

    def __init__(self, iteration: int, message: str):
        super().__init__(message)
        self.iteration = iteration

    def __reduce__(self):
        # rebuilt from both arguments, so it survives a worker-process hop
        return type(self), (self.iteration, str(self))


@dataclass(frozen=True)
class Schedule:
    """Step-size and averaging rule for one of the three regimes."""

    regime: str
    mu: float
    L_tilde: float

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.regime == REGIME_CONVEX and self.mu != 0.0:
            raise ValueError("convex regime requires mu == 0")
        if self.regime != REGIME_CONVEX and not self.mu > 0.0:
            raise ValueError(f"regime {self.regime!r} requires mu > 0, "
                             "a folded ridge")
        if self.L_tilde <= 0:
            raise ValueError("L_tilde must be positive")


def step_size(schedule: Schedule, k: int) -> float:
    """Step c used at 0-based iteration k; strictly decreasing in k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if schedule.regime == REGIME_CONVEX:
        return 1.0 / (math.sqrt(k + 1.0) + schedule.L_tilde)
    if schedule.regime == REGIME_SC_NONUNIFORM:
        return 4.0 / (schedule.mu * (k + 2.0) + 4.0 * schedule.L_tilde)
    return 2.0 / (schedule.mu * (k + 1.0) + 2.0 * schedule.L_tilde)


def make_schedule(problem: Problem, config: SolverConfig) -> Schedule:
    """Schedule implied by a problem/config pair: mu is the folded ridge,
    or 0 when convex."""
    mu = 0.0 if config.regime == REGIME_CONVEX else problem.ridge
    L_tilde = compute_L_tilde(config.gamma, config.sigma_max_FtF,
                              config.lipschitz_L, mu)
    return Schedule(config.regime, mu, L_tilde)


def _bracket_coefficients(config: SolverConfig, c: float) -> tuple[float, float]:
    """The two coefficients at step size c whose nonnegativity the analysis
    relies on: (1/(2*gamma) - 4*c*sigma, 1/(2*c) - gamma*sigma/2 - 4*c*L^2)."""
    sigma = config.sigma_max_FtF
    return (1.0 / (2.0 * config.gamma) - 4.0 * c * sigma,
            1.0 / (2.0 * c) - config.gamma * sigma / 2.0
            - 4.0 * c * config.lipschitz_L ** 2)


@dataclass
class SolverState:
    """The iterate (x, z, lambda) plus online weighted averages."""

    x: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    k: int
    weighted_x_sum: np.ndarray
    weighted_z_sum: np.ndarray
    weighted_lambda_sum: np.ndarray
    raw_weight_sum: int
    max_dual_norm: float = 0.0


def initial_state(problem: Problem, dataset: Dataset) -> SolverState:
    d, l = dataset.dimension, problem.penalty.n_rows
    return SolverState(x=np.zeros(d), z=np.zeros(l), lam=np.zeros(l), k=0,
                       weighted_x_sum=np.zeros(d), weighted_z_sum=np.zeros(l),
                       weighted_lambda_sum=np.zeros(l), raw_weight_sum=0)


@dataclass(frozen=True)
class StepCapture:
    """What one step computed, for the per-step audit: its iterates and the
    two drawn gradients."""

    k: int
    c: float
    x_prev: np.ndarray
    lam_prev: np.ndarray
    z_next: np.ndarray
    x_bar: np.ndarray
    lam_bar: np.ndarray
    x_next: np.ndarray
    lam_next: np.ndarray
    grad_x_stoch: np.ndarray
    grad_xbar_stoch: np.ndarray


@dataclass(frozen=True)
class StepInequalityReport:
    """Both sides of the per-step inequality; slack >= 0 when it holds."""

    lhs: float
    rhs: float
    slack: float
    delta_norm_sq: float
    delta_bar_norm_sq: float
    bracket_lambda: float
    bracket_x: float
    coefficient_negative: bool


class Kernels(NamedTuple):
    """Unchecked kernels of float64 vectors of the right lengths, chosen once
    per run by ``kernels``: F x, F^T y, and the prox ``(v, c)`` of c*r1
    (then onto any feasible ball) and of c*r2."""

    F: Callable
    Ft: Callable
    prox_r1: Callable
    prox_r2: Callable


def kernels(problem: Problem) -> Kernels:
    """The iteration kernels of a problem that passed
    ``oracles.check_dimensions``."""
    prox_r1, radius = prox_kernel(problem.r1), problem.feasible_radius
    if radius is not None:
        prox_free = prox_r1

        def prox_r1(v, c):
            x = prox_free(v, c)
            nrm = math.sqrt(x.dot(x))  # np.linalg.norm(x), bit for bit
            return x if nrm <= radius else x * (radius / nrm)
    return Kernels(*problem.penalty.products(), prox_r1, prox_kernel(problem.r2))


def update_z(kern: Kernels, gamma, fx: np.ndarray,
             lam: np.ndarray) -> np.ndarray:
    """Exact z minimizer of the augmented Lagrangian at F x = fx and lam;
    gamma is a float or, faster, a 0-d float64 array."""
    return kern.prox_r2(fx - lam / gamma, 1.0 / float(gamma))


def drawn_gradient(problem: Problem, dataset: Dataset, config: SolverConfig,
                   rng: np.random.Generator):
    """``v -> `` the gradient at v over the next batch drawn from ``rng``, or
    over every row under ``full_batch``: ``oracles.stochastic_gradient``
    without the checks that the run's entry made, with its
    ``oracles.draw_kernel`` resolved here, once per run.

    The batches are the rows of ``(SAMPLE_BLOCK, batch)`` blocks, each drawn
    in one ``rng.integers`` call when its first row is needed. The generator
    fills a block in row order, so these are the arrays of one
    ``rng.integers(0, n, size=batch)`` call per gradient while this closure
    is the generator's only consumer; only the generator's final state
    differs, by the unused rows of the last block, and nothing reads it."""
    if config.full_batch:
        return oracles.full_kernel(problem, dataset)
    n, b = dataset.n_samples, config.batch_size
    kernel = oracles.draw_kernel(problem, dataset, b)

    def batches():
        while True:
            yield from rng.integers(0, n, size=(SAMPLE_BLOCK, b))

    rows = batches()
    return lambda v: kernel(v, next(rows))


def update_extragradient(kern: Kernels, gamma, c: float, x: np.ndarray,
                         lam: np.ndarray, fx: np.ndarray, z: np.ndarray,
                         gradient):
    """Predictor and corrector at step c from (x, lam), given fx = F x and
    this iteration's z; ``gradient(v)`` returns the gradient drawn at v.
    gamma is a float or, faster, a 0-d float64 array.

    Returns (x_bar, lam_bar, x_next, lam_next, g1, g2), where g1 and g2 are
    the gradients drawn at x and at x_bar.
    """
    step = np.array(c)
    g1 = gradient(x)
    x_bar = kern.prox_r1(x - step * (g1 - kern.Ft(lam)), c)
    lam_bar = lam - gamma * (fx - z)
    g2 = gradient(x_bar)
    x_next = kern.prox_r1(x - step * (g2 - kern.Ft(lam_bar)), c)
    lam_next = lam - gamma * (kern.F(x_bar) - z)
    return x_bar, lam_bar, x_next, lam_next, g1, g2


def advance(state: SolverState, w: int, x_avg: np.ndarray, lam_avg: np.ndarray,
            x_next: np.ndarray, z_next: np.ndarray, lam_next: np.ndarray) -> None:
    """Guard the new iterate, add w times (x_avg, z_next, lam_avg) to the
    weighted sums and move the state to (x_next, z_next, lam_next)."""
    k = state.k
    # an entry is at most its block's norm, so squared norms within the
    # limit clear the step; on a NaN, an overflow or a large entry the peak
    # decides, one numpy max over both blocks (it propagates a NaN, which
    # Python's max drops when it comes second)
    lam_sq = lam_next.dot(lam_next)
    if not (x_next.dot(x_next) <= _LIMIT_SQ and lam_sq <= _LIMIT_SQ):
        both = np.concatenate((x_next, lam_next))
        peak = float(np.abs(both).max())
        if not math.isfinite(peak) or peak > DIVERGENCE_LIMIT:
            raise DivergenceError(k, f"iterate diverged at iteration {k} (peak {peak!r})")
    z_avg = z_next
    if w != 1:  # 1 * v has the bits of v; skip the three multiplies
        wf = np.array(float(w))  # exact below 2**53, as numpy casts an int
        x_avg, z_avg, lam_avg = wf * x_avg, wf * z_next, wf * lam_avg
    state.weighted_x_sum += x_avg
    state.weighted_z_sum += z_avg
    state.weighted_lambda_sum += lam_avg
    state.raw_weight_sum += w
    state.x, state.z, state.lam = x_next, z_next, lam_next
    state.k = k + 1
    # np.linalg.norm of a 1-D float array is exactly sqrt(x.dot(x))
    state.max_dual_norm = max(state.max_dual_norm, math.sqrt(lam_sq))


@dataclass
class SolverResult:
    x_avg: np.ndarray
    z_avg: np.ndarray
    lambda_avg: np.ndarray
    trace: list[TraceRecord]
    state: SolverState


def evaluate_trace_record(problem: Problem, dataset: Dataset,
                          test_dataset: Dataset, x_avg: np.ndarray,
                          z_avg: np.ndarray, iteration: int, wall_seconds: float,
                          max_dual_norm: float) -> TraceRecord:
    """Objective/test metrics of an averaged pair, in the shared schema."""
    fx = problem.penalty.matvec(x_avg)
    # one margins pass per distinct dataset
    train_margins = oracles.margins(dataset, x_avg)
    test_margins = (train_margins if test_dataset is dataset
                    else oracles.margins(test_dataset, x_avg))
    objective = oracles.objective_from_margins(problem, dataset.labels,
                                               train_margins, x_avg, fx)
    test_loss = oracles.loss_from_margins(problem.loss, test_dataset.labels,
                                          test_margins)
    accuracy = float(np.mean((test_margins >= 0) == (test_dataset.labels > 0)))
    residual = fx - z_avg
    feasibility = math.sqrt(residual.dot(residual))  # np.linalg.norm's bits
    return TraceRecord(iteration, wall_seconds, objective, test_loss, accuracy,
                       feasibility, max_dual_norm)


def trace_grid(max_iters: int, eval_every: int) -> list[int]:
    """The iterations a run of max_iters records a trace point at: every
    ``eval_every``-th, and the last."""
    return sorted({*range(eval_every, max_iters + 1, eval_every), max_iters})


def drive(problem: Problem, dataset: Dataset, config: SolverConfig,
          test_dataset: Dataset | None, make_step) -> SolverResult:
    """Run ``step(state)`` for max_iters iterations, where ``step =
    make_step(schedule, kern, gamma, gradient)`` is built once from the
    run's schedule, its ``kernels``, gamma as a 0-d array and its
    ``drawn_gradient``, and return the averaged iterates plus trace. The
    inputs are checked here (``oracles.check_dimensions``, and by
    ``Schedule`` a folded ridge for a strongly convex regime), so the steps
    call only kernels; ``drive`` holds no audit state.

    Each step advances the state by one iteration. Weighted sums are
    accumulated online with integer weights and normalized once by their
    integer total, so the averages match the closed-form weights exactly.
    A trace record is emitted at each iteration of ``trace_grid``, evaluated
    at the current running average.

    The random stream is owned by this call: ``default_rng(config.seed)``
    has one consumer, the drawn gradient, so its batches are those its
    docstring states, and identical (problem, dataset, config) give
    bit-identical trajectories.
    """
    oracles.check_dimensions(problem, dataset, test_dataset)
    eval_dataset = dataset if test_dataset is None else test_dataset
    step = make_step(make_schedule(problem, config), kernels(problem),
                     np.array(config.gamma),
                     drawn_gradient(problem, dataset, config,
                                    np.random.default_rng(config.seed)))
    state = initial_state(problem, dataset)
    trace: list[TraceRecord] = []
    t0 = time.perf_counter()
    done = 0
    for point in trace_grid(config.max_iters, config.eval_every):
        for _ in range(point - done):
            step(state)
        done = point
        wsum = state.raw_weight_sum
        trace.append(evaluate_trace_record(
            problem, dataset, eval_dataset,
            state.weighted_x_sum / wsum, state.weighted_z_sum / wsum,
            done, time.perf_counter() - t0, state.max_dual_norm))
    wsum = state.raw_weight_sum
    return SolverResult(x_avg=state.weighted_x_sum / wsum,
                        z_avg=state.weighted_z_sum / wsum,
                        lambda_avg=state.weighted_lambda_sum / wsum,
                        trace=trace, state=state)


def run(problem: Problem, dataset: Dataset, config: SolverConfig,
        test_dataset: Dataset | None = None, step_scale: float = 1.0,
        captures: list | None = None) -> SolverResult:
    """SPDPEG for max_iters iterations: averaged iterates plus trace (see
    ``drive``); ``config.full_batch`` makes it ``eg-full``. A ``captures``
    list gets each completed step's StepCapture, also on DivergenceError."""

    def make_step(schedule, kern, gamma, gradient):
        nonuniform = schedule.regime == REGIME_SC_NONUNIFORM

        def step(state):
            k, x, lam = state.k, state.x, state.lam
            c = step_size(schedule, k) * step_scale
            fx = kern.F(x)
            z = update_z(kern, gamma, fx, lam)
            x_bar, lam_bar, x_next, lam_next, g1, g2 = update_extragradient(
                kern, gamma, c, x, lam, fx, z, gradient)
            advance(state, k + 3 if nonuniform else 1, x_bar, lam_bar,
                    x_next, z, lam_next)
            if captures is not None:
                captures.append(StepCapture(k, c, x, lam, z, x_bar, lam_bar,
                                            x_next, lam_next, g1, g2))
        return step

    return drive(problem, dataset, config, test_dataset, make_step)


def check_step_inequality(capture: StepCapture, problem: Problem,
                          dataset: Dataset, config: SolverConfig, references
                          ) -> list[StepInequalityReport]:
    """Evaluate the pathwise per-step inequality of a step captured on
    ``dataset`` at each reference (z, x, lambda), in order.

    The left side collects the regularizer gaps and the primal-dual inner
    products at the predictor point; the right side collects the telescoping
    distance terms, the realized gradient-noise penalties, and the two
    step-dependent bracket coefficients. The inequality holds for any
    reference with feasible x, whatever the step size; the brackets only
    become nonnegative under the scheduled steps, so they are reported
    together with a ``coefficient_negative`` flag.

    The noise is each drawn gradient less the full gradient at its point,
    computed here once per step with every other term that no reference
    enters; under ``full_batch`` the drawn gradients are the full ones, so
    both noise terms are 0.
    """
    cap, c, gamma = capture, capture.c, config.gamma
    penalty = problem.penalty

    def sq(v):
        return float(v @ v)

    full = oracles.full_kernel(problem, dataset)
    delta_sq = sq(cap.grad_x_stoch - full(cap.x_prev))
    delta_bar_sq = sq(cap.grad_xbar_stoch - full(cap.x_bar))
    g2 = cap.grad_xbar_stoch - penalty.rmatvec(cap.lam_bar)
    residual_bar = penalty.matvec(cap.x_bar) - cap.z_next
    r1_bar, r2_next = reg_value(problem.r1, cap.x_bar), reg_value(problem.r2, cap.z_next)
    bracket_lambda, bracket_x = _bracket_coefficients(config, c)
    negative = bracket_lambda < 0 or bracket_x < 0
    noise = 4.0 * c * (delta_sq + delta_bar_sq)
    lam_term = bracket_lambda * sq(cap.lam_prev - cap.lam_bar)
    x_term = bracket_x * sq(cap.x_prev - cap.x_bar)
    corrector_term = sq(cap.x_next - cap.x_bar) / (2.0 * c)
    reports = []
    for reference in references:
        z_ref, x_ref, lam_ref = (np.asarray(v, dtype=np.float64) for v in reference)
        lhs = (reg_value(problem.r1, x_ref) + reg_value(problem.r2, z_ref)
               - r1_bar - r2_next
               + float((z_ref - cap.z_next) @ cap.lam_bar)
               + float((x_ref - cap.x_bar) @ g2)
               + float((lam_ref - cap.lam_bar) @ residual_bar))
        rhs = (sq(x_ref - cap.x_next) / (2.0 * c)
               - sq(x_ref - cap.x_prev) / (2.0 * c)
               - noise
               - sq(lam_ref - cap.lam_prev) / (2.0 * gamma)
               + sq(lam_ref - cap.lam_next) / (2.0 * gamma)
               + lam_term + x_term + corrector_term)
        reports.append(StepInequalityReport(
            lhs=lhs, rhs=rhs, slack=lhs - rhs, delta_norm_sq=delta_sq,
            delta_bar_norm_sq=delta_bar_sq, bracket_lambda=bracket_lambda,
            bracket_x=bracket_x, coefficient_negative=negative))
    return reports


def relative_slack(report: StepInequalityReport) -> float:
    return report.slack / max(1.0, abs(report.lhs), abs(report.rhs))
