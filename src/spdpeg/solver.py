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

``extragradient`` is the predictor/corrector for any step and gradient
source: SPDPEG and its full-gradient limit ``eg-full`` call it with the
scheduled step and drawn gradients, the reference optimum in ``bench``
with a constant step and exact gradients.

``drive`` is the one loop over ``max_iters``. It validates the inputs,
owns the schedule, the random stream and the trace cadence, calls a step
function per iteration and returns the weighted averages. Steps advance
the state through ``advance`` (divergence guard and averaging). SPDPEG
averages the predictor iterates: uniform weights, or weights proportional
to k+3 for the accelerated strongly convex regime. The step-size schedule
is gated by the composite constant from ``compute_L_tilde``.

``check_step_inequality`` evaluates, on captured steps, the per-step
energy inequality that the update quintuple satisfies pathwise; it is the
runtime-checkable core of the convergence analysis and is exercised by the
``check-lemma1`` benchmark command.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import oracles
from .model import (REGIME_CONVEX, REGIME_SC_NONUNIFORM, REGIMES, Dataset,
                    Problem, SolverConfig, compute_L_tilde)
from .prox import apply_prox, reg_value
from .trace import TraceRecord

DIVERGENCE_LIMIT = 1e12


class DivergenceError(RuntimeError):
    """An iterate left the finite range; ``iteration`` is the failing step and
    ``captures`` the steps captured before it (empty unless capturing)."""

    def __init__(self, iteration: int, message: str):
        super().__init__(message)
        self.iteration = iteration
        self.captures: list[StepCapture] = []


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
        if self.regime != REGIME_CONVEX and self.mu <= 0.0:
            raise ValueError("strongly convex regimes require mu > 0")
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


def average_weight(schedule: Schedule, k: int, t: int) -> float:
    """Weight of iterate k in the averaged output over iterations 0..t."""
    if not 0 <= k <= t:
        raise ValueError("need 0 <= k <= t")
    if schedule.regime == REGIME_SC_NONUNIFORM:
        return 2.0 * (k + 3.0) / ((t + 1.0) * (t + 6.0))
    return 1.0 / (t + 1.0)


def make_schedule(problem: Problem, config: SolverConfig) -> Schedule:
    """Schedule implied by a problem/config pair; mu drops to 0 when convex."""
    mu = 0.0 if config.regime == REGIME_CONVEX else problem.strong_convexity_mu
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


def schedule_bracket_coefficients(config: SolverConfig, schedule: Schedule,
                                  k: int) -> tuple[float, float]:
    """The bracket coefficients at the step size of iteration k."""
    return _bracket_coefficients(config, step_size(schedule, k))


@dataclass
class SolverState:
    """The update quintuple plus online weighted averages."""

    x: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    x_bar: np.ndarray
    lam_bar: np.ndarray
    k: int
    weighted_x_sum: np.ndarray
    weighted_z_sum: np.ndarray
    weighted_lambda_sum: np.ndarray
    raw_weight_sum: int
    max_dual_norm: float = 0.0


def initial_state(problem: Problem, dataset: Dataset) -> SolverState:
    d, l = dataset.dimension, problem.penalty.n_rows
    return SolverState(x=np.zeros(d), z=np.zeros(l), lam=np.zeros(l),
                       x_bar=np.zeros(d), lam_bar=np.zeros(l), k=0,
                       weighted_x_sum=np.zeros(d), weighted_z_sum=np.zeros(l),
                       weighted_lambda_sum=np.zeros(l), raw_weight_sum=0)


@dataclass(frozen=True)
class StepCapture:
    """Everything realized during one step, for inequality auditing."""

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
    grad_x_full: np.ndarray
    grad_xbar_full: np.ndarray


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


def prox_step(problem: Problem, v: np.ndarray, c: float) -> np.ndarray:
    """prox of c*r1 at v, projected onto the feasible ball when there is one."""
    x = apply_prox(problem.r1, v, c)
    radius = problem.feasible_radius
    if radius is None:
        return x
    nrm = float(np.linalg.norm(x))
    return x if nrm <= radius else x * (radius / nrm)


def z_block(problem: Problem, gamma: float, fx: np.ndarray,
            lam: np.ndarray) -> np.ndarray:
    """Exact z minimizer of the augmented Lagrangian at F x = fx and lam."""
    return apply_prox(problem.r2, fx - lam / gamma, 1.0 / gamma)


def update_z(state: SolverState, fx: np.ndarray, problem: Problem,
             config: SolverConfig) -> np.ndarray:
    """Exact z-block minimizer of the augmented Lagrangian at (x, lambda);
    fx must hold F @ state.x."""
    return z_block(problem, config.gamma, fx, state.lam)


def extragradient(problem: Problem, gamma: float, c: float, x: np.ndarray,
                  lam: np.ndarray, fx: np.ndarray, z: np.ndarray, gradient):
    """Predictor and corrector at step c from (x, lam), given fx = F x and
    this iteration's z; ``gradient(v)`` returns the gradient drawn at v.

    Returns (x_bar, lam_bar, x_next, lam_next, g1, g2), where g1 and g2 are
    the gradients drawn at x and at x_bar.
    """
    penalty = problem.penalty
    g1 = gradient(x)
    x_bar = prox_step(problem, x - c * (g1 - penalty.rmatvec(lam)), c)
    lam_bar = lam - gamma * (fx - z)
    g2 = gradient(x_bar)
    x_next = prox_step(problem, x - c * (g2 - penalty.rmatvec(lam_bar)), c)
    lam_next = lam - gamma * (penalty.matvec(x_bar) - z)
    return x_bar, lam_bar, x_next, lam_next, g1, g2


def advance(state: SolverState, w: int, x_avg: np.ndarray, lam_avg: np.ndarray,
            x_next: np.ndarray, z_next: np.ndarray, lam_next: np.ndarray) -> None:
    """Guard the new iterate, add w times (x_avg, z_next, lam_avg) to the
    weighted sums and move the state to (x_next, z_next, lam_next)."""
    k = state.k
    peak = 0.0
    if x_next.size:
        peak = float(np.max(np.abs(x_next)))
    if lam_next.size:
        peak = max(peak, float(np.max(np.abs(lam_next))))
    if not math.isfinite(peak) or peak > DIVERGENCE_LIMIT:
        raise DivergenceError(k, f"iterate diverged at iteration {k} (peak {peak!r})")
    z_avg = z_next
    if w != 1:  # 1 * v has the bits of v; skip the three multiplies
        x_avg, z_avg, lam_avg = w * x_avg, w * z_next, w * lam_avg
    state.weighted_x_sum += x_avg
    state.weighted_z_sum += z_avg
    state.weighted_lambda_sum += lam_avg
    state.raw_weight_sum += w
    state.x, state.z, state.lam = x_next, z_next, lam_next
    state.k = k + 1
    state.max_dual_norm = max(state.max_dual_norm, float(np.linalg.norm(lam_next)))


def update_extragradient(state: SolverState, fx: np.ndarray, z_next: np.ndarray,
                         problem: Problem, dataset: Dataset, config: SolverConfig,
                         schedule: Schedule, rng: np.random.Generator,
                         step_scale: float = 1.0,
                         capture: bool = False) -> StepCapture | None:
    """Run the predictor/corrector step in place; fx must hold F @ state.x
    and z_next this iteration's z-block minimizer."""
    k = state.k
    c = step_size(schedule, k) * step_scale
    full = config.full_batch

    def gradient(v):
        return oracles.stochastic_gradient(problem, dataset, v, rng,
                                           config.batch_size, enumerate_all=full)

    x_k, lam_k = state.x, state.lam
    x_bar, lam_bar, x_next, lam_next, g1, g2 = extragradient(
        problem, config.gamma, c, x_k, lam_k, fx, z_next, gradient)
    w = k + 3 if schedule.regime == REGIME_SC_NONUNIFORM else 1
    advance(state, w, x_bar, lam_bar, x_next, z_next, lam_next)
    state.x_bar, state.lam_bar = x_bar, lam_bar

    if not capture:
        return None
    if full:
        g1_full, g2_full = g1, g2
    else:
        g1_full = oracles.full_gradient(problem, dataset, x_k)
        g2_full = oracles.full_gradient(problem, dataset, x_bar)
    return StepCapture(k=k, c=c, x_prev=x_k, lam_prev=lam_k, z_next=z_next,
                       x_bar=x_bar, lam_bar=lam_bar, x_next=x_next,
                       lam_next=lam_next, grad_x_stoch=g1, grad_xbar_stoch=g2,
                       grad_x_full=g1_full, grad_xbar_full=g2_full)


@dataclass
class SolverResult:
    x_avg: np.ndarray
    z_avg: np.ndarray
    lambda_avg: np.ndarray
    trace: list[TraceRecord]
    state: SolverState
    captures: list[StepCapture] = field(default_factory=list)


def objective_from_margins(problem: Problem, labels: np.ndarray, m: np.ndarray,
                           x: np.ndarray, fx: np.ndarray) -> float:
    """Training objective at x given its margins m and fx = F x: the loss
    (with any folded ridge) plus both regularizers."""
    return (oracles.loss_from_margins(problem.loss, labels, m)
            + oracles.ridge_value(problem, x)
            + reg_value(problem.r1, x) + reg_value(problem.r2, fx))


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
    objective = objective_from_margins(problem, dataset.labels, train_margins,
                                       x_avg, fx)
    test_loss = oracles.loss_from_margins(problem.loss, test_dataset.labels,
                                          test_margins)
    accuracy = float(np.mean((test_margins >= 0) == (test_dataset.labels > 0)))
    feasibility = float(np.linalg.norm(fx - z_avg))
    return TraceRecord(iteration, wall_seconds, objective, test_loss, accuracy,
                       feasibility, max_dual_norm)


def drive(problem: Problem, dataset: Dataset, config: SolverConfig,
          test_dataset: Dataset | None, step) -> SolverResult:
    """Run ``step(state, schedule, rng)`` for max_iters iterations and return
    the averaged iterates plus trace.

    Each step advances the state by one iteration and returns its
    StepCapture or None. Weighted sums are accumulated online with integer
    weights and normalized once by their integer total, so the averages
    match the closed-form weights exactly. A trace record is emitted every
    ``eval_every`` iterations (and at the final one), evaluated at the
    current running average. The random stream is owned by this call:
    identical (problem, dataset, config) give bit-identical trajectories.
    A DivergenceError carries the steps captured before it.
    """
    if problem.penalty.n_cols != dataset.dimension:
        raise ValueError(f"penalty has {problem.penalty.n_cols} columns but the "
                         f"dataset dimension is {dataset.dimension}")
    if test_dataset is not None and test_dataset.dimension != dataset.dimension:
        raise ValueError("train and test dimensions differ")
    if config.regime != REGIME_CONVEX and problem.strong_convexity_mu <= 0.0:
        raise ValueError(f"regime {config.regime!r} requires strong_convexity_mu > 0")
    eval_dataset = dataset if test_dataset is None else test_dataset
    schedule = make_schedule(problem, config)
    rng = np.random.default_rng(config.seed)
    state = initial_state(problem, dataset)
    trace: list[TraceRecord] = []
    captures: list[StepCapture] = []
    t0 = time.perf_counter()
    try:
        for done in range(1, config.max_iters + 1):
            cap = step(state, schedule, rng)
            if cap is not None:
                captures.append(cap)
            if done % config.eval_every == 0 or done == config.max_iters:
                wsum = state.raw_weight_sum
                trace.append(evaluate_trace_record(
                    problem, dataset, eval_dataset,
                    state.weighted_x_sum / wsum, state.weighted_z_sum / wsum,
                    done, time.perf_counter() - t0, state.max_dual_norm))
    except DivergenceError as exc:
        exc.captures = captures
        raise
    wsum = state.raw_weight_sum
    return SolverResult(x_avg=state.weighted_x_sum / wsum,
                        z_avg=state.weighted_z_sum / wsum,
                        lambda_avg=state.weighted_lambda_sum / wsum,
                        trace=trace, state=state, captures=captures)


def run(problem: Problem, dataset: Dataset, config: SolverConfig,
        test_dataset: Dataset | None = None,
        step_scale: float = 1.0) -> SolverResult:
    """SPDPEG for max_iters iterations: averaged iterates plus trace (see
    ``drive``); ``config.full_batch`` makes it ``eg-full``."""

    def step(state, schedule, rng):
        fx = problem.penalty.matvec(state.x)
        z_next = update_z(state, fx, problem, config)
        return update_extragradient(state, fx, z_next, problem, dataset, config,
                                    schedule, rng, step_scale,
                                    capture=config.capture_steps)

    return drive(problem, dataset, config, test_dataset, step)


def check_step_inequality(capture: StepCapture, problem: Problem,
                          config: SolverConfig,
                          reference: tuple[np.ndarray, np.ndarray, np.ndarray]
                          ) -> StepInequalityReport:
    """Evaluate the pathwise per-step inequality at a reference (z, x, lambda).

    The left side collects the regularizer gaps and the primal-dual inner
    products at the predictor point; the right side collects the telescoping
    distance terms, the realized gradient-noise penalties, and the two
    step-dependent bracket coefficients. The inequality holds for any
    reference with feasible x, whatever the step size; the brackets only
    become nonnegative under the scheduled steps, so they are reported
    together with a ``coefficient_negative`` flag.
    """
    for name in ("grad_x_stoch", "grad_xbar_stoch", "grad_x_full", "grad_xbar_full"):
        if getattr(capture, name) is None:
            raise ValueError(f"capture is missing {name}; rerun with capture enabled")
    z_ref, x_ref, lam_ref = (np.asarray(v, dtype=np.float64) for v in reference)
    c, gamma = capture.c, config.gamma
    penalty = problem.penalty

    delta = capture.grad_x_stoch - capture.grad_x_full
    delta_bar = capture.grad_xbar_stoch - capture.grad_xbar_full
    delta_sq = float(delta @ delta)
    delta_bar_sq = float(delta_bar @ delta_bar)

    g2 = capture.grad_xbar_stoch - penalty.rmatvec(capture.lam_bar)
    residual_bar = penalty.matvec(capture.x_bar) - capture.z_next
    lhs = (reg_value(problem.r1, x_ref) + reg_value(problem.r2, z_ref)
           - reg_value(problem.r1, capture.x_bar)
           - reg_value(problem.r2, capture.z_next)
           + float((z_ref - capture.z_next) @ capture.lam_bar)
           + float((x_ref - capture.x_bar) @ g2)
           + float((lam_ref - capture.lam_bar) @ residual_bar))

    def sq(v):
        return float(v @ v)

    bracket_lambda, bracket_x = _bracket_coefficients(config, c)
    rhs = (sq(x_ref - capture.x_next) / (2.0 * c)
           - sq(x_ref - capture.x_prev) / (2.0 * c)
           - 4.0 * c * (delta_sq + delta_bar_sq)
           - sq(lam_ref - capture.lam_prev) / (2.0 * gamma)
           + sq(lam_ref - capture.lam_next) / (2.0 * gamma)
           + bracket_lambda * sq(capture.lam_prev - capture.lam_bar)
           + bracket_x * sq(capture.x_prev - capture.x_bar)
           + sq(capture.x_next - capture.x_bar) / (2.0 * c))
    return StepInequalityReport(lhs=lhs, rhs=rhs, slack=lhs - rhs,
                                delta_norm_sq=delta_sq,
                                delta_bar_norm_sq=delta_bar_sq,
                                bracket_lambda=bracket_lambda,
                                bracket_x=bracket_x,
                                coefficient_negative=(bracket_lambda < 0
                                                      or bracket_x < 0))


def relative_slack(report: StepInequalityReport) -> float:
    return report.slack / max(1.0, abs(report.lhs), abs(report.rhs))
