"""Proximal mappings: closed forms for the separable regularizers, and the
prox of r1 plus a fused or any l1 penalty of F x."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PROX_KINDS = ("none", "l1", "squared-l2")
# a read-only 0-d zero: numpy applies a 0-d float64 operand faster than a
# Python float (NEP 50's scalar path), with the same bits
_ZERO = np.array(0.0)
_ZERO.flags.writeable = False


@dataclass(frozen=True)
class ProxSpec:
    """A regularizer with a closed-form prox: kind plus nonnegative weight."""

    kind: str = "none"
    weight: float = 0.0

    def __post_init__(self):
        if self.kind not in PROX_KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if not math.isfinite(self.weight) or self.weight < 0:
            raise ValueError("regularizer weight must be finite and >= 0")


def _soft_threshold(v: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - threshold, _ZERO)


def prox_l1(v: np.ndarray, threshold: float) -> np.ndarray:
    """Soft threshold: sign(v) * max(|v| - threshold, 0), per coordinate."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return _soft_threshold(np.asarray(v, dtype=np.float64), threshold)


def _shrink(v: np.ndarray, weight: float, step: float) -> np.ndarray:
    return v / (1.0 + step * weight)


def prox_kernel(spec: ProxSpec):
    """``(v, step) -> `` the prox of step * (weighted regularizer) at a
    float64 v, for a float step > 0: ``apply_prox`` without its checks, with
    the kind dispatched once. The l1 kernel keeps the threshold of its last
    step as a 0-d array, so a run makes it once per step size."""
    weight = spec.weight
    if spec.kind == "none" or weight == 0.0:
        return lambda v, step: v
    if spec.kind == "l1":
        last = (None, None)  # a step and its threshold

        def soft_threshold(v, step):
            nonlocal last
            seen, threshold = last
            if step != seen:
                threshold = np.array(step * weight)
                last = (step, threshold)
            return _soft_threshold(v, threshold)
        return soft_threshold
    return lambda v, step: _shrink(v, weight, step)


def prox_tv(v: np.ndarray, weight: float) -> np.ndarray:
    """Prox of weight * sum_i |t_{i+1} - t_i| at a 1-D float64 v: Condat's
    direct algorithm (IEEE Signal Process. Lett. 20(11), 2013), exact in
    O(d) steps of scalar code. Weight 0 returns a copy of v. Its dual,
    ``np.cumsum(v - t)[:-1]``, lies in [-weight, weight] and has
    ``v - t = F.T u`` for the fused matrix F of ``build_fused_matrix``."""
    n = v.size
    if weight == 0.0 or n < 2:
        return v.copy()
    lam, y = weight, v.tolist()
    t = [0.0] * n
    # [vmin, vmax] brackets the value of the segment that starts at k0;
    # umin and umax are the duals at k for either end; kminus and kplus are
    # the last positions where each end was lowered or raised
    k = k0 = kminus = kplus = 0
    umin, umax = lam, -lam
    vmin, vmax = y[0] - lam, y[0] + lam
    while True:
        while k == n - 1:  # the right boundary: close the segment
            if umin < 0.0:
                t[k0:kminus + 1] = [vmin] * (kminus + 1 - k0)
                k = k0 = kminus = kminus + 1
                vmin, umin = y[k], lam
                umax = vmin + lam - vmax
            elif umax > 0.0:
                t[k0:kplus + 1] = [vmax] * (kplus + 1 - k0)
                k = k0 = kplus = kplus + 1
                vmax, umax = y[k], -lam
                umin = vmax - lam - vmin
            else:
                t[k0:] = [vmin + umin / (k - k0 + 1)] * (n - k0)
                return np.array(t)
        umin += y[k + 1] - vmin
        if umin < -lam:  # a negative jump after kminus
            t[k0:kminus + 1] = [vmin] * (kminus + 1 - k0)
            k = k0 = kminus = kplus = kminus + 1
            vmin = y[k]
            vmax, umin, umax = vmin + 2.0 * lam, lam, -lam
            continue
        umax += y[k + 1] - vmax
        if umax > lam:  # a positive jump after kplus
            t[k0:kplus + 1] = [vmax] * (kplus + 1 - k0)
            k = k0 = kminus = kplus = kplus + 1
            vmax = y[k]
            vmin, umin, umax = vmax - 2.0 * lam, lam, -lam
            continue
        k += 1
        if umin >= lam:
            kminus = k
            vmin += (umin - lam) / (k - k0 + 1)
            umin = lam
        if umax <= -lam:
            kplus = k
            vmax += (umax + lam) / (k - k0 + 1)
            umax = -lam


def prox_fused(prox_r1, v: np.ndarray, step: float,
               tv_weight: float) -> tuple[np.ndarray, np.ndarray]:
    """Prox of step * (r1 + tv_weight * TV) at v, given ``prox_r1 =
    prox_kernel(r1)``, and the TV prox ``t`` it passes through: r1's prox of
    ``prox_tv(v, step * tv_weight)``. For the l1 norm this is exact
    (Friedman, Hastie, Hoefling & Tibshirani, Ann. Appl. Stat. 2007), and
    for a squared l2 norm too, since TV is positively homogeneous."""
    t = prox_tv(v, step * tv_weight)
    return prox_r1(t, step), t


# most projected-gradient steps of one ``prox_dual`` call; warm-started from
# the previous call's dual, it mostly stops after a step or two
DUAL_PROX_ITERS = 20


def prox_dual(prox_r1, F, Ft, sigma: float, v: np.ndarray, step: float,
              weight: float, nu: np.ndarray,
              iters: int = DUAL_PROX_ITERS) -> tuple[np.ndarray, np.ndarray]:
    """Prox of step * (r1 + weight * ||F .||_1) at v, for any F, given
    ``prox_r1(v, step)`` (which may fold a feasible ball in), F's products
    ``F`` and ``Ft`` and sigma >= sigma_max(F^T F).

    Projected gradient ascent on the dual nu, in the box |nu| <= step *
    weight, at step 1/sigma: u(nu) = prox_r1(v - F^T nu, step), and the
    dual's gradient F u(nu) is sigma-Lipschitz. Starts from nu and stops
    when a step leaves every entry of nu equal (+0.0 equals -0.0), or after
    ``iters`` steps.
    Returns (u(nu), nu). With sigma or weight 0 it takes no step and
    returns (prox_r1(v, step), zeros)."""
    box = step * weight
    if sigma == 0.0 or box == 0.0:
        return prox_r1(v, step), np.zeros_like(nu)
    u = prox_r1(v - Ft(nu), step)
    for _ in range(iters):
        # np.clip's and np.array_equal's bits at about half their cost
        nu_next = np.minimum(np.maximum(nu + F(u) / sigma, -box), box)
        if (nu_next == nu).all():
            break
        nu = nu_next
        u = prox_r1(v - Ft(nu), step)
    return u, nu


def apply_prox(spec: ProxSpec, v: np.ndarray, step: float) -> np.ndarray:
    """Prox of step * (weighted regularizer) at v."""
    if step <= 0:
        raise ValueError("step must be positive")
    return prox_kernel(spec)(np.asarray(v, dtype=np.float64), step)


def reg_value(spec: ProxSpec, v: np.ndarray) -> float:
    """Value of the weighted regularizer at v."""
    if spec.kind == "none" or spec.weight == 0.0:
        return 0.0
    v = np.asarray(v, dtype=np.float64)
    if spec.kind == "l1":
        return float(spec.weight * np.sum(np.abs(v)))
    return float(0.5 * spec.weight * np.dot(v, v))
