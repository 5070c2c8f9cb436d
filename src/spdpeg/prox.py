"""Closed-form proximal mappings for the separable regularizers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PROX_KINDS = ("none", "l1", "squared-l2")


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
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)


def prox_l1(v: np.ndarray, threshold: float) -> np.ndarray:
    """Soft threshold: sign(v) * max(|v| - threshold, 0), per coordinate."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return _soft_threshold(np.asarray(v, dtype=np.float64), threshold)


def _shrink(v: np.ndarray, weight: float, step: float) -> np.ndarray:
    return v / (1.0 + step * weight)


def prox_kernel(spec: ProxSpec):
    """``(v, step) -> `` the prox of step * (weighted regularizer) at a
    float64 v, for step > 0: ``apply_prox`` without its checks, with the
    kind dispatched once."""
    weight = spec.weight
    if spec.kind == "none" or weight == 0.0:
        return lambda v, step: v
    if spec.kind == "l1":
        return lambda v, step: _soft_threshold(v, step * weight)
    return lambda v, step: _shrink(v, weight, step)


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
