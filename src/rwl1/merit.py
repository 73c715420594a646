"""Merit functions approximating the nonzero count, and their gradient weights.

Five schemes drive the reweighted-l1 loop:

  l1    uniform weights (plain l1 minimization, the convex baseline)
  cwb   1 / (|x_i| + eps)
  zl    (1 + p (|x_i|+eps)^p) / (|x_i|+eps),           0 < p <= 1
  w1    gradient of sum_i log(log(u_i + u_i^p)),       u_i = |x_i|+eps
  w2    gradient of (1/p) sum_i log(u_i + u_i^q)^p,    0 < p, q <= 1

For small eps and small |x_i| the w1/w2 inner argument s = u + u^p drops
below 1, so log(s) < 0: the w1/w2 merits are then undefined over the reals
(merit_value returns None) and the raw w1 weight is negative.  The w2 raw
weight additionally needs (log s)^p, which we evaluate as |log s|^p so the
raw value stays a real number with the same sign pathology as w1.  Clamping
(AbsoluteValue by default) restores strictly positive weights; the "none"
mode exposes the raw values for experimentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_vector

__all__ = ["WeightScheme", "WeightClamp", "weights", "merit_value"]

SCHEME_KINDS = ("l1", "cwb", "zl", "w1", "w2")
CLAMP_KINDS = ("abs", "floor", "none")


@dataclass(frozen=True)
class WeightScheme:
    """Tagged choice of weighting rule.

    p is used by zl/w1/w2 and q by w2, each in (0, 1]; a kind that ignores
    p or q stores it as None.  The value 1.0 is a degenerate endpoint
    admitted so parameter studies can sweep a grid up to and including it.
    """

    kind: str
    p: float | None = 0.05
    q: float | None = 0.05

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme {self.kind!r}, expected one of {SCHEME_KINDS}")
        for name, kinds in (("p", ("zl", "w1", "w2")), ("q", ("w2",))):
            value = getattr(self, name)
            if self.kind not in kinds:
                object.__setattr__(self, name, None)
            elif not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0.0, 1.0], got {value}")

    @property
    def label(self) -> str:
        return self.kind


@dataclass(frozen=True)
class WeightClamp:
    """How to repair nonpositive raw weights: abs | floor | none."""

    kind: str = "abs"
    floor: float = 1e-8

    def __post_init__(self):
        if self.kind not in CLAMP_KINDS:
            raise ValueError(f"unknown clamp {self.kind!r}, expected one of {CLAMP_KINDS}")
        if self.kind == "floor" and not (math.isfinite(self.floor) and self.floor > 0):
            raise ValueError(f"floor must be > 0 and finite for the floor clamp, got {self.floor}")

    def apply(self, raw: np.ndarray) -> np.ndarray:
        if self.kind == "abs":
            return np.abs(raw)
        if self.kind == "floor":
            return np.maximum(raw, self.floor)
        return raw


def _check_eps(eps: float) -> float:
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    return float(eps)


def _raw_weights(scheme: WeightScheme, absx: np.ndarray, eps: float) -> np.ndarray:
    u = absx + eps
    if scheme.kind == "l1":
        return np.ones_like(u)
    if scheme.kind == "cwb":
        return 1.0 / u
    p = scheme.p
    if scheme.kind == "zl":
        return (1.0 + p * u**p) / u
    if scheme.kind == "w1":
        s = u + u**p
        with np.errstate(divide="ignore", invalid="ignore"):
            return (1.0 + p * u**p / u) / (s * np.log(s))
    # w2
    q = scheme.q
    s = u + u**q
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(s)
        return np.abs(logs) ** p * (1.0 + q * u**q / u) / (s * logs)


def weights(scheme: WeightScheme, x, eps: float, clamp: WeightClamp = WeightClamp()) -> np.ndarray:
    """Weight vector for one reweighting step, evaluated at |x| and clamped."""
    eps = _check_eps(eps)
    xv = as_vector(x)
    return clamp.apply(_raw_weights(scheme, np.abs(xv), eps))


def merit_value(scheme: WeightScheme, x, eps: float) -> float | None:
    """Merit function value at x, or None where it is undefined over the reals.

    zl and the l1/cwb surrogates are defined everywhere; w1/w2 require every
    inner argument |x_i| + eps + (|x_i| + eps)^p to exceed 1.
    """
    eps = _check_eps(eps)
    u = np.abs(as_vector(x)) + eps
    if scheme.kind == "l1":
        return float(np.sum(u - eps))
    if scheme.kind == "cwb":
        return float(np.sum(np.log(u)))
    if scheme.kind == "zl":
        return float(np.sum(np.log(u) + u**scheme.p))
    if scheme.kind == "w1":
        s = u + u**scheme.p
        if np.any(s <= 1.0):
            return None
        return float(np.sum(np.log(np.log(s))))
    s = u + u**scheme.q
    if np.any(s <= 1.0):
        return None
    return float(np.sum(np.log(s) ** scheme.p) / scheme.p)
