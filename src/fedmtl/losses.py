"""Loss functions, their convex conjugates, and closed-form coordinate updates.

Both losses take a real score u and a label y in {-1, +1}:

    hinge:   max(0, 1 - y*u)          1-Lipschitz, non-smooth
    squared: (u - y)^2 / 2            1-smooth

The dual machinery always evaluates the conjugate at the negated dual
variable, so ``conjugate_sum(kind, alpha, y)`` sums l*(-alpha_i).  For the
hinge loss that is +inf off the box y*a in [0, 1], and the sums raise there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# Hinge duals live in y*alpha in [0, 1]. Aggregation arithmetic can drift by a
# few ulps past the box; values inside this tolerance are treated as feasible,
# anything further out is reported, never clipped.
DOMAIN_ATOL = 1e-9


class LossKind(enum.Enum):
    HINGE = "hinge"
    SQUARED = "squared"


class DualInfeasibleError(ValueError):
    """A dual iterate violates the conjugate's domain."""


@dataclass(frozen=True)
class LossConstants:
    """Lipschitz constant L and smoothness parameter mu (loss is (1/mu)-smooth)."""

    lipschitz: float | None
    smoothness: float | None


def loss_constants(kind: LossKind) -> LossConstants:
    if kind is LossKind.HINGE:
        return LossConstants(lipschitz=1.0, smoothness=None)
    return LossConstants(lipschitz=None, smoothness=1.0)


def loss_sum(kind: LossKind, scores: np.ndarray, labels: np.ndarray) -> float:
    """Total loss over a vector of scores and matching labels."""
    if kind is LossKind.HINGE:
        return float(np.maximum(0.0, 1.0 - labels * scores).sum())
    return float(0.5 * np.square(scores - labels).sum())


def hinge_box_violation(alpha: np.ndarray, labels: np.ndarray) -> float:
    """Largest distance of y*alpha from [0, 1]; 0 when feasible."""
    b = labels * alpha
    return float(max(np.max(-b, initial=0.0), np.max(b - 1.0, initial=0.0)))


def _check_hinge_box(alpha: np.ndarray, labels: np.ndarray) -> None:
    viol = hinge_box_violation(alpha, labels)
    if viol > DOMAIN_ATOL:
        raise DualInfeasibleError(f"hinge dual outside [0,1] box by {viol:.3e}")


def conjugate_sum(kind: LossKind, alpha: np.ndarray, labels: np.ndarray) -> float:
    """Sum of l*(-alpha_i) over a dual block; raises if any hinge dual is infeasible."""
    if kind is LossKind.HINGE:
        _check_hinge_box(alpha, labels)
        return -float(alpha @ labels)
    return float(0.5 * alpha @ alpha - alpha @ labels)


def conjugate_terms(kind: LossKind, alpha: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each l*(-alpha_i) of a dual block; raises as ``conjugate_sum`` does."""
    if kind is LossKind.HINGE:
        _check_hinge_box(alpha, labels)
        return -alpha * labels
    return 0.5 * alpha * alpha - alpha * labels


def _hinge_delta(alpha_i: float, y_i: float, score_i: float,
                 x_norm2: float, kappa: float) -> float:
    b = y_i * alpha_i
    curvature = kappa * x_norm2
    if curvature <= 0.0:
        # Degenerate column (or a subnormal norm whose product underflows):
        # the restriction is linear in b over [0, 1].
        coef = y_i * score_i - 1.0
        if coef < 0.0:
            b_new = 1.0
        elif coef > 0.0:
            b_new = 0.0
        else:
            b_new = b
    else:
        b_new = b + (1.0 - y_i * score_i) / curvature
        b_new = min(1.0, max(0.0, b_new))
    return y_i * b_new - alpha_i


def _squared_delta(alpha_i: float, y_i: float, score_i: float,
                   x_norm2: float, kappa: float) -> float:
    return (y_i - alpha_i - score_i) / (1.0 + kappa * x_norm2)


def subgradient(kind: LossKind, u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A subgradient of the loss with respect to the score, elementwise."""
    if kind is LossKind.HINGE:
        return np.where(y * u < 1.0, -y, 0.0)
    return u - y
