"""Convergence-rate calculators and numeric verifiers for the federated solver.

The iteration bounds take the aggregate approximation quality

    theta_bar = p_max + (1 - p_max) * theta_max < 1

built from the worst per-round drop probability p_max and the worst expected
solution quality theta_max of nodes that do report.  Logarithms are natural
throughout.  The theorems' two assumptions are checked, not sampled: the
sigma' condition by an eigenvalue certificate over every dual
(``verify_sigma_prime_inequality``), the per-round decrease on every round of
a trace (``verify_lemma_decrease``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FederatedDataset
from .solver import RoundStats


def theta_bar(p_max: float, theta_max: float) -> float:
    if not 0.0 <= p_max < 1.0:
        raise ValueError("p_max must be in [0, 1)")
    if not 0.0 <= theta_max < 1.0:
        raise ValueError("theta_max must be in [0, 1)")
    return p_max + (1.0 - p_max) * theta_max


def convergence_constant_s(mu: float, sigma_max: float, sigma_prime: float) -> float:
    """Contraction constant s = mu / (mu + sigma_max * sigma') for smooth losses."""
    if mu <= 0.0:
        raise ValueError("mu must be positive; use the Lipschitz bound for non-smooth losses")
    return mu / (mu + sigma_max * sigma_prime)


def smooth_iteration_bound(n: int, eps: float, s: float, theta_bar_: float) -> int:
    """Smallest round count H with H >= log(n / eps) / ((1 - theta_bar) * s)."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if not 0.0 < s <= 1.0:
        raise ValueError("s must be in (0, 1]")
    if not 0.0 <= theta_bar_ < 1.0:
        raise ValueError("theta_bar must be in [0, 1)")
    bound = math.log(n / eps) / ((1.0 - theta_bar_) * s)
    return max(0, math.ceil(bound))


def lipschitz_iteration_bound(n: int, eps: float, L: float, sigma_total: float,
                              sigma_prime: float, theta_bar_: float,
                              initial_gap_bound: float | None = None,
                              ) -> tuple[int, int, int]:
    """Round counts (H, H0, h0) guaranteeing eps dual suboptimality of the
    averaged iterate for L-Lipschitz losses:

        h0 = [1 + log(2 n^2 g0 / (4 L^2 sigma sigma')) / (1 - theta_bar)]_+
        H0 = ceil(h0 + 16 L^2 sigma sigma' / ((1 - theta_bar) n^2 eps))
        H  = H0 + ceil(2 / (1 - theta_bar) * max(1, 2 L^2 sigma sigma' / (n^2 eps)))

    g0 bounds the initial dual suboptimality and defaults to n.
    """
    if L <= 0.0 or eps <= 0.0:
        raise ValueError("need L > 0 and eps > 0")
    if not 0.0 <= theta_bar_ < 1.0:
        raise ValueError("theta_bar must be in [0, 1)")
    g0 = float(n) if initial_gap_bound is None else float(initial_gap_bound)
    q = L * L * sigma_total * sigma_prime
    inv = 1.0 / (1.0 - theta_bar_)
    h0 = max(0.0, 1.0 + inv * math.log(2.0 * n * n * g0 / (4.0 * q)))
    h0_i = math.ceil(h0)
    H0 = math.ceil(h0_i + 16.0 * q * inv / (n * n * eps))
    H = H0 + math.ceil(2.0 * inv * max(1.0, 2.0 * q / (n * n * eps)))
    return int(H), int(H0), int(h0_i)


# ---------------------------------------------------------------------------
# Spectral quantities


def largest_sv_squared(X: np.ndarray) -> float:
    """Squared largest singular value of X."""
    return float(np.linalg.norm(np.asarray(X, dtype=float), 2) ** 2)


def sigma_t(X_t: np.ndarray, mbar_tt: float) -> float:
    """Worst-case blowup of a single task's dual block through its data map."""
    return float(mbar_tt) * largest_sv_squared(X_t)


@dataclass(frozen=True)
class SigmaStats:
    per_task: np.ndarray
    sigma_max: float
    sigma_total: float


def sigma_stats(ds: FederatedDataset, mbar: np.ndarray) -> SigmaStats:
    """Per-task sigma_t, their max, and the size-weighted total sum_t sigma_t n_t."""
    per = np.array([
        sigma_t(task.features, mbar[t, t]) for t, task in enumerate(ds.tasks)
    ])
    sizes = np.array(ds.task_sizes(), dtype=float)
    return SigmaStats(per, float(per.max()), float(per @ sizes))


# ---------------------------------------------------------------------------
# Verifiers


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    worst_margin: float     # min over checks of (required LHS - RHS), scaled
    worst_ratio: float      # max over checks of RHS / LHS; safe when <= 1


def verify_sigma_prime_inequality(mbar: np.ndarray, kappa: np.ndarray,
                                  gamma: float) -> CheckResult:
    """Certificate that subproblems with per-node coefficients ``kappa`` are
    safe for every dual of every dataset (``RelationshipState.kappa`` against
    ``rel.mbar / 2``, the Hessian of R*):

        sum_t kappa_t ||X_t alpha_t||^2 >= gamma * ||X alpha||^2_Mbar.

    With G the Gram matrix of the u_t = X_t alpha_t, the sides are tr(KG) and
    gamma * tr(Mbar G) for K = diag(kappa), so this holds for every G >= 0
    exactly when K - gamma * Mbar >= 0; if every X_t has full row rank, every
    G is reached and the condition is exact for the data too.  The margin is
    lambda_min(K - gamma * Mbar) / max_t kappa_t; the ratio, the largest
    RHS / LHS, is lambda_max(gamma * K^{-1/2} Mbar K^{-1/2})."""
    mbar = np.asarray(mbar, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    m = len(mbar)
    if mbar.shape != (m, m) or kappa.shape != (m,):
        raise ValueError(f"kappa shape {kappa.shape} does not match mbar {mbar.shape}")
    if not (np.isfinite(kappa).all() and (kappa > 0.0).all()):
        raise ValueError("kappa entries must be finite and > 0")
    # Divided by max_t kappa_t, so that neither matrix under- or overflows.
    top = float(kappa.max())
    scaled = gamma / top * mbar
    margin = float(np.linalg.eigvalsh(np.diag(kappa / top) - scaled)[0])
    root = np.sqrt(kappa / top)
    ratio = float(np.linalg.eigvalsh(scaled / np.outer(root, root))[-1])
    return CheckResult(passed=margin >= -1e-9, worst_margin=margin, worst_ratio=ratio)


def verify_lemma_decrease(trace: list[RoundStats], gamma: float,
                          tol: float = 1e-8) -> CheckResult:
    """Per-round decrease inequality

        D(alpha + gamma*delta) <= (1-gamma) D(alpha) + gamma * sum_t G_t(delta_t)

    with G_t(delta_t) = sum_{i in t} l*(-(alpha + delta)_i) + R*(v)/m + w_t . u_t
    + kappa_t / 2 * ||u_t||^2 and u_t = X_t delta_t.  As sum_t G_t(0) = sum_i
    l*(-alpha_i) + R*(v) = D(alpha), the right side is D(alpha) - gamma * sum_t
    [G_t(0) - G_t(delta_t)], read from ``dual_before`` and
    ``subproblem_decrease``."""
    worst = math.inf
    worst_ratio = -math.inf
    for stats in trace:
        if stats.dual_before is None or stats.subproblem_decrease is None:
            raise ValueError(f"round {stats.h}: trace lacks decrease-check fields")
        rhs = stats.dual_before - gamma * stats.subproblem_decrease
        scale = max(1.0, abs(stats.dual_before), abs(stats.dual))
        margin = (rhs - stats.dual) / scale
        worst = min(worst, margin)
        worst_ratio = max(worst_ratio, (stats.dual - rhs) / scale)
    passed = worst >= -tol
    return CheckResult(passed=passed, worst_margin=float(worst),
                       worst_ratio=float(worst_ratio))
