"""Task-coupling regularizers and the matrices that drive the dual solver.

The coupling models act on the per-task weight matrix W (d x m).  Writing w
for the stacked columns of W, every supported model can be rewritten as the
quadratic form

    R(w) = w^T (Q kron I_d) w,    Q = Mbar^{-1},

for a symmetric positive definite m x m precision Q.  The conjugate is then
R*(v) = v^T (Mbar kron I_d) v / 4 and the dual-to-primal map is w = Mbar v / 2
blockwise; the 1/2 is forced by the quadratic-form convention and is pinned by
the Fenchel-Young tests.

``build_relationship`` turns a model and its Omega into a
``RelationshipState`` that stores both Q and Mbar.  Below ``run_mocha`` the
solver and the baselines read the coupling only through that state: the
model is consulted again only to rebuild it after a central Omega update.

Stacked md-vectors are represented throughout as d x m arrays whose column t
is the block belonging to task t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MeanRegularized:
    """Fixed coupling: lambda1 * tr(W Omega W^T) + lambda2 * ||W||_F^2."""

    lambda1: float
    lambda2: float

    def __post_init__(self):
        if not (0.0 <= self.lambda1 < np.inf and 0.0 < self.lambda2 < np.inf):
            raise ValueError("need finite lambda1 >= 0 and lambda2 > 0")


@dataclass(frozen=True)
class ProbabilisticPrior:
    """Learned coupling: lam * (||W||^2 / sigma2_prior + tr(W Omega^{-1} W^T)),
    with Omega constrained to the trace-one PSD set and re-estimated centrally.

    Omega from the trace-normalized square root can be singular, so a ridge
    ``Omega + ridge_eps * I`` is applied before every inversion.
    """

    lam: float
    sigma2_prior: float = 1.0
    ridge_eps: float = 1e-6

    def __post_init__(self):
        if not all(0.0 < v < np.inf for v in (self.lam, self.sigma2_prior, self.ridge_eps)):
            raise ValueError("need finite lam, sigma2_prior, ridge_eps > 0")


OmegaModel = MeanRegularized | ProbabilisticPrior


def mean_reg_omega(m: int) -> np.ndarray:
    """Squared centering projection (I - 11^T/m)^2; couples every task to the mean."""
    if m < 1:
        raise ValueError("m must be >= 1")
    c = np.eye(m) - np.full((m, m), 1.0 / m)
    omega = c @ c
    return 0.5 * (omega + omega.T)


def initial_omega(model: OmegaModel, m: int) -> np.ndarray:
    if isinstance(model, MeanRegularized):
        return mean_reg_omega(m)
    return np.eye(m) / m


def sigma_prime(mbar: np.ndarray, gamma: float = 1.0) -> float:
    """Safe subproblem coefficient: gamma * max_t sum_t' |Mbar_tt'| / Mbar_tt."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    diag = np.diag(mbar)
    return float(gamma * np.max(np.abs(mbar).sum(axis=1) / diag))


def sigma_prime_per_task(mbar: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """Per-task variant; looser tasks get a smaller coefficient. Max equals sigma_prime."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    diag = np.diag(mbar)
    return gamma * np.abs(mbar).sum(axis=1) / diag


def regularizer_conjugate(v: np.ndarray, mbar: np.ndarray) -> float:
    """R*(v) = sum_{t,t'} Mbar_tt' <v_t, v_t'> / 4 for blocks v_t = v[:, t]."""
    return float(0.25 * np.sum(mbar * (v.T @ v)))


def primal_from_dual(v: np.ndarray, mbar: np.ndarray) -> np.ndarray:
    """Gradient of the conjugate: column t is sum_t' Mbar_tt' v_t' / 2."""
    return 0.5 * (v @ mbar)


def regularizer_value(W: np.ndarray, precision: np.ndarray) -> float:
    """R(W) = tr(W Q W^T) for the coupling's precision Q = Mbar^{-1}."""
    return float(np.sum((W @ precision) * W))


def regularizer_grad(W: np.ndarray, precision: np.ndarray) -> np.ndarray:
    """Gradient of regularizer_value with respect to W: 2 W Q."""
    return 2.0 * (W @ precision)


def update_omega(model: OmegaModel, W: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Central coupling update given the current weights.

    Fixed-coupling models return omega unchanged.  The probabilistic model
    returns the trace-normalized symmetric square root of W^T W, computed
    from the thin SVD W = U S V^T as V S V^T, so a rank-deficient W (d < m)
    does not turn roundoff in W^T W into square roots of order sqrt(eps); a
    degenerate W falls back to I/m.
    """
    if isinstance(model, MeanRegularized):
        return omega
    if not np.all(np.isfinite(W)):
        raise ValueError("weights must be finite for the coupling update")
    m = W.shape[1]
    _, s, vt = np.linalg.svd(W, full_matrices=False)
    root = (vt.T * s) @ vt
    tr = float(s.sum())
    if tr < model.ridge_eps:
        return np.eye(m) / m
    out = root / tr
    return 0.5 * (out + out.T)


@dataclass(frozen=True, eq=False)
class RelationshipState:
    """Coupling snapshot the solver runs against: Omega, the precision
    Q = Mbar^{-1} of the penalty, Mbar itself, the safe sigma', and each
    task's local quadratic coefficient kappa_t (see ``build_relationship``).

    Immutable between central coupling updates; rebuilt (and every derived
    coefficient with it) whenever Omega changes.
    """

    omega: np.ndarray
    precision: np.ndarray
    mbar: np.ndarray
    sigma_prime: float
    kappa: np.ndarray
    gamma: float


def _check_pd(mat: np.ndarray, what: str) -> None:
    """Raise LinAlgError, naming the smallest eigenvalue, unless ``mat`` has a
    Cholesky factor; the eigenvalues are computed only on failure."""
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        low = float(np.linalg.eigvalsh(mat)[0])
        raise np.linalg.LinAlgError(
            f"{what} not positive definite (min eigenvalue {low:.3e})"
        ) from None


def build_relationship(model: OmegaModel, omega: np.ndarray, gamma: float = 1.0,
                       sigma_prime_mode: str = "global") -> RelationshipState:
    """The state for this Omega: the precision Q of the model's penalty,
    Mbar = Q^{-1} and kappa_t = sigma' * Mbar_tt, with task t's own sigma'_t
    under ``per_task``.  An unknown mode or a non-finite Omega raises
    ValueError; a ridged Omega or a Q that is not positive definite raises
    LinAlgError."""
    if sigma_prime_mode not in ("global", "per_task"):
        raise ValueError("sigma_prime_mode must be 'global' or 'per_task'")
    if not np.all(np.isfinite(omega)):
        raise ValueError("omega must be finite")
    m = omega.shape[0]
    if isinstance(model, MeanRegularized):
        precision = model.lambda1 * omega + model.lambda2 * np.eye(m)
    else:
        tr = float(np.trace(omega))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"probabilistic coupling needs trace(omega)=1, got {tr!r}")
        ridged = omega + model.ridge_eps * np.eye(m)
        _check_pd(ridged, "omega + ridge")
        precision = model.lam * (np.eye(m) / model.sigma2_prior + np.linalg.inv(ridged))
    _check_pd(precision, "coupling matrix")
    mbar = np.linalg.inv(precision)
    mbar = 0.5 * (mbar + mbar.T)
    sp = sigma_prime(mbar, gamma)
    task_sp = sp if sigma_prime_mode == "global" else sigma_prime_per_task(mbar, gamma)
    return RelationshipState(
        omega=omega,
        precision=precision,
        mbar=mbar,
        sigma_prime=sp,
        kappa=task_sp * np.diag(mbar),
        gamma=gamma,
    )


def write_matrix_csv(path, mat: np.ndarray) -> None:
    """Row-major CSV dump with a leading ``m,<rows>`` header line."""
    mat = np.asarray(mat, dtype=float)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"m,{mat.shape[0]}\n")
        for row in mat:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 2 or header[0] != "m":
            raise ValueError(f"{path}: malformed matrix header {header!r}")
        rows = [
            [float(x) for x in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    return np.array(rows, dtype=float)
