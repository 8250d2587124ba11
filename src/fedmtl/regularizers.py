"""Task-coupling regularizers and the matrices that drive the dual solver.

The coupling models act on the per-task weight matrix W (d x m).  Writing w
for the stacked columns of W, every supported model can be rewritten as the
quadratic form

    R(w) = w^T (Q kron I_d) w,    Q = Mbar^{-1},

for a symmetric positive definite m x m precision Q.  The conjugate is then
R*(v) = v^T (Mbar kron I_d) v / 4 and the dual-to-primal map is w = Mbar v / 2
blockwise; the 1/2 is forced by the quadratic-form convention and is pinned by
the Fenchel-Young tests.

Both models' Q has eigenvalue q(omega_i) on each eigenvector of Omega:
q(x) = lambda1 x + lambda2 (``MeanRegularized``) or lam (1 / sigma2_prior +
1 / (x + ridge_eps)) (``ProbabilisticPrior``).  ``build_relationship`` builds
Q, Mbar (1/q on the same vectors), sigma' and kappa from Omega's eigenpairs
into a ``RelationshipState``, inverting and factoring nothing.  Below
``run_mocha`` the solver and the baselines read the coupling only through
that state: the model is consulted again only to rebuild it after a central
Omega update.

Stacked md-vectors are represented throughout as d x m arrays whose column t
is the block belonging to task t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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

    Omega from the trace-normalized square root can be singular, so the
    penalty inverts the ridged ``Omega + ridge_eps * I``.
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


def check_gamma(gamma: float) -> None:
    """Refuse a gamma outside [tiny, 1], tiny the smallest normal double: a
    subnormal gamma underflows every kappa_t to 0, and the run never moves."""
    if not np.finfo(float).tiny <= gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1] and a normal float, got {gamma!r}")


def sigma_prime(mbar: np.ndarray, gamma: float = 1.0) -> float:
    """Smallest safe scalar subproblem coefficient: gamma * lambda_max(D^{-1/2}
    Mbar D^{-1/2}) with D = diag(Mbar).  With kappa_t = sigma' * Mbar_tt / 2,
    diag(kappa) - gamma * Mbar / 2 is then positive semidefinite, the sigma'
    condition against the Hessian Mbar / 2 of R*."""
    check_gamma(gamma)
    root = np.sqrt(np.diag(mbar))
    return gamma * float(np.linalg.eigvalsh(mbar / np.outer(root, root))[-1])


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


class Eigenpairs(NamedTuple):
    """Omega = V diag(values) V^T + rest * (I - V V^T), for V = ``vectors``
    (m x r, orthonormal columns); ``rest`` is Omega's one eigenvalue on the
    complement of V's span, unused when r = m."""

    values: np.ndarray
    vectors: np.ndarray
    rest: float


def initial_eigenpairs(model: OmegaModel, m: int) -> Eigenpairs:
    """Eigenpairs of ``initial_omega``: the centering projection has
    eigenvalue 0 on the all-ones vector and 1 on its complement, and I/m the
    one eigenvalue 1/m."""
    if isinstance(model, MeanRegularized):
        return Eigenpairs(np.zeros(1), np.full((m, 1), m ** -0.5), 1.0)
    return Eigenpairs(np.empty(0), np.empty((m, 0)), 1.0 / m)


def update_omega(model: OmegaModel, W: np.ndarray,
                 omega: np.ndarray) -> tuple[np.ndarray, Eigenpairs | None]:
    """Central coupling update given the current weights: the new Omega and
    its eigenpairs for ``build_relationship``, or omega unchanged and None
    for a fixed coupling.  The probabilistic model's Omega is the
    trace-normalized square root of W^T W from the thin SVD W = U S V^T, as
    V S V^T / tr(S), so a rank-deficient W (d < m) does not turn roundoff in
    W^T W into square roots of order sqrt(eps); W's null space is the
    eigenvalue 0.  A degenerate W falls back to I/m.
    """
    if isinstance(model, MeanRegularized):
        return omega, None
    if not np.all(np.isfinite(W)):
        raise ValueError("weights must be finite for the coupling update")
    m = W.shape[1]
    _, s, vt = np.linalg.svd(W, full_matrices=False)
    tr = float(s.sum())
    if tr < model.ridge_eps:
        return initial_omega(model, m), initial_eigenpairs(model, m)
    values = s / tr
    out = (vt.T * values) @ vt
    return 0.5 * (out + out.T), Eigenpairs(values, vt.T, 0.0)


@dataclass(frozen=True, eq=False)
class RelationshipState:
    """Coupling snapshot the solver runs against: Omega, the precision
    Q = Mbar^{-1} of the penalty, Mbar itself, the spectral sigma' and each
    task's local quadratic coefficient kappa_t = sigma' * Mbar_tt / 2 (see
    ``build_relationship``).

    Immutable between central coupling updates; rebuilt (and every derived
    coefficient with it) whenever Omega changes.
    """

    omega: np.ndarray
    precision: np.ndarray
    mbar: np.ndarray
    sigma_prime: float
    kappa: np.ndarray
    gamma: float


def _spectral(V: np.ndarray, f_values: np.ndarray, f_rest: float) -> np.ndarray:
    """The symmetric matrix with eigenvalue f_values[i] on column i of V
    (orthonormal columns) and f_rest on the complement of their span."""
    out = (V * (f_values - f_rest)) @ V.T
    out[np.diag_indices(len(V))] += f_rest
    return 0.5 * (out + out.T)


def build_relationship(model: OmegaModel, omega: np.ndarray, gamma: float = 1.0,
                       eigenpairs: Eigenpairs | None = None) -> RelationshipState:
    """The state for this Omega: the precision Q of the model's penalty,
    Mbar = Q^{-1}, the spectral ``sigma_prime`` and kappa_t = sigma' *
    Mbar_tt / 2.  The 1/2 is the Hessian Mbar / 2 of R*, so kappa is exact
    for m = 1.

    Q and Mbar come from Omega's ``eigenpairs`` (as ``update_omega`` and
    ``initial_eigenpairs`` give them), or from one ``eigh`` of Omega when
    they are not given.  A non-finite Omega or a kappa_t that is not finite
    and > 0 raises ValueError; a ridged Omega or a Q that is not positive definite raises
    LinAlgError naming its smallest eigenvalue."""
    if not np.all(np.isfinite(omega)):
        raise ValueError("omega must be finite")
    m = omega.shape[0]
    if eigenpairs is None:
        values, vectors = np.linalg.eigh(0.5 * (omega + omega.T))
        eigenpairs = Eigenpairs(values, vectors, 0.0)
    # Every distinct eigenvalue of Omega: the listed ones, and rest when r < m.
    values, vectors, rest = eigenpairs
    spectrum = np.append(values, [rest] if vectors.shape[1] < m else [])
    if isinstance(model, MeanRegularized):
        q = model.lambda1 * spectrum + model.lambda2
    else:
        tr = float(np.trace(omega))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"probabilistic coupling needs trace(omega)=1, got {tr!r}")
        ridged = spectrum + model.ridge_eps
        if ridged.min() <= 0.0:
            raise np.linalg.LinAlgError(
                f"omega + ridge not positive definite (min eigenvalue {ridged.min():.3e})")
        q = model.lam * (1.0 / model.sigma2_prior + 1.0 / ridged)
    if not (q.min() > 0.0 and q.max() < np.inf):
        raise np.linalg.LinAlgError(f"coupling matrix not positive definite and finite "
                                    f"(min eigenvalue {q.min():.3e}, max {q.max():.3e})")
    r = len(values)
    # One Newton-Schulz step toward orthonormal columns cuts the eigenvectors'
    # own roundoff, which Q Mbar = I would otherwise carry times cond(Q).
    vectors = vectors @ (1.5 * np.eye(r) - 0.5 * (vectors.T @ vectors))
    # q[-1] is rest's q; when r = m, V V^T = I and any eigenvalue serves.
    precision = _spectral(vectors, q[:r], q[-1])
    mbar = _spectral(vectors, 1.0 / q[:r], 1.0 / q[-1])
    sp = sigma_prime(mbar, gamma)
    kappa = 0.5 * sp * np.diag(mbar)
    if not np.all((kappa > 0.0) & (kappa < np.inf)):
        raise ValueError(f"gamma = {gamma!r} gives a kappa_t that is not finite and > 0 "
                         f"(kappa in [{kappa.min():.3g}, {kappa.max():.3g}])")
    return RelationshipState(
        omega=omega,
        precision=precision,
        mbar=mbar,
        sigma_prime=sp,
        kappa=kappa,
        gamma=gamma,
    )


def write_matrix_csv(path, mat: np.ndarray) -> None:
    """Row-major CSV dump with a leading ``m,<rows>`` header line."""
    mat = np.asarray(mat, dtype=float)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"m,{mat.shape[0]}\n")
        for row in mat:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
