import math
from dataclasses import dataclass

import numpy as np
import pytest

from fedmtl import solver
from fedmtl.data import FederatedDataset, TaskDataset
from fedmtl.losses import DOMAIN_ATOL, LossKind, conjugate_sum, subgradient
from fedmtl.regularizers import regularizer_grad
from fedmtl.solver import (
    SGD_STREAM,
    SOLVER_STREAM,
    ConstantPolicy,
    FixedQualitySolver,
    PrimalState,
    RoundResult,
    RoundStats,
    RoundView,
    RunResult,
    primal_objective,
)


def make_task(rng, d=6, n=12, task_id=0):
    X = rng.standard_normal((d, n))
    y = rng.choice([-1.0, 1.0], size=n)
    # avoid single-class degenerate tasks
    if np.all(y == y[0]):
        y[0] = -y[0]
    return TaskDataset(task_id, X, y)


def make_dataset(rng, m=3, d=6, n_lo=8, n_hi=15):
    tasks = []
    for t in range(m):
        n = int(rng.integers(n_lo, n_hi + 1))
        tasks.append(make_task(rng, d=d, n=n, task_id=t))
    return FederatedDataset(tuple(tasks))


def block(state, ds, t):
    """Task t's block of the packed dual, as a writable view."""
    return state.packed[ds.offsets[t]:ds.offsets[t + 1]]


def recompute_v(state, ds):
    """Fresh X @ alpha, column per task, for checking the solver's running v."""
    v = np.empty((ds.d, ds.m))
    for t, task in enumerate(ds.tasks):
        v[:, t] = task.features @ block(state, ds, t)
    return v


def random_view(rng, kind, d=6, n=10, kappa=None):
    """A one-node RoundView of random data, dual block, w and kappa."""
    X = rng.standard_normal((d, n))
    y = rng.choice([-1.0, 1.0], size=n)
    if kind is LossKind.HINGE:
        alpha = y * rng.uniform(0.0, 1.0, size=n)
    else:
        alpha = 0.5 * rng.standard_normal(n)
    w = 0.5 * rng.standard_normal(d)
    kappa = float(rng.uniform(0.5, 2.0)) if kappa is None else kappa
    ds = FederatedDataset((TaskDataset(0, X, y),))
    return RoundView(ds, kind, alpha, w[:, None], np.array([kappa]))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def sigma_prime_sides(ds, mbar, kappa, gamma, alphas):
    """Both sides of the sigma' condition, sum_t kappa_t ||X_t alpha_t||^2 and
    gamma * ||X alpha||^2_Mbar, for each dual (row of ``alphas``)."""
    alphas = np.atleast_2d(alphas)
    o = ds.offsets
    U = np.stack([alphas[:, o[t]:o[t + 1]] @ task.features.T
                  for t, task in enumerate(ds.tasks)], axis=2)
    G = np.einsum("ids,idt->ist", U, U)
    return np.einsum("itt,t->i", G, kappa), gamma * np.einsum("ist,st->i", G, mbar)


# ---------------------------------------------------------------------------
# Scalar and per-node references the package's vector code is checked against


def _check_label(y) -> None:
    if y not in (-1, 1, -1.0, 1.0):
        raise ValueError(f"label must be +1 or -1, got {y!r}")


def loss_value(kind: LossKind, u: float, y: float) -> float:
    """l(u, y) for one score: the reference for ``losses.loss_sum``."""
    _check_label(y)
    if kind is LossKind.HINGE:
        return max(0.0, 1.0 - y * u)
    return 0.5 * (u - y) ** 2


def conjugate_value(kind: LossKind, a: float, y: float) -> float:
    """l*(-a) for one dual; +inf outside the hinge dual box.  The reference
    for ``losses.conjugate_sum`` and ``losses.conjugate_terms``."""
    _check_label(y)
    if kind is LossKind.HINGE:
        b = a * y
        if b < -DOMAIN_ATOL or b > 1.0 + DOMAIN_ATOL:
            return math.inf
        return -a * y
    return 0.5 * a * a - a * y


def _view_value(view: RoundView, t: int, delta_t: np.ndarray) -> float:
    """Node t's constant-free subproblem value at its block ``delta_t``;
    raises DualInfeasibleError outside the hinge dual box.  The per-node
    reference for ``solver._node_values``."""
    block = slice(view.ds.offsets[t], view.ds.offsets[t + 1])
    u = view.ds.tasks[t].features @ delta_t
    conj = conjugate_sum(view.kind, view.alpha[block] + delta_t, view.ds.labels[block])
    return conj + float(view.W[:, t] @ u) + 0.5 * float(view.kappa[t]) * float(u @ u)


def measure_theta(view: RoundView, t: int, delta_t: np.ndarray,
                  oracle_t: np.ndarray) -> float:
    """Relative suboptimality of node t's local solution ``delta_t`` against
    its subproblem optimum ``oracle_t`` (see ``solver.oracle_subproblem_opt``):
    1 for no progress, 0 for an exact solve.  A vanishing denominator means
    the subproblem was already solved, reported as 0.  The per-node
    reference for the quality ``solver.FixedQualitySolver`` reports."""
    g_zero = _view_value(view, t, np.zeros_like(delta_t))
    g_star = _view_value(view, t, oracle_t)
    denom = g_zero - g_star
    if denom <= 1e-14:
        return 0.0
    theta = (_view_value(view, t, delta_t) - g_star) / denom
    return float(min(1.0, max(0.0, theta)))


def node_permutation(seed, tag, round_idx, sizes, t, count) -> np.ndarray:
    """Node t's first ``count`` entries of ``solver.draw_permutations``,
    from its numpy reference, drawn with every other node's count 0."""
    counts = np.zeros(len(sizes), dtype=np.int64)
    counts[t] = count
    return solver._draw_permutations_py(solver._round_key(seed, tag, round_idx),
                                        np.asarray(sizes, dtype=np.int64), counts)


def mb_sgd_reference(ds, kind, rel, batch, step, rounds, *, seed=0, schedule="constant",
                     policy=None) -> RunResult:
    """``baselines.mb_sgd_run`` with each node's batch drawn on its own from
    the numpy reference, the first b_t entries of its permutation under
    ``SGD_STREAM``: the reference for its one ``draw_permutations`` call per
    round."""
    if policy is None:
        policy = ConstantPolicy(batch)
    W = np.zeros((ds.d, ds.m))
    trace = []
    for h in range(rounds):
        eta = step if schedule == "constant" else step / math.sqrt(h + 1.0)
        grad = regularizer_grad(W, rel.precision)
        counts = []
        dropped = []
        budgets, drops = policy.draws(ds.m, h)
        for t, task in enumerate(ds.tasks):
            if drops[t]:
                dropped.append(t)
                grad[:, t] = 0.0
                counts.append(0)
                continue
            b_t = min(max(int(budgets[t]), 1), task.n)
            counts.append(b_t)
            idx = node_permutation(seed, SGD_STREAM, h, ds.task_sizes(), t, b_t)
            Xb = task.features[:, idx]
            g = subgradient(kind, W[:, t] @ Xb, task.labels[idx])
            grad[:, t] += (task.n / b_t) * (Xb @ g)
        W -= eta * grad
        trace.append(RoundStats(
            h=h, dual=None, gap=None,
            primal=primal_objective(W, ds, kind, rel),
            dropped=dropped, update_counts=counts,
        ))
    return RunResult(trace, PrimalState(W), rel.omega)


@dataclass(frozen=True)
class CocoaReferenceSolver(FixedQualitySolver):
    """``solver.FixedQualitySolver`` with each node's passes drawn on its
    own from the numpy reference, all ``max_passes`` of them at once, pass p
    the node's (p + 1)-th permutation, and each pass one checked
    ``_run_round`` call: the reference for its redrawn passes from
    ``draw_permutations`` and its ``_sweeps``."""

    def __call__(self, view, budgets, drops, seed, round_idx):
        ds = view.ds
        live = [t for t in range(ds.m) if not drops[t]]
        _, g_star = solver.oracle_subproblem_opt(view, live, solver._COCOA_ORACLE_TOL)
        delta, U = np.zeros(ds.n), np.zeros((ds.m, ds.d))
        denom = solver._node_values(view, delta, U) - g_star
        theta = np.where(denom > 1e-14, 1.0, 0.0)
        active = ~np.asarray(drops, dtype=bool) & (denom > 1e-14)
        sizes = np.diff(ds.offsets)
        perms = {t: node_permutation(seed, SOLVER_STREAM, round_idx, sizes, t,
                                     self.max_passes * sizes[t])
                 for t in np.flatnonzero(active)}
        counts = np.zeros(ds.m, dtype=np.int64)
        for p in range(self.max_passes):
            if not active.any():
                break
            passed = np.where(active, sizes, 0)
            idx = np.concatenate([perms[t][p * sizes[t]:(p + 1) * sizes[t]]
                                  for t in np.flatnonzero(active)])
            solver._run_round(view, idx, passed, delta, U)
            counts += passed
            values = solver._node_values(view, delta, U)
            theta[active] = (values[active] - g_star[active]) / denom[active]
            active &= theta > self.theta_target
        thetas = [1.0 if drops[t] else float(min(1.0, max(0.0, theta[t])))
                  for t in range(ds.m)]
        return RoundResult(delta, U.T, counts.tolist(), thetas if live else None)


def read_matrix_csv(path) -> np.ndarray:
    """Reads back what ``regularizers.write_matrix_csv`` writes."""
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
