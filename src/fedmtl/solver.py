"""Synchronous federated solver for coupled multi-task models.

Alternates between a federated update of the per-task weights and a central
update of the task-coupling matrix.  The weight update runs in the dual: each
round, every node approximately solves a data-local quadratic subproblem
against a frozen snapshot of its weight block and ships back only the d-vector
delta_v_t = X_t @ delta_alpha_t; the coordinator reduces the blocks and
rebroadcasts.  Nodes may do arbitrarily little work in a round (including
nothing at all, modelling a dropped node) without breaking convergence.

Objectives, with v = X @ alpha maintained incrementally and W = w(alpha):

    dual    D(alpha) = sum_i l*(-alpha_i) + R*(v)        (minimized)
    primal  P(W)     = sum_i l(w_t . x_i, y_i) + R(W)
    gap     G(alpha) = D(alpha) + P(W(alpha)) >= 0

Stored subproblem values omit the constant R*(v)/m share that every task
carries; it cancels in the approximation-quality ratio and in all decrease
checks, which re-add it explicitly where needed.

Concurrency: node solves within a round read a frozen snapshot and write only
their own blocks, so they may run on a thread pool; the reduce step applies
deltas in task order, making traces bit-identical for any worker count.
Per-node randomness comes from streams keyed by (seed, stream, task, round).
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .data import FederatedDataset
from .losses import (
    INFEASIBLE,
    DualInfeasibleError,
    LossKind,
    _hinge_delta,
    _squared_delta,
    conjugate_sum,
    loss_sum,
)
from .regularizers import (
    OmegaModel,
    RelationshipState,
    build_relationship,
    initial_omega,
    primal_from_dual,
    regularizer_conjugate,
    regularizer_value,
    update_omega,
)

# Stream tags keep the solver, budget, and dropout randomness independent.
SOLVER_STREAM = 11


class ConvergenceError(RuntimeError):
    """An iterative routine hit its cap before reaching its tolerance."""


@dataclass(frozen=True)
class PrimalState:
    """Per-task weight vectors, column t for task t."""

    W: np.ndarray


@dataclass
class DualState:
    """Dual iterate: per-task blocks alpha_t and the shared v with v[:, t] = X_t alpha_t."""

    alpha: list[np.ndarray]
    v: np.ndarray


def init_dual_state(ds: FederatedDataset) -> DualState:
    return DualState(
        alpha=[np.zeros(t.n) for t in ds.tasks],
        v=np.zeros((ds.d, ds.m)),
    )


def recompute_v(state: DualState, ds: FederatedDataset) -> np.ndarray:
    """Fresh X @ alpha, column per task; used by consistency checks."""
    v = np.empty((ds.d, ds.m))
    for t, task in enumerate(ds.tasks):
        v[:, t] = task.features @ state.alpha[t]
    return v


@dataclass
class SolverConfig:
    gamma: float = 1.0
    sigma_prime_mode: str = "global"     # "global" | "per_task"
    inner_rounds: int = 50               # federated rounds per outer iteration
    outer_rounds: int = 1
    gap_tol: float | None = None
    seed: int = 0
    workers: int = 1
    measure_theta_rounds: int = 0        # oracle-measure theta for the first k rounds

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.sigma_prime_mode not in ("global", "per_task"):
            raise ValueError("sigma_prime_mode must be 'global' or 'per_task'")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class RoundStats:
    """One synchronous round: objectives, drops, work done, and optional
    approximation-quality and decrease-check bookkeeping."""

    h: int
    dual: float | None
    primal: float | None
    gap: float | None
    dropped: list[int]
    update_counts: list[int]
    theta: list[float] | None = None
    elapsed_ms_estimated: float | None = None
    dual_before: float | None = None
    subproblem_sum: float | None = None   # sum_t of stored (constant-free) values
    rstar_before: float | None = None     # R*(v) snapshot; re-adds the dropped constant

    def trace_record(self) -> dict:
        return {
            "h": self.h,
            "elapsed_ms_estimated": self.elapsed_ms_estimated,
            "dual": self.dual,
            "primal": self.primal,
            "gap": self.gap,
            "dropped": list(self.dropped),
            "theta": None if self.theta is None else list(self.theta),
        }


@dataclass(frozen=True)
class MochaResult:
    primal: PrimalState
    omega: np.ndarray
    trace: list[RoundStats]
    relationship: RelationshipState


class ConstantPolicy:
    """Fixed per-round update budget, no drops.  Budget may be an int applied
    to every node or a per-node sequence."""

    def __init__(self, budget):
        self._budget = budget

    def budget(self, task_id: int, round_idx: int) -> int:
        if np.isscalar(self._budget):
            return int(self._budget)
        return int(self._budget[task_id])

    def dropped(self, task_id: int, round_idx: int) -> bool:
        return False


# ---------------------------------------------------------------------------
# Objectives


def dual_objective(state: DualState, ds: FederatedDataset, kind: LossKind,
                   rel: RelationshipState) -> float:
    total = 0.0
    for t, task in enumerate(ds.tasks):
        total += conjugate_sum(kind, state.alpha[t], task.labels)
    return total + regularizer_conjugate(state.v, rel.mbar)


def primal_objective(W, ds: FederatedDataset, kind: LossKind,
                     omega: np.ndarray, model: OmegaModel) -> float:
    W = np.asarray(getattr(W, "W", W), dtype=float)
    if W.shape != (ds.d, ds.m):
        raise ValueError(f"weights shape {W.shape} does not match dataset")
    total = 0.0
    for t, task in enumerate(ds.tasks):
        total += loss_sum(kind, W[:, t] @ task.features, task.labels)
    return total + regularizer_value(W, omega, model)


def duality_gap(state: DualState, ds: FederatedDataset, kind: LossKind,
                rel: RelationshipState, model: OmegaModel) -> float:
    W = primal_from_dual(state.v, rel.mbar)
    return dual_objective(state, ds, kind, rel) + primal_objective(
        W, ds, kind, rel.omega, model
    )


# ---------------------------------------------------------------------------
# Local subproblems


@dataclass(frozen=True, eq=False)
class SubproblemView:
    """Frozen per-node picture of one round: local data, current dual block,
    weight snapshot, and the effective quadratic coefficient kappa."""

    X: np.ndarray
    labels: np.ndarray
    alpha: np.ndarray
    w: np.ndarray
    col_norms2: np.ndarray
    kappa: float
    kind: LossKind


def local_subproblem_value(delta_alpha, w_t, alpha_t, labels, X_t,
                           kind: LossKind, kappa: float):
    """Constant-free subproblem value at delta_alpha; INFEASIBLE outside the
    hinge dual box."""
    delta_alpha = np.asarray(delta_alpha, dtype=float)
    u = X_t @ delta_alpha
    try:
        conj = conjugate_sum(kind, np.asarray(alpha_t) + delta_alpha,
                             np.asarray(labels, dtype=float))
    except DualInfeasibleError:
        return INFEASIBLE
    return conj + float(w_t @ u) + 0.5 * kappa * float(u @ u)


def _view_value(view: SubproblemView, delta: np.ndarray, u: np.ndarray | None = None) -> float:
    if u is None:
        u = view.X @ delta
    conj = conjugate_sum(view.kind, view.alpha + delta, view.labels)
    return conj + float(view.w @ u) + 0.5 * view.kappa * float(u @ u)


@dataclass
class LocalResult:
    delta_alpha: np.ndarray
    delta_v: np.ndarray
    update_count: int
    theta: float | None = None      # measured solution quality, if the solver knows it


def _step_function(kind: LossKind):
    """Exact single-coordinate step for the loss, without argument checks."""
    return _hinge_delta if kind is LossKind.HINGE else _squared_delta


def _run_updates(view: SubproblemView, idx: np.ndarray,
                 delta: np.ndarray, u: np.ndarray) -> None:
    """Apply exact single-coordinate updates at the given indices, in order,
    mutating the accumulated delta and u = X @ delta."""
    X = view.X
    w = view.w
    y = view.labels
    alpha = view.alpha
    norms2 = view.col_norms2
    kappa = view.kappa
    step_fn = _step_function(view.kind)
    for i in idx:
        x = X[:, i]
        s = float(w @ x) + kappa * float(u @ x)
        step = step_fn(alpha[i] + delta[i], y[i], s, norms2[i], kappa)
        if step != 0.0:
            delta[i] += step
            u += step * x
    return None


def solve_local(view: SubproblemView, budget: int, rng) -> LocalResult:
    """Run ``budget`` randomized coordinate updates (uniform with replacement).

    A budget of zero models a dropped node.  The subproblem value never
    increases, and the returned delta_v is recomputed as X @ delta_alpha so it
    is exactly consistent with the dual update.
    """
    n_t = view.labels.size
    delta = np.zeros(n_t)
    if budget <= 0:
        return LocalResult(delta, np.zeros(view.X.shape[0]), 0)
    idx = rng.integers(0, n_t, size=int(budget))
    u = np.zeros(view.X.shape[0])
    _run_updates(view, idx, delta, u)
    return LocalResult(delta, view.X @ delta, int(budget))


def oracle_subproblem_opt(view: SubproblemView, tol: float = 1e-13,
                          max_passes: int = 20000) -> np.ndarray:
    """Near-exact subproblem minimizer by cyclic coordinate descent.

    Each sweep applies every coordinate's exact one-dimensional minimizer;
    for these box-constrained quadratics a sweep with no improvement certifies
    optimality, so iteration stops once the per-sweep decrease falls below
    tol * scale. Intended for desk-scale tasks (n_t up to ~1e4).
    """
    n_t = view.labels.size
    delta = np.zeros(n_t)
    u = np.zeros(view.X.shape[0])
    order = np.arange(n_t)
    value = _view_value(view, delta, u)
    for _ in range(max_passes):
        _run_updates(view, order, delta, u)
        new_value = _view_value(view, delta, u)
        if value - new_value <= tol * (1.0 + abs(new_value)):
            return delta
        value = new_value
    raise ConvergenceError(
        f"subproblem solve did not converge within {max_passes} sweeps"
    )


def measure_theta(view: SubproblemView, delta_alpha: np.ndarray,
                  oracle_delta: np.ndarray | None = None) -> float:
    """Relative suboptimality of a local solution: 1 for no progress, 0 for an
    exact solve.  A vanishing denominator means the subproblem was already
    solved, reported as 0."""
    if oracle_delta is None:
        oracle_delta = oracle_subproblem_opt(view)
    g_zero = _view_value(view, np.zeros_like(delta_alpha))
    g_star = _view_value(view, oracle_delta)
    denom = g_zero - g_star
    if denom <= 1e-14:
        return 0.0
    theta = (_view_value(view, delta_alpha) - g_star) / denom
    return float(min(1.0, max(0.0, theta)))


@dataclass(frozen=True)
class FixedQualitySolver:
    """CoCoA's local solver: randomized passes over the local data until the
    measured quality reaches ``theta_target`` or ``max_passes`` run out.  It
    ignores the budget, so per-round work follows the hardest subproblem.

    Quality is measured against the exact subproblem optimum (affordable at
    desk scale), removing estimator noise from method comparisons.
    """

    theta_target: float
    max_passes: int = 500
    oracle_tol: float = 1e-9

    def __call__(self, view: SubproblemView, budget: int, rng) -> LocalResult:
        n_t = view.labels.size
        oracle = oracle_subproblem_opt(view, tol=self.oracle_tol)
        g_zero = _view_value(view, np.zeros(n_t))
        g_star = _view_value(view, oracle)
        denom = g_zero - g_star
        delta = np.zeros(n_t)
        u = np.zeros(view.X.shape[0])
        count = 0
        theta = 0.0
        if denom > 1e-14:
            theta = 1.0
            for _ in range(self.max_passes):
                idx = rng.integers(0, n_t, size=n_t)
                _run_updates(view, idx, delta, u)
                count += n_t
                theta = (_view_value(view, delta, u) - g_star) / denom
                if theta <= self.theta_target:
                    break
        return LocalResult(delta, view.X @ delta, count,
                           float(min(1.0, max(0.0, theta))))


@dataclass(frozen=True)
class MiniBatchSolver:
    """Mini-batch SDCA's local solver: ``budget`` coordinate steps, each taken
    independently against the frozen snapshot, summed and scaled by
    beta / budget.

    With beta = 1 the scaled sum is a convex combination, so hinge
    feasibility is preserved; beta near the budget can overshoot when sampled
    coordinates collide.
    """

    beta: float = 1.0
    # Tells the round engine to report an out-of-box hinge dual as None.
    may_leave_box = True

    def __call__(self, view: SubproblemView, budget: int, rng) -> LocalResult:
        n_t = view.labels.size
        delta = np.zeros(n_t)
        if budget <= 0:
            return LocalResult(delta, np.zeros(view.X.shape[0]), 0)
        idx = rng.integers(0, n_t, size=int(budget))
        scale = self.beta / budget
        step_fn = _step_function(view.kind)
        for i in idx:
            x = view.X[:, i]
            step = step_fn(view.alpha[i], view.labels[i], float(view.w @ x),
                           view.col_norms2[i], view.kappa)
            delta[i] += scale * step
        return LocalResult(delta, view.X @ delta, int(budget))


# ---------------------------------------------------------------------------
# Federated rounds


def _kappa_vector(rel: RelationshipState, mode: str) -> np.ndarray:
    diag = np.diag(rel.mbar)
    if mode == "per_task":
        return rel.sigma_prime_per_task * diag
    return rel.sigma_prime * diag


def make_views(ds: FederatedDataset, kind: LossKind, state: DualState,
               W: np.ndarray, kappa: np.ndarray) -> list[SubproblemView]:
    return [
        SubproblemView(
            X=task.features,
            labels=task.labels,
            alpha=state.alpha[t],
            w=W[:, t],
            col_norms2=task.col_norms2,
            kappa=float(kappa[t]),
            kind=kind,
        )
        for t, task in enumerate(ds.tasks)
    ]


def _unless_infeasible(evaluate, strict: bool):
    """``evaluate()``, or None when it meets an out-of-box hinge dual and the
    round tolerates that."""
    try:
        return evaluate()
    except DualInfeasibleError:
        if strict:
            raise
        return None


def federated_round(ds: FederatedDataset, kind: LossKind, rel: RelationshipState,
                    model: OmegaModel, state: DualState, budgets, drops, *,
                    gamma: float = 1.0, round_idx: int = 0, seed: int = 0,
                    sigma_prime_mode: str = "global", workers: int = 1,
                    measure: bool = False, local_solver=None) -> RoundStats:
    """One synchronous round: parallel local solves against a common snapshot,
    then a gamma-scaled reduce and refreshed objectives.

    ``local_solver(view, budget, rng) -> LocalResult`` defaults to
    ``solve_local`` (MOCHA); ``FixedQualitySolver`` gives CoCoA and
    ``MiniBatchSolver`` mini-batch SDCA.  A solver with a true
    ``may_leave_box`` attribute gets None for every value that needs a
    feasible hinge dual; any other solver raises DualInfeasibleError.
    """
    # Resolved per call, not bound as a default, so a wrapped solve_local is used.
    solve = solve_local if local_solver is None else local_solver
    strict = not getattr(solve, "may_leave_box", False)
    m = ds.m
    W = primal_from_dual(state.v, rel.mbar)
    kappa = _kappa_vector(rel, sigma_prime_mode)
    views = make_views(ds, kind, state, W, kappa)
    dual_before = _unless_infeasible(
        lambda: dual_objective(state, ds, kind, rel), strict)
    rstar_before = regularizer_conjugate(state.v, rel.mbar)

    def _node(t: int) -> LocalResult:
        if drops[t]:
            return LocalResult(np.zeros(ds.tasks[t].n), np.zeros(ds.d), 0)
        rng = np.random.default_rng([seed, SOLVER_STREAM, t, round_idx])
        return solve(views[t], int(budgets[t]), rng)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_node, range(m)))
    else:
        results = [_node(t) for t in range(m)]

    subproblem_sum = _unless_infeasible(lambda: sum(
        _view_value(views[t], results[t].delta_alpha, results[t].delta_v)
        for t in range(m)
    ), strict)
    thetas = None
    if measure:
        thetas = [measure_theta(views[t], results[t].delta_alpha) for t in range(m)]
    elif any(r.theta is not None for r in results):
        # A dropped node made no progress.
        thetas = [1.0 if r.theta is None else r.theta for r in results]

    for t in range(m):
        state.alpha[t] += gamma * results[t].delta_alpha
        state.v[:, t] += gamma * results[t].delta_v

    dual = _unless_infeasible(lambda: dual_objective(state, ds, kind, rel), strict)
    W_new = primal_from_dual(state.v, rel.mbar)
    primal = primal_objective(W_new, ds, kind, rel.omega, model)
    return RoundStats(
        h=round_idx,
        dual=dual,
        primal=primal,
        gap=None if dual is None else dual + primal,
        dropped=[t for t in range(m) if drops[t]],
        update_counts=[r.update_count for r in results],
        theta=thetas,
        dual_before=dual_before,
        subproblem_sum=subproblem_sum,
        rstar_before=rstar_before,
    )


def run_w_update(ds: FederatedDataset, kind: LossKind, rel: RelationshipState,
                 model: OmegaModel, state: DualState, policy, *,
                 rounds: int, gap_tol: float | None = None, gamma: float = 1.0,
                 seed: int = 0, start_round: int = 0,
                 sigma_prime_mode: str = "global", workers: int = 1,
                 measure_theta_rounds: int = 0,
                 local_solver=None) -> list[RoundStats]:
    """Repeat federated rounds with budgets/drops drawn from the policy until
    the round count is exhausted or the duality gap reaches the tolerance.
    ``local_solver`` is passed to every ``federated_round``."""
    out: list[RoundStats] = []
    if gap_tol is not None and duality_gap(state, ds, kind, rel, model) <= gap_tol:
        return out
    for k in range(rounds):
        h = start_round + k
        budgets = [policy.budget(t, h) for t in range(ds.m)]
        drops = [policy.dropped(t, h) for t in range(ds.m)]
        stats = federated_round(
            ds, kind, rel, model, state, budgets, drops,
            gamma=gamma, round_idx=h, seed=seed,
            sigma_prime_mode=sigma_prime_mode, workers=workers,
            measure=k < measure_theta_rounds, local_solver=local_solver,
        )
        out.append(stats)
        if gap_tol is not None and stats.gap is not None and stats.gap <= gap_tol:
            break
    return out


def run_mocha(ds: FederatedDataset, model: OmegaModel, config: SolverConfig,
              policy, kind: LossKind = LossKind.HINGE) -> MochaResult:
    """Full alternating run: federated weight updates interleaved with central
    coupling updates, warm-starting the dual across outer iterations."""
    omega = initial_omega(model, ds.m)
    rel = build_relationship(model, omega, config.gamma)
    state = init_dual_state(ds)
    trace: list[RoundStats] = []
    h = 0
    for _ in range(config.outer_rounds):
        stats = run_w_update(
            ds, kind, rel, model, state, policy,
            rounds=config.inner_rounds, gap_tol=config.gap_tol,
            gamma=config.gamma, seed=config.seed, start_round=h,
            sigma_prime_mode=config.sigma_prime_mode, workers=config.workers,
            measure_theta_rounds=max(0, config.measure_theta_rounds - h),
        )
        trace.extend(stats)
        h += len(stats)
        W = primal_from_dual(state.v, rel.mbar)
        new_omega = update_omega(model, W, omega)
        if new_omega is not omega:
            omega = new_omega
            rel = build_relationship(model, omega, config.gamma)
    W = primal_from_dual(state.v, rel.mbar)
    return MochaResult(PrimalState(W), omega, trace, rel)


# ---------------------------------------------------------------------------
# Trace output

TRACE_FIELDS = ["h", "elapsed_ms_estimated", "dual", "primal", "gap", "dropped", "theta"]


def write_trace_jsonl(path, trace: list[RoundStats]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for stats in trace:
            fh.write(json.dumps(stats.trace_record()) + "\n")


def write_trace_csv(path, trace: list[RoundStats]) -> None:
    """CSV mirror of the JSONL trace; list fields are semicolon-joined."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        for stats in trace:
            rec = stats.trace_record()
            writer.writerow([
                rec["h"],
                "" if rec["elapsed_ms_estimated"] is None else rec["elapsed_ms_estimated"],
                "" if rec["dual"] is None else rec["dual"],
                "" if rec["primal"] is None else rec["primal"],
                "" if rec["gap"] is None else rec["gap"],
                ";".join(str(t) for t in rec["dropped"]),
                "" if rec["theta"] is None else ";".join(repr(x) for x in rec["theta"]),
            ])
