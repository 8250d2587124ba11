"""Compared methods: fixed-quality synchronous solves, mini-batch primal and
dual updates, and fully local / fully global single-model trainers.

Every runner consumes the same dataset type and emits the same round-trace
records as the federated solver, so time-to-quality comparisons line up
column for column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FederatedDataset, TaskDataset, prediction_error, standardize, train_test_split
from .losses import LossKind, subgradient
from .regularizers import (
    MeanRegularized,
    RelationshipState,
    build_relationship,
    primal_from_dual,
    regularizer_grad,
)
from .solver import (
    SGD_STREAM,
    ConstantPolicy,
    ConvergenceError,
    FixedQualitySolver,
    MiniBatchSolver,
    PrimalState,
    RoundStats,
    RunResult,
    SolverConfig,
    draw_permutations,
    duality_gap,
    init_dual_state,
    primal_objective,
    run_w_update,
)
# Unused here, but perfbench's tracer patches these names in this module.
from .solver import dual_objective, make_views, oracle_subproblem_opt  # noqa: F401

DEFAULT_LAMBDA_GRID = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)


# Settings of the compared methods, with their defaults: theta and max_passes
# for cocoa, batch and beta for mb_sdca, batch, step and schedule for mb_sgd.
METHOD_DEFAULTS = {"theta": 0.1, "batch": 1, "beta": 1.0, "step": 0.1,
                   "schedule": "constant", "max_passes": 500}


def check_method_params(params: dict) -> None:
    """Raise ValueError when any setting of ``params``, which holds every key
    of ``METHOD_DEFAULTS``, is out of range, whichever method will read it.
    ``mb_sgd_run`` also takes a ``step`` of zero, a valid no-op run."""
    if not 0.0 <= params["theta"] < 1.0:
        raise ValueError("theta must be in [0, 1)")
    if params["max_passes"] < 1:
        raise ValueError("max_passes must be >= 1")
    if params["batch"] < 1:
        raise ValueError("batch must be >= 1")
    if not 1.0 <= params["beta"] <= params["batch"]:
        raise ValueError("beta must be in [1, batch]")
    if params["schedule"] not in ("constant", "inv_sqrt"):
        raise ValueError("schedule must be 'constant' or 'inv_sqrt'")
    if not 0.0 < params["step"] < math.inf:
        raise ValueError("step must be finite and > 0")


def cocoa_run(ds: FederatedDataset, kind: LossKind, rel: RelationshipState,
              theta_target: float, rounds: int, *,
              seed: int = 0, gap_tol: float | None = None,
              max_passes: int = 500) -> RunResult:
    """Synchronous solver with one fixed solution quality across all nodes and
    rounds: every node grinds until its measured quality reaches the target
    (see ``FixedQualitySolver``), however long that takes.  It runs against
    the fixed coupling ``rel``."""
    check_method_params({**METHOD_DEFAULTS, "theta": theta_target, "max_passes": max_passes})
    state = init_dual_state(ds)
    trace = run_w_update(
        ds, kind, rel, state, ConstantPolicy(0),
        rounds=rounds, gap_tol=gap_tol, seed=seed,
        local_solver=FixedQualitySolver(theta_target, max_passes),
    )
    return RunResult(trace, PrimalState(primal_from_dual(state.v, rel.mbar)), rel.omega)


def mb_sdca_run(ds: FederatedDataset, kind: LossKind, rel: RelationshipState,
                batch: int, beta: float, rounds: int, *,
                seed: int = 0, policy=None,
                gap_tol: float | None = None) -> RunResult:
    """Mini-batch dual coordinate ascent: each node computes ``batch`` (or the
    policy's budget of) independent coordinate deltas against the frozen
    snapshot and applies them scaled by beta over their count (see
    ``MiniBatchSolver``), against the fixed coupling ``rel``.  Hinge dual
    values that leave the box are reported as None."""
    check_method_params({**METHOD_DEFAULTS, "batch": batch, "beta": beta})
    state = init_dual_state(ds)
    trace = run_w_update(
        ds, kind, rel, state,
        ConstantPolicy(batch) if policy is None else policy,
        rounds=rounds, gap_tol=gap_tol, seed=seed,
        local_solver=MiniBatchSolver(beta),
    )
    return RunResult(trace, PrimalState(primal_from_dual(state.v, rel.mbar)), rel.omega)


def mb_sgd_run(ds: FederatedDataset, kind: LossKind, rel: RelationshipState,
               batch: int, step: float, rounds: int, *,
               seed: int = 0, schedule: str = "constant",
               policy=None) -> RunResult:
    """Mini-batch subgradient descent on the primal: every node estimates the
    subgradient of its local loss term from ``batch`` (or the policy's budget
    of) points, without replacement, adds its column of the gradient of the
    fixed coupling ``rel``'s penalty, and the update is applied
    synchronously.

    Round h's batches are one ``draw_permutations`` call under
    ``SGD_STREAM``: node t's is the first b_t entries of its permutation,
    with b_t its budget clipped to [1, n_t], a uniform subset of b_t
    distinct examples, and a dropped node draws none."""
    check_method_params({**METHOD_DEFAULTS, "batch": batch, "schedule": schedule})
    if not 0.0 <= step < math.inf:
        raise ValueError("step must be finite and >= 0")
    if policy is None:
        policy = ConstantPolicy(batch)
    W = np.zeros((ds.d, ds.m))
    trace: list[RoundStats] = []
    for h in range(rounds):
        eta = step if schedule == "constant" else step / math.sqrt(h + 1.0)
        grad = regularizer_grad(W, rel.precision)
        budgets, drops = policy.draws(ds.m, h)
        counts = [0 if drops[t] else min(max(int(budgets[t]), 1), task.n)
                  for t, task in enumerate(ds.tasks)]
        dropped = [t for t in range(ds.m) if drops[t]]
        batches = draw_permutations(seed, SGD_STREAM, h, ds.sizes, counts)
        for t, (task, idx) in enumerate(zip(ds.tasks, np.split(batches, np.cumsum(counts)))):
            if drops[t]:
                grad[:, t] = 0.0
                continue
            Xb = task.features[:, idx]
            g = subgradient(kind, W[:, t] @ Xb, task.labels[idx])
            grad[:, t] += (task.n / counts[t]) * (Xb @ g)
        W -= eta * grad
        trace.append(RoundStats(
            h=h, dual=None, gap=None,
            primal=primal_objective(W, ds, kind, rel),
            dropped=dropped, update_counts=counts,
        ))
    return RunResult(trace, PrimalState(W), rel.omega)


# ---------------------------------------------------------------------------
# Local and global reference models


def _solve_single_task(X: np.ndarray, y: np.ndarray, lam: float,
                       kind: LossKind, gap_tol: float,
                       max_epochs: int, seed: int) -> np.ndarray:
    task = TaskDataset(task_id=0, features=X, labels=y)
    ds = FederatedDataset((task,))
    rel = build_relationship(MeanRegularized(lambda1=0.0, lambda2=lam), np.zeros((1, 1)))
    state = init_dual_state(ds)
    run_w_update(
        ds, kind, rel, state, ConstantPolicy(task.n),
        rounds=max_epochs, gap_tol=gap_tol, seed=seed,
    )
    gap = duality_gap(state, ds, kind, rel)
    if gap > gap_tol:
        raise ConvergenceError(
            f"single-task solve stalled at gap {gap:.3e} (target {gap_tol:.1e}, "
            f"lambda {lam:g}); raise max_epochs"
        )
    return primal_from_dual(state.v, rel.mbar)[:, 0]


def train_local(ds: FederatedDataset, lam: float, kind: LossKind = LossKind.HINGE,
                *, gap_tol: float = 1e-6, max_epochs: int = 20000,
                seed: int = 0) -> PrimalState:
    """One independent L2-regularized model per task, each solved to gap_tol."""
    W = np.empty((ds.d, ds.m))
    for t, task in enumerate(ds.tasks):
        W[:, t] = _solve_single_task(
            task.features, task.labels, lam, kind, gap_tol, max_epochs, seed
        )
    return PrimalState(W)


def train_global(ds: FederatedDataset, lam: float, kind: LossKind = LossKind.HINGE,
                 *, gap_tol: float = 1e-6, max_epochs: int = 20000,
                 seed: int = 0) -> PrimalState:
    """Pool all tasks into one problem, solve a single model, broadcast it."""
    X = np.concatenate([t.features for t in ds.tasks], axis=1)
    y = np.concatenate([t.labels for t in ds.tasks])
    w = _solve_single_task(X, y, lam, kind, gap_tol, max_epochs, seed)
    return PrimalState(np.tile(w[:, None], (1, ds.m)))


def local_trainer(kind: LossKind = LossKind.HINGE, max_epochs: int = 20000):
    return lambda ds, lam: train_local(ds, lam, kind, max_epochs=max_epochs)


def global_trainer(kind: LossKind = LossKind.HINGE, max_epochs: int = 20000):
    return lambda ds, lam: train_global(ds, lam, kind, max_epochs=max_epochs)


def mocha_trainer(model_factory, config: SolverConfig, *,
                  kind: LossKind = LossKind.HINGE, budget_epochs: int = 1):
    """Trainer closure for model selection: lam -> coupling model via
    ``model_factory``, run with ``config`` and budgets of ``budget_epochs``
    local passes per round."""
    from .solver import run_mocha

    if budget_epochs < 1:
        raise ValueError("budget_epochs must be >= 1")

    def train(ds: FederatedDataset, lam: float) -> PrimalState:
        model = model_factory(lam)
        policy = ConstantPolicy([task.n * budget_epochs for task in ds.tasks])
        return run_mocha(ds, model, config, policy, kind).primal

    return train


# ---------------------------------------------------------------------------
# Model selection and comparison


def model_select(ds: FederatedDataset, trainer, lambda_grid, k_folds: int,
                 seed: int = 0) -> tuple[float, float]:
    """k-fold cross-validation over the grid; folds are split per task and the
    CV score is the unweighted mean task error.  Ties go to the larger lambda.
    Fold f holds out an example of every task with more than f, so k_folds
    may not exceed the largest task."""
    if k_folds < 2:
        raise ValueError("k_folds must be >= 2")
    largest = max(ds.task_sizes())
    if k_folds > largest:
        raise ValueError(f"k_folds = {k_folds} leaves a fold with no held-out example: "
                         f"the largest task has {largest} examples")
    grid = sorted(float(l) for l in lambda_grid)
    if not grid:
        raise ValueError("lambda grid is empty")
    assignments = []
    for task in ds.tasks:
        rng = np.random.default_rng([seed, 0xF01D, task.task_id])
        perm = rng.permutation(task.n)
        fold_of = np.empty(task.n, dtype=int)
        fold_of[perm] = np.arange(task.n) % k_folds
        assignments.append(fold_of)

    def _fold_split(fold: int):
        train_tasks = []
        heldout = []
        for t, task in enumerate(ds.tasks):
            mask = assignments[t] == fold
            train_idx = np.flatnonzero(~mask)
            test_idx = np.flatnonzero(mask)
            train_tasks.append(TaskDataset(
                t, task.features[:, train_idx], task.labels[train_idx]
            ))
            heldout.append((task.features[:, test_idx], task.labels[test_idx]))
        return FederatedDataset(tuple(train_tasks)), heldout

    splits = [_fold_split(f) for f in range(k_folds)]
    best_lam, best_err = grid[0], math.inf
    for lam in grid:
        fold_errs = []
        for train_ds, heldout in splits:
            W = np.asarray(getattr(trainer(train_ds, lam), "W"))
            task_errs = []
            for t, (Xh, yh) in enumerate(heldout):
                if yh.size == 0:
                    continue
                pred = np.where(W[:, t] @ Xh > 0.0, 1.0, -1.0)
                task_errs.append(float(np.mean(pred != yh)))
            fold_errs.append(float(np.mean(task_errs)))
        err = float(np.mean(fold_errs))
        if err <= best_err:
            best_lam, best_err = lam, err
    return best_lam, best_err


@dataclass(frozen=True)
class ComparisonRow:
    method: str
    mean_error: float
    std_error: float
    errors: tuple[float, ...]
    lambdas: tuple[float, ...]


def compare_models(ds: FederatedDataset, trainers: dict, lambda_grid,
                   *, shuffles: int = 10, seed: int = 0, k_folds: int = 5,
                   train_fraction: float = 0.75, scaled: bool = False) -> list[ComparisonRow]:
    """Repeated shuffle evaluation: split, cross-validate lambda per method,
    refit on the training split, report mean test error with its standard
    error over shuffles.  ``scaled`` z-scores each shuffle's features with
    the statistics of its training split alone."""
    errors = {name: [] for name in trainers}
    lambdas = {name: [] for name in trainers}
    for r in range(shuffles):
        train_ds, test_ds = train_test_split(ds, train_fraction, seed=seed * 1009 + r)
        if scaled:
            train_ds, test_ds = standardize(train_ds, test_ds)
        for name, trainer in trainers.items():
            lam, _ = model_select(train_ds, trainer, lambda_grid, k_folds,
                                  seed=seed * 1013 + r)
            W = trainer(train_ds, lam)
            _, err = prediction_error(W, test_ds)
            errors[name].append(err)
            lambdas[name].append(lam)
    rows = []
    for name in trainers:
        errs = np.array(errors[name])
        stderr = float(errs.std(ddof=1) / math.sqrt(len(errs))) if len(errs) > 1 else 0.0
        rows.append(ComparisonRow(
            method=name, mean_error=float(errs.mean()), std_error=stderr,
            errors=tuple(errors[name]), lambdas=tuple(lambdas[name]),
        ))
    return rows
