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

Layout: the dual iterate is one packed n-vector with task t's block at
``ds.offsets[t]:ds.offsets[t + 1]``, next to the dataset's packed labels and
squared column norms; features stay per task.  A round hands every node's
snapshot to the local solver at once (``RoundView``) and gets back one packed
delta, so the dual and the summed subproblem values are each one pass over
packed vectors rather than a loop over tasks.

Concurrency: every node's stream, keyed by (seed, stream, task, round), is
built on the calling thread, and MOCHA's local solver draws all its indices
there too.  The nodes are then split into contiguous chunks, one per worker,
and each chunk is one call of the native round kernel, which releases the
interpreter lock.  Nodes read a frozen snapshot and write only their own
blocks, and the reduce adds the packed delta once, so traces are
bit-identical for any worker count.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import hashlib
import json
import os
import shutil
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import FederatedDataset
from .losses import (
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

# Sweep cap of the exact subproblem solve.
_ORACLE_MAX_PASSES = 20000

# Tolerance of the exact solve that CoCoA's theta is measured against.
_COCOA_ORACLE_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """An iterative routine hit its cap before reaching its tolerance."""


@dataclass(frozen=True)
class PrimalState:
    """Per-task weight vectors, column t for task t."""

    W: np.ndarray


@dataclass(eq=False)
class DualState:
    """Dual iterate: every block alpha_t packed in one n-vector, updated in
    place (block t at ``ds.offsets[t]:ds.offsets[t + 1]``), and the shared v
    with v[:, t] = X_t alpha_t."""

    packed: np.ndarray
    v: np.ndarray


def init_dual_state(ds: FederatedDataset) -> DualState:
    return DualState(np.zeros(ds.n), np.zeros((ds.d, ds.m)))


@dataclass
class SolverConfig:
    gamma: float = 1.0
    sigma_prime_mode: str = "global"     # "global" | "per_task"
    inner_rounds: int = 50               # federated rounds per outer iteration
    outer_rounds: int = 1
    gap_tol: float | None = None
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.sigma_prime_mode not in ("global", "per_task"):
            raise ValueError("sigma_prime_mode must be 'global' or 'per_task'")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.inner_rounds < 1:
            raise ValueError("inner_rounds must be >= 1")
        if self.outer_rounds < 0:
            raise ValueError("outer_rounds must be >= 0")


# The columns of a written trace, in order.
TRACE_FIELDS = ("h", "elapsed_ms_estimated", "dual", "primal", "gap", "dropped", "theta")


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
        return {name: getattr(self, name) for name in TRACE_FIELDS}


@dataclass(frozen=True)
class RunResult:
    """A finished run of any round method: its trace, the weights it ended
    on, and its final coupling matrix (the fixed one for the baselines)."""

    trace: list[RoundStats]
    primal: PrimalState
    omega: np.ndarray


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
    return (conjugate_sum(kind, state.packed, ds.labels)
            + regularizer_conjugate(state.v, rel.mbar))


def primal_objective(W: np.ndarray, ds: FederatedDataset, kind: LossKind,
                     omega: np.ndarray, model: OmegaModel) -> float:
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


@dataclass(frozen=True, eq=False)
class RoundView:
    """Frozen picture of one round for every node: the dataset, the packed
    dual snapshot, the weight snapshot W (column t for node t), each node's
    kappa, and how many threads the local solves may use."""

    ds: FederatedDataset
    kind: LossKind
    alpha: np.ndarray
    W: np.ndarray
    kappa: np.ndarray
    workers: int = 1

    def node(self, t: int) -> SubproblemView:
        block = slice(self.ds.offsets[t], self.ds.offsets[t + 1])
        return SubproblemView(
            X=self.ds.tasks[t].features,
            labels=self.ds.labels[block],
            alpha=self.alpha[block],
            w=self.W[:, t],
            col_norms2=self.ds.col_norms2[block],
            kappa=float(self.kappa[t]),
            kind=self.kind,
        )


def _view_value(view: SubproblemView, delta: np.ndarray, u: np.ndarray | None = None) -> float:
    """Constant-free subproblem value at ``delta``, reusing ``u`` = X @ delta
    when the caller has it; raises DualInfeasibleError outside the hinge
    dual box."""
    if u is None:
        u = view.X @ delta
    conj = conjugate_sum(view.kind, view.alpha + delta, view.labels)
    return conj + float(view.w @ u) + 0.5 * view.kappa * float(u @ u)


@dataclass
class RoundResult:
    """What one round's local solves send back: the packed dual deltas,
    delta_v with column t = X_t delta_t, each node's update count, and each
    node's measured solution quality when the solver knows it (1 for a
    dropped node, which made no progress)."""

    delta: np.ndarray
    delta_v: np.ndarray
    update_counts: list[int]
    theta: list[float] | None = None

    @property
    def update_count(self) -> int:
        return sum(self.update_counts)


def _step_function(kind: LossKind):
    """Exact single-coordinate step ``step(alpha_i, y_i, score_i, x_norm2,
    kappa)`` for the loss: the minimizer of the local subproblem restricted
    to coordinate i.  ``score_i`` is w_t . x_i plus kappa times x_i . u, and
    ``kappa`` > 0 the effective quadratic coefficient sigma' * Mbar_tt.  The
    arguments are not checked."""
    return _hinge_delta if kind is LossKind.HINGE else _squared_delta


_KERNEL_SOURCE = Path(__file__).with_name("_updates.c")
_KERNEL_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


@functools.cache
def _load_kernel():
    """The compiled ``_updates.c``, with ``fedmtl_run_updates`` and
    ``fedmtl_run_round`` declared, or None when there is no C compiler or
    the build fails.

    Built once per source and flags into ``$XDG_CACHE_HOME/fedmtl``; the
    build writes a temporary file and renames it, so concurrent builds are
    safe.
    """
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        source = _KERNEL_SOURCE.read_bytes()
        key = hashlib.sha256(source + " ".join(_KERNEL_FLAGS).encode()).hexdigest()
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "fedmtl"
        path = cache / f"_updates-{key[:16]}.so"
        if not path.exists():
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run([cc, *_KERNEL_FLAGS, "-o", tmp, str(_KERNEL_SOURCE)],
                               check=True, capture_output=True)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.CalledProcessError):
        return None
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.fedmtl_run_updates.argtypes = [ctypes.c_int, i64, i64, ptr, ptr, ptr, ptr, ptr,
                                       ctypes.c_double, ptr, ptr, ptr]
    lib.fedmtl_run_round.argtypes = [ctypes.c_int, i64, i64, i64, *[ptr] * 11]
    lib.fedmtl_run_updates.restype = lib.fedmtl_run_round.restype = None
    return lib


def _run_updates(view: SubproblemView, idx: np.ndarray,
                 delta: np.ndarray, u: np.ndarray) -> None:
    """Apply exact single-coordinate updates at the given indices, in order,
    mutating the accumulated delta and u = X @ delta.

    Runs the native kernel when it is built; the dot products then sum in
    another order than numpy's, so results can differ from
    ``_run_updates_py`` in the last digits.
    """
    lib = _load_kernel()
    # delta and u are written in place, so they cannot be converted copies.
    if lib is None or not all(a.dtype == np.float64 and a.flags.carray
                              for a in (delta, u)):
        return _run_updates_py(view, idx, delta, u)
    X = np.asfortranarray(view.X, dtype=np.float64)
    d, n = X.shape
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    if delta.shape != (n,) or u.shape != (d,):
        raise ValueError("delta and u must match the view's n and d")
    if idx.size and not (0 <= idx.min() and idx.max() < n):
        raise IndexError(f"coordinate index out of range [0, {n})")
    arrays = [np.ascontiguousarray(a, dtype=np.float64)
              for a in (view.w, view.labels, view.alpha, view.col_norms2)]
    if any(a.shape != s for a, s in zip(arrays, [(d,), (n,), (n,), (n,)])):
        raise ValueError("view arrays do not match its d x n features")
    w, y, alpha, norms2 = (a.ctypes.data for a in arrays)
    lib.fedmtl_run_updates(view.kind is LossKind.HINGE, d, idx.size, X.ctypes.data,
                           w, y, alpha, norms2, view.kappa, idx.ctypes.data,
                           delta.ctypes.data, u.ctypes.data)
    return None


def _run_updates_py(view: SubproblemView, idx: np.ndarray,
                    delta: np.ndarray, u: np.ndarray) -> None:
    """Reference for ``_run_updates``: the same updates as a Python loop."""
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


def _run_round(view: RoundView, idx: np.ndarray, starts: np.ndarray,
               delta: np.ndarray) -> None:
    """For every node t, apply ``_run_updates`` at its local indices
    ``idx[starts[t]:starts[t + 1]]`` against the round's snapshot, adding
    the steps to its block of the packed ``delta``.

    Native when the kernel is built: one call per chunk of contiguous nodes,
    one chunk per worker, each node's arithmetic exactly that of
    ``_run_updates``.  Otherwise ``_run_round_py``.
    """
    lib = _load_kernel()
    if lib is None:
        return _run_round_py(view, idx, starts, delta)
    ds = view.ds
    m, d = ds.m, ds.d
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    if starts.shape != (m + 1,) or starts[0] != 0 or starts[-1] != idx.size:
        raise ValueError("starts must hold m + 1 offsets into idx")
    if not (delta.dtype == np.float64 and delta.flags.carray and delta.shape == (ds.n,)):
        raise ValueError("delta must be a writable contiguous float64 n-vector")
    counts = np.diff(starts)
    if idx.size and not (0 <= idx.min()
                         and (idx < np.repeat(np.diff(ds.offsets), counts)).all()):
        raise IndexError("coordinate index out of range of its node")
    W = np.ascontiguousarray(view.W.T, dtype=np.float64)    # row t is node t's w
    kappa = np.ascontiguousarray(view.kappa, dtype=np.float64)
    alpha = np.ascontiguousarray(view.alpha, dtype=np.float64)
    if W.shape != (m, d) or kappa.shape != (m,) or alpha.shape != (ds.n,):
        raise ValueError("round view arrays do not match the dataset")
    U = np.zeros((m, d))
    # Every array stays referenced here until the calls return.
    pointers = [a.ctypes.data for a in (ds.feature_table, W, ds.labels, alpha,
                                        ds.col_norms2, kappa, ds.offsets, idx,
                                        starts, delta, U)]
    hinge = view.kind is LossKind.HINGE

    def chunk(bounds) -> None:
        lib.fedmtl_run_round(hinge, d, *bounds, *pointers)

    workers = min(view.workers, m)
    if workers > 1:
        cuts = [m * k // workers for k in range(workers + 1)]
        list(_executor(workers).map(chunk, zip(cuts[:-1], cuts[1:])))
    else:
        chunk((0, m))
    return None


def _run_round_py(view: RoundView, idx: np.ndarray, starts: np.ndarray,
                  delta: np.ndarray) -> None:
    """Reference for ``_run_round``, and its path without a compiler:
    ``_run_updates_py`` for each node in turn."""
    offsets = view.ds.offsets
    for t in range(view.ds.m):
        _run_updates_py(view.node(t), idx[starts[t]:starts[t + 1]],
                        delta[offsets[t]:offsets[t + 1]], np.zeros(view.ds.d))
    return None


def solve_local(view: RoundView, budgets, drops, streams) -> RoundResult:
    """MOCHA's local solves for one round: each responding node runs
    ``budgets[t]`` randomized coordinate updates (uniform with replacement,
    drawn from ``streams[t]``) against the snapshot.

    A dropped node, or a budget of zero, does nothing.  No node's subproblem
    value increases, and delta_v is recomputed as X_t @ delta_t so it is
    exactly consistent with the dual update.
    """
    ds = view.ds
    counts = [0 if drops[t] else max(int(budgets[t]), 0) for t in range(ds.m)]
    draws = [streams[t].integers(0, task.n, size=counts[t])
             for t, task in enumerate(ds.tasks) if counts[t]]
    idx = np.concatenate([np.empty(0, dtype=np.int64), *draws])
    delta = np.zeros(ds.n)
    _run_round(view, idx, np.concatenate([[0], np.cumsum(counts)]), delta)
    delta_v = np.zeros((ds.d, ds.m))
    for t, task in enumerate(ds.tasks):
        if counts[t]:
            delta_v[:, t] = task.features @ delta[ds.offsets[t]:ds.offsets[t + 1]]
    return RoundResult(delta, delta_v, counts)


def _node_by_node(view: RoundView, budgets, drops, streams, solve_node) -> RoundResult:
    """A round solver built from a per-node one, looped over the responding
    nodes on the calling thread.  ``solve_node(node_view, budget, rng,
    delta_t) -> (update_count, theta or None)`` writes its delta into
    ``delta_t``, node t's block of the packed delta."""
    ds = view.ds
    delta = np.zeros(ds.n)
    delta_v = np.zeros((ds.d, ds.m))
    counts = [0] * ds.m
    thetas = [None] * ds.m
    for t, task in enumerate(ds.tasks):
        if drops[t]:
            continue
        delta_t = delta[ds.offsets[t]:ds.offsets[t + 1]]
        counts[t], thetas[t] = solve_node(view.node(t), int(budgets[t]), streams[t], delta_t)
        if counts[t]:
            delta_v[:, t] = task.features @ delta_t
    if all(theta is None for theta in thetas):
        return RoundResult(delta, delta_v, counts)
    return RoundResult(delta, delta_v, counts,
                       [1.0 if theta is None else theta for theta in thetas])


def oracle_subproblem_opt(view: SubproblemView, tol: float = 1e-13) -> np.ndarray:
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
    for _ in range(_ORACLE_MAX_PASSES):
        _run_updates(view, order, delta, u)
        new_value = _view_value(view, delta, u)
        if value - new_value <= tol * (1.0 + abs(new_value)):
            return delta
        value = new_value
    raise ConvergenceError(
        f"subproblem solve did not converge within {_ORACLE_MAX_PASSES} sweeps"
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
    """CoCoA's local solver: on each responding node, randomized passes over
    the local data until the measured quality reaches ``theta_target`` or
    ``max_passes`` run out.  It ignores the budgets, so per-round work
    follows the hardest subproblem.

    Quality is measured against the exact subproblem optimum (affordable at
    desk scale, solved to ``_COCOA_ORACLE_TOL``), removing estimator noise
    from method comparisons.
    """

    theta_target: float
    max_passes: int = 500

    def __call__(self, view: RoundView, budgets, drops, streams) -> RoundResult:
        return _node_by_node(view, budgets, drops, streams, self._solve_node)

    def _solve_node(self, view: SubproblemView, budget: int, rng, delta):
        n_t = view.labels.size
        oracle = oracle_subproblem_opt(view, tol=_COCOA_ORACLE_TOL)
        g_zero = _view_value(view, np.zeros(n_t))
        g_star = _view_value(view, oracle)
        denom = g_zero - g_star
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
        return count, float(min(1.0, max(0.0, theta)))


@dataclass(frozen=True)
class MiniBatchSolver:
    """Mini-batch SDCA's local solver: on each responding node, ``budget``
    coordinate steps, each taken independently against the frozen snapshot,
    summed and scaled by beta / budget.

    With beta = 1 the scaled sum is a convex combination, so hinge
    feasibility is preserved; beta near the budget can overshoot when sampled
    coordinates collide.
    """

    beta: float = 1.0
    # Tells the round engine to report an out-of-box hinge dual as None.
    may_leave_box = True

    def __call__(self, view: RoundView, budgets, drops, streams) -> RoundResult:
        return _node_by_node(view, budgets, drops, streams, self._solve_node)

    def _solve_node(self, view: SubproblemView, budget: int, rng, delta):
        if budget <= 0:
            return 0, None
        idx = rng.integers(0, view.labels.size, size=budget)
        scale = self.beta / budget
        step_fn = _step_function(view.kind)
        for i in idx:
            x = view.X[:, i]
            step = step_fn(view.alpha[i], view.labels[i], float(view.w @ x),
                           view.col_norms2[i], view.kappa)
            delta[i] += scale * step
        return budget, None


# ---------------------------------------------------------------------------
# Federated rounds


def _kappa_vector(rel: RelationshipState, mode: str) -> np.ndarray:
    diag = np.diag(rel.mbar)
    if mode == "per_task":
        return rel.sigma_prime_per_task * diag
    return rel.sigma_prime * diag


def make_views(ds: FederatedDataset, kind: LossKind, state: DualState,
               W: np.ndarray, kappa: np.ndarray, workers: int = 1) -> RoundView:
    return RoundView(ds, kind, state.packed, W, kappa, workers)


def _subproblem_sum(view: RoundView, result: RoundResult) -> float:
    """Sum over nodes of the constant-free subproblem values at the round's
    deltas: one conjugate sum over the packed duals, plus w_t . u_t and
    kappa_t / 2 * ||u_t||^2 summed over nodes, with u_t = delta_v[:, t]."""
    u = result.delta_v
    conj = conjugate_sum(view.kind, view.alpha + result.delta, view.ds.labels)
    return (conj + float(np.einsum("dt,dt->", view.W, u))
            + 0.5 * float(np.einsum("t,dt,dt->", view.kappa, u, u)))


def _unless_infeasible(evaluate, strict: bool):
    """``evaluate()``, or None when it meets an out-of-box hinge dual and the
    round tolerates that."""
    try:
        return evaluate()
    except DualInfeasibleError:
        if strict:
            raise
        return None


@functools.cache
def _executor(workers: int) -> ThreadPoolExecutor:
    """One pool per worker count, kept for the life of the process, so
    rounds do not pay for starting and joining threads."""
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="fedmtl")


def federated_round(ds: FederatedDataset, kind: LossKind, rel: RelationshipState,
                    model: OmegaModel, state: DualState, budgets, drops, *,
                    round_idx: int = 0, seed: int = 0,
                    sigma_prime_mode: str = "global", workers: int = 1,
                    local_solver=None, previous: RoundStats | None = None) -> RoundStats:
    """One synchronous round: local solves against a common snapshot, then a
    reduce scaled by ``rel.gamma`` and refreshed objectives.

    ``local_solver(view, budgets, drops, streams) -> RoundResult`` solves
    every node's subproblem for the round: ``view`` is the ``RoundView``,
    ``streams[t]`` node t's random stream (None for a dropped node).  It
    defaults to ``solve_local`` (MOCHA); ``FixedQualitySolver`` gives CoCoA
    and ``MiniBatchSolver`` mini-batch SDCA.  A solver with a true
    ``may_leave_box`` attribute gets None for every value that needs a
    feasible hinge dual; any other solver raises DualInfeasibleError.

    ``previous``, the stats of the round just run against the same ``rel``
    with ``state`` untouched since, supplies ``dual_before`` without
    evaluating the dual again.
    """
    # Resolved per call, not bound as a default, so a wrapped solve_local is used.
    solve = solve_local if local_solver is None else local_solver
    strict = not getattr(solve, "may_leave_box", False)
    m = ds.m
    W = primal_from_dual(state.v, rel.mbar)
    kappa = _kappa_vector(rel, sigma_prime_mode)
    view = make_views(ds, kind, state, W, kappa, workers)
    if previous is None:
        dual_before = _unless_infeasible(
            lambda: dual_objective(state, ds, kind, rel), strict)
    else:
        dual_before = previous.dual
    rstar_before = regularizer_conjugate(state.v, rel.mbar)
    streams = [None if drops[t] else np.random.default_rng([seed, SOLVER_STREAM, t, round_idx])
               for t in range(m)]
    result = solve(view, budgets, drops, streams)
    subproblem_sum = _unless_infeasible(lambda: _subproblem_sum(view, result), strict)

    state.packed += rel.gamma * result.delta
    state.v += rel.gamma * result.delta_v

    dual = _unless_infeasible(lambda: dual_objective(state, ds, kind, rel), strict)
    W_new = primal_from_dual(state.v, rel.mbar)
    primal = primal_objective(W_new, ds, kind, rel.omega, model)
    return RoundStats(
        h=round_idx,
        dual=dual,
        primal=primal,
        gap=None if dual is None else dual + primal,
        dropped=[t for t in range(m) if drops[t]],
        update_counts=result.update_counts,
        theta=result.theta,
        dual_before=dual_before,
        subproblem_sum=subproblem_sum,
        rstar_before=rstar_before,
    )


def run_w_update(ds: FederatedDataset, kind: LossKind, rel: RelationshipState,
                 model: OmegaModel, state: DualState, policy, *,
                 rounds: int, gap_tol: float | None = None,
                 seed: int = 0, start_round: int = 0,
                 sigma_prime_mode: str = "global", workers: int = 1,
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
            round_idx=h, seed=seed,
            sigma_prime_mode=sigma_prime_mode, workers=workers,
            local_solver=local_solver, previous=out[-1] if out else None,
        )
        out.append(stats)
        if gap_tol is not None and stats.gap is not None and stats.gap <= gap_tol:
            break
    return out


def run_mocha(ds: FederatedDataset, model: OmegaModel, config: SolverConfig,
              policy, kind: LossKind = LossKind.HINGE) -> RunResult:
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
            seed=config.seed, start_round=h,
            sigma_prime_mode=config.sigma_prime_mode, workers=config.workers,
        )
        trace.extend(stats)
        h += len(stats)
        W = primal_from_dual(state.v, rel.mbar)
        new_omega = update_omega(model, W, omega)
        if new_omega is not omega:
            omega = new_omega
            rel = build_relationship(model, omega, config.gamma)
    W = primal_from_dual(state.v, rel.mbar)
    return RunResult(trace, PrimalState(W), omega)


# ---------------------------------------------------------------------------
# Trace output


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(repr(x) for x in value)
    return value


def write_trace_jsonl(path, trace: list[RoundStats]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for stats in trace:
            fh.write(json.dumps(stats.trace_record()) + "\n")


def write_trace_csv(path, trace: list[RoundStats]) -> None:
    """CSV mirror of the JSONL trace: None is an empty cell and a list is
    semicolon-joined."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        for stats in trace:
            writer.writerow([_csv_cell(v) for v in stats.trace_record().values()])
