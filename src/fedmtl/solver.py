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

Stored subproblem values omit the R*(v)/m share of each G_t, which does not
depend on delta_t: it cancels in the approximation-quality ratio and in the
decrease sum_t [G_t(0) - G_t(delta_t)] a round records; sum_t G_t(0) = D(alpha).

Layout: the dual iterate is one packed n-vector with task t's block at
``ds.offsets[t]:ds.offsets[t + 1]``, next to the dataset's packed labels and
squared column norms; features stay per task.  A round hands every node's
snapshot to the local solver at once (``RoundView``) and gets back one packed
delta, so the dual and the round's subproblem decrease are each one pass over
packed vectors rather than a loop over tasks.

Every dual method's round is ``_run_round`` calls, one implementation of the
coordinate step: MOCHA's is one call over its budgets, mini-batch SDCA's one
call that scores every step against the snapshot (beta > 0), and CoCoA's one
call per sweep of its exact oracle and per randomized pass, each over the
nodes still working.  The kernel's running u_t = X_t @ delta_t is node t's
delta_v.  The primal's per-task loss sums (``_task_losses``) are the other
native pass over the features.  Both take their dot products in the kernel's
four-lane order; ``_run_round_py`` and ``_task_losses_py`` are the numpy
references and the paths without a compiler.  Every reference reads the
kernel's ``RoundView``; ``_view_value`` and ``measure_theta`` take node t's.

Determinism: a round is a pure function of the dual state, the coupling
(``RelationshipState``, which holds each node's kappa) and the round's
draws.  A caller names a round's randomness by (seed, tag, round) alone:
node t's stream is ``stream(seed, tag, t, round)``.  A round's budgets, its
drops and every responding node's coordinate indices are one call each of
``draw_integers`` or ``draw_random``, which reproduce those numpy streams bit
for bit natively and take numpy's path node by node where that cannot run.
Every node's steps are then one call of the native round kernel, on the
calling thread: the sweep is memory-bound, so threads do not pay, and a
round's simulated length comes from its update counts, not from the host.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import hashlib
import json
import math
import os
import shutil
import tempfile
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
    conjugate_terms,
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

# Stream tags keep the local solvers', mini-batch SGD's, budget and dropout
# randomness independent.
SOLVER_STREAM = 11
SGD_STREAM = 12
BUDGET_STREAM = 21
DROP_STREAM = 22

# Sweep cap of the exact subproblem solve.
_ORACLE_MAX_PASSES = 20000

# Tolerance of the exact solve that CoCoA's theta is measured against.
_COCOA_ORACLE_TOL = 1e-9


def stream(seed: int, tag: int, t: int, round_idx: int) -> np.random.Generator:
    """Node t's random stream under ``tag`` in round ``round_idx``."""
    return np.random.default_rng([seed, tag, t, round_idx])


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
    # No effect: every round runs on the calling thread.  Kept, and checked,
    # because perfbench/workloads.py still sets it.
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
    approximation quality and what ``theory.verify_lemma_decrease`` reads."""

    h: int
    dual: float | None
    primal: float | None
    gap: float | None
    dropped: list[int]
    update_counts: list[int]
    theta: list[float] | None = None
    elapsed_ms_estimated: float | None = None
    dual_before: float | None = None
    subproblem_decrease: float | None = None   # sum_t [G_t(0) - G_t(delta_t)]

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
    to every node or a per-node sequence.

    A policy's ``draws(m, round_idx)`` gives the budgets and drop flags of
    nodes 0 .. m - 1 for one round."""

    def __init__(self, budget):
        self._budget = budget

    def draws(self, m: int, round_idx: int) -> tuple[list[int], list[bool]]:
        if np.isscalar(self._budget):
            return [int(self._budget)] * m, [False] * m
        return [int(self._budget[t]) for t in range(m)], [False] * m


# ---------------------------------------------------------------------------
# Objectives


def dual_objective(state: DualState, ds: FederatedDataset, kind: LossKind,
                   rel: RelationshipState) -> float:
    return (conjugate_sum(kind, state.packed, ds.labels)
            + regularizer_conjugate(state.v, rel.mbar))


def primal_objective(W: np.ndarray, ds: FederatedDataset, kind: LossKind,
                     rel: RelationshipState) -> float:
    """P(W): the task losses plus R(W) under ``rel``'s precision, at any W,
    so that primal-only methods are scored by the same code."""
    total = 0.0
    # One term per task, added in task order; sum() would compensate on
    # Python 3.12 and later.
    for loss in _task_losses(W, ds, kind).tolist():
        total += loss
    return total + regularizer_value(W, rel.precision)


def duality_gap(state: DualState, ds: FederatedDataset, kind: LossKind,
                rel: RelationshipState) -> float:
    W = primal_from_dual(state.v, rel.mbar)
    return dual_objective(state, ds, kind, rel) + primal_objective(W, ds, kind, rel)


# ---------------------------------------------------------------------------
# Local subproblems


@dataclass(frozen=True, eq=False)
class RoundView:
    """Frozen picture of one round for every node: the dataset, the packed
    dual snapshot, the weight snapshot W and each node's kappa.  Node t reads
    ``ds.tasks[t].features``, ``W[:, t]``, ``kappa[t]`` and its packed block
    ``ds.offsets[t]:ds.offsets[t + 1]``, in the kernel and the references."""

    ds: FederatedDataset
    kind: LossKind
    alpha: np.ndarray
    W: np.ndarray
    kappa: np.ndarray


def _view_value(view: RoundView, t: int, delta_t: np.ndarray) -> float:
    """Node t's constant-free subproblem value at its block ``delta_t``;
    raises DualInfeasibleError outside the hinge dual box.  The per-node
    reference for ``_node_values``."""
    block = slice(view.ds.offsets[t], view.ds.offsets[t + 1])
    u = view.ds.tasks[t].features @ delta_t
    conj = conjugate_sum(view.kind, view.alpha[block] + delta_t, view.ds.labels[block])
    return conj + float(view.W[:, t] @ u) + 0.5 * float(view.kappa[t]) * float(u @ u)


@dataclass
class RoundResult:
    """What one round's local solves send back: the packed dual deltas,
    delta_v = U^T from ``_run_round``, whose column t is the u that node t's
    steps accumulated (X_t delta_t up to rounding), each node's update count,
    and each node's measured solution quality when the solver knows it (1 for
    a dropped node, which made no progress)."""

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
    ``kappa`` > 0 the node's entry of ``RelationshipState.kappa``.  The
    arguments are not checked."""
    return _hinge_delta if kind is LossKind.HINGE else _squared_delta


_KERNEL_SOURCE = Path(__file__).with_name("_updates.c")
_KERNEL_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


# The native draws are used only if they give numpy's draws for these
# streams: the seed takes two 32-bit entropy words, two nodes check the node's
# place in the key, and the odd count leaves the high half of a 64-bit output
# for the next integer.
_STREAM_CHECK = (2**63 + 12345, SOLVER_STREAM, 7, -5, 2**31, 7)


def _streams_match_numpy(lib) -> bool:
    """Whether ``lib``'s draws for ``_STREAM_CHECK`` equal numpy's."""
    seed, tag, round_idx, lo, hi, count = _STREAM_CHECK
    lows, widths, counts = (np.full(2, v, dtype=np.int64) for v in (lo, hi - lo, count))
    ints, doubles = np.empty(2 * count, dtype=np.int64), np.empty(2)
    lib.fedmtl_draw_integers(seed, tag, round_idx, 2, lows.ctypes.data, widths.ctypes.data,
                             counts.ctypes.data, ints.ctypes.data)
    lib.fedmtl_draw_random(seed, tag, round_idx, 2, doubles.ctypes.data)
    return bool(
        np.array_equal(ints, np.concatenate([
            stream(seed, tag, t, round_idx).integers(lo, hi, size=count, endpoint=True)
            for t in range(2)]))
        and doubles.tolist() == [stream(seed, tag, t, round_idx).random() for t in range(2)])


@functools.cache
def _load_kernel():
    """The compiled ``_updates.c``, with ``fedmtl_run_round``,
    ``fedmtl_task_losses``, ``fedmtl_draw_integers`` and
    ``fedmtl_draw_random`` declared, or None when there is no C compiler
    or the build fails.  ``lib.numpy_streams`` is whether the draws matched
    numpy's when loaded; numpy does not promise that its streams stay the
    same across versions.

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
            import subprocess   # only a build needs it
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                if subprocess.run([cc, *_KERNEL_FLAGS, "-o", tmp, str(_KERNEL_SOURCE)],
                                  capture_output=True).returncode:
                    return None
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    ptr, i64, u64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64
    lib.fedmtl_run_round.argtypes = [ctypes.c_int, ctypes.c_double, i64, i64, *[ptr] * 11]
    lib.fedmtl_task_losses.argtypes = [ctypes.c_int, i64, i64, *[ptr] * 5]
    lib.fedmtl_draw_integers.argtypes = [u64, u64, u64, i64, *[ptr] * 4]
    lib.fedmtl_draw_random.argtypes = [u64, u64, u64, i64, ptr]
    for entry in (lib.fedmtl_run_round, lib.fedmtl_task_losses,
                  lib.fedmtl_draw_integers, lib.fedmtl_draw_random):
        entry.restype = None
    lib.numpy_streams = _streams_match_numpy(lib)
    return lib


def _draw_kernel(seed: int, tag: int, round_idx: int):
    """The kernel when its draws give these streams, else None: there is
    none, its draws did not match numpy's when it was loaded, or seed, tag
    or round is not in [0, 2**64)."""
    lib = _load_kernel()
    if lib is None or not lib.numpy_streams or not all(
            0 <= k < 2**64 for k in (seed, tag, round_idx)):
        return None
    return lib


def draw_integers(seed: int, tag: int, round_idx: int, lo, hi, counts) -> np.ndarray:
    """For each node t < m = len(counts), ``counts[t]`` integers in
    ``[lo[t], hi[t]]`` from its stream, concatenated in node order: exactly
    ``stream(seed, tag, t, round_idx).integers(lo[t], hi[t],
    size=counts[t], endpoint=True)``.  ``lo`` and ``hi`` may be scalars.

    One native call, or node by node with numpy where that cannot run (see
    ``_draw_kernel``), or where a drawing node's width ``hi - lo`` is
    2**32 - 1 or more, or invalid.
    """
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    lo, hi = (np.ascontiguousarray(np.broadcast_to(np.asarray(a, dtype=np.int64), counts.shape))
              for a in (lo, hi))
    width = hi - lo
    drawn = width[counts != 0]
    lib = _draw_kernel(seed, tag, round_idx)
    if (lib is not None and counts.min(initial=0) >= 0
            and drawn.min(initial=0) >= 0 and drawn.max(initial=0) < 2**32 - 1):
        out = np.empty(int(counts.sum()), dtype=np.int64)
        lib.fedmtl_draw_integers(seed, tag, round_idx, len(counts), lo.ctypes.data,
                                 width.ctypes.data, counts.ctypes.data, out.ctypes.data)
        return out
    return np.concatenate([np.empty(0, dtype=np.int64), *(
        stream(seed, tag, t, round_idx).integers(lo[t], hi[t], size=counts[t], endpoint=True)
        for t in np.flatnonzero(counts))])


def draw_random(seed: int, tag: int, round_idx: int, m: int) -> np.ndarray:
    """``stream(seed, tag, t, round_idx).random()`` for each node t < m, in
    one native call, or node by node with numpy where that cannot run (see
    ``_draw_kernel``)."""
    lib = _draw_kernel(seed, tag, round_idx)
    if lib is None:
        return np.array([stream(seed, tag, t, round_idx).random() for t in range(m)])
    out = np.empty(m)
    lib.fedmtl_draw_random(seed, tag, round_idx, m, out.ctypes.data)
    return out


def _run_round(view: RoundView, idx: np.ndarray, counts,
               delta: np.ndarray, U: np.ndarray, beta: float = 0.0) -> None:
    """Take node t's ``counts[t]`` coordinate steps, at the local indices
    that follow node t - 1's in ``idx``, against the round's snapshot: each
    adds to t's block of the packed ``delta``, and x_i times it to row t of
    ``U`` (m x d), so that row accumulates u = X_t delta_t across calls.

    beta = 0 gives MOCHA's sequential steps, each scored against the node's
    running delta and u.  beta > 0 gives mini-batch SDCA's: each step is
    scored against the snapshot alone and scaled by beta / b_t, with b_t the
    node's count in this call.

    Native when the kernel is built: one call over every node.  Its dot
    products sum in four lanes (lane k the terms with j = k mod 4, combined
    as (l0 + l1) + (l2 + l3)), not in numpy's order, so results can differ
    from ``_run_round_py``, the path without a compiler, in the last digits.
    """
    ds = view.ds
    m, d = ds.m, ds.d
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    # Summed as Python ints, which cannot wrap around.
    if counts.shape != (m,) or counts.min(initial=0) < 0 or sum(counts.tolist()) != idx.size:
        raise ValueError("counts must hold m counts >= 0 that sum to len(idx)")
    # Both are written in place, so they cannot be converted copies.
    for name, a, shape in (("delta", delta, (ds.n,)), ("U", U, (m, d))):
        if not (a.dtype == np.float64 and a.flags.carray and a.shape == shape):
            raise ValueError(f"{name} must be a writable C-contiguous float64 "
                             f"array of shape {shape}")
    if idx.size and not (0 <= idx.min()
                         and (idx < np.repeat(np.diff(ds.offsets), counts)).all()):
        raise IndexError("coordinate index out of range of its node")
    lib = _load_kernel()
    if lib is None:
        return _run_round_py(view, idx, counts, delta, U, beta)
    W = np.ascontiguousarray(view.W.T, dtype=np.float64)    # row t is node t's w
    kappa = np.ascontiguousarray(view.kappa, dtype=np.float64)
    alpha = np.ascontiguousarray(view.alpha, dtype=np.float64)
    if W.shape != (m, d) or kappa.shape != (m,) or alpha.shape != (ds.n,):
        raise ValueError("round view arrays do not match the dataset")
    # Every array stays referenced here until the call returns.
    lib.fedmtl_run_round(view.kind is LossKind.HINGE, beta, d, m,
                         *(a.ctypes.data for a in (ds.feature_table, W, ds.labels, alpha,
                                                   ds.col_norms2, kappa, ds.offsets, idx,
                                                   counts, delta, U)))


def _run_round_py(view: RoundView, idx: np.ndarray, counts,
                  delta: np.ndarray, U: np.ndarray, beta: float = 0.0) -> None:
    """Reference for ``_run_round``, and its path without a compiler: for
    each node in turn, the exact single-coordinate step at each of its
    indices, added to its block of ``delta`` and, times x_i, to its row of
    ``U``.  With beta = 0 each step is scored against the node's running
    delta and u; with beta > 0 against the snapshot alone, scaled by
    beta / b_t."""
    ds = view.ds
    step_fn = _step_function(view.kind)
    for t, task in enumerate(ds.tasks):
        node_idx, idx = idx[:counts[t]], idx[counts[t]:]
        w, u, kappa = view.W[:, t], U[t], float(view.kappa[t])
        scale = beta / len(node_idx) if len(node_idx) else 0.0
        for i in node_idx:
            x = task.features[:, i]
            k = ds.offsets[t] + i
            if beta:
                step = scale * step_fn(view.alpha[k], ds.labels[k], float(w @ x),
                                       ds.col_norms2[k], kappa)
            else:
                s = float(w @ x) + kappa * float(u @ x)
                step = step_fn(view.alpha[k] + delta[k], ds.labels[k], s,
                               ds.col_norms2[k], kappa)
            if step != 0.0:
                delta[k] += step
                u += step * x


def _task_losses(W: np.ndarray, ds: FederatedDataset, kind: LossKind) -> np.ndarray:
    """Each task's loss sum at its weights, column t of W for task t, in one
    native call over the dataset's feature table.

    The scores are the kernel's four-lane dot and each task's examples add
    in order, so the sums can differ from ``_task_losses_py`` in the last
    digits.  ``_task_losses_py`` when there is no compiler.
    """
    if W.shape != (ds.d, ds.m):
        raise ValueError(f"weights shape {W.shape} does not match dataset")
    lib = _load_kernel()
    if lib is None:
        return _task_losses_py(W, ds, kind)
    rows = np.ascontiguousarray(W.T, dtype=np.float64)     # row t is task t's w
    out = np.empty(ds.m)
    lib.fedmtl_task_losses(kind is LossKind.HINGE, ds.d, ds.m,
                           *(a.ctypes.data for a in (ds.feature_table, rows, ds.labels,
                                                     ds.offsets, out)))
    return out


def _task_losses_py(W: np.ndarray, ds: FederatedDataset, kind: LossKind) -> np.ndarray:
    """Reference for ``_task_losses``: numpy scores and one ``loss_sum`` per
    task."""
    return np.array([loss_sum(kind, W[:, t] @ task.features, task.labels)
                     for t, task in enumerate(ds.tasks)])


def _budget_round(view: RoundView, budgets, drops, seed: int, round_idx: int,
                  beta: float) -> RoundResult:
    """One ``_run_round`` call in ``beta``'s mode: node t takes its budget,
    or 0 when it drops, of indices drawn uniformly from [0, n_t), with
    replacement, from ``stream(seed, SOLVER_STREAM, t, round_idx)``."""
    ds = view.ds
    counts = [0 if drops[t] else max(int(budgets[t]), 0) for t in range(ds.m)]
    idx = draw_integers(seed, SOLVER_STREAM, round_idx, 0, np.diff(ds.offsets) - 1, counts)
    delta, U = np.zeros(ds.n), np.zeros((ds.m, ds.d))
    _run_round(view, idx, counts, delta, U, beta)
    return RoundResult(delta, U.T, counts)


def solve_local(view: RoundView, budgets, drops, seed: int, round_idx: int) -> RoundResult:
    """MOCHA's local solves for one round: each responding node runs
    ``budgets[t]`` randomized coordinate updates (uniform with replacement,
    drawn from ``stream(seed, SOLVER_STREAM, t, round_idx)``) against the
    snapshot.

    A dropped node, or a budget of zero, does nothing.  No node's subproblem
    value increases.  delta_v is U^T from ``_run_round``: column t is the u
    that node t's updates accumulated, X_t @ delta_t up to rounding, which
    is also what its steps were scored against.
    """
    return _budget_round(view, budgets, drops, seed, round_idx, 0.0)


def _node_values(view: RoundView, delta: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Every node's constant-free subproblem value at the packed ``delta``,
    with row t of ``U`` node t's X_t delta_t, in one pass: the conjugate
    terms summed per node, plus w_t . u_t and kappa_t / 2 * ||u_t||^2.
    Raises DualInfeasibleError outside the hinge dual box.  Its per-node
    reference is ``_view_value(view, t, delta_t)``."""
    conj = conjugate_terms(view.kind, view.alpha + delta, view.ds.labels)
    return (np.add.reduceat(conj, view.ds.offsets[:-1])
            + np.einsum("dt,td->t", view.W, U) + 0.5 * view.kappa * np.einsum("td,td->t", U, U))


def oracle_subproblem_opt(view: RoundView, nodes,
                          tol: float = 1e-13) -> tuple[np.ndarray, np.ndarray]:
    """Near-exact subproblem minimizers of the listed nodes by cyclic
    coordinate descent, as one packed delta (zero in every other block), and
    every node's constant-free value there: ``_node_values`` of the last sweep.

    Each sweep applies every coordinate's exact one-dimensional minimizer, in
    order; for these box-constrained quadratics a sweep with no improvement
    certifies optimality, so a node stops once its per-sweep decrease falls
    below tol * scale.  The sweeps run in lockstep, one ``_run_round`` call
    per sweep over the nodes that have not yet converged.  Intended for
    desk-scale tasks (n_t up to ~1e4).
    """
    ds = view.ds
    sizes = np.diff(ds.offsets)
    local = np.arange(ds.n) - np.repeat(ds.offsets[:-1], sizes)   # 0 .. n_t - 1 per block
    delta, U = np.zeros(ds.n), np.zeros((ds.m, ds.d))
    live = np.zeros(ds.m, dtype=bool)
    live[list(nodes)] = True
    value = _node_values(view, delta, U)
    for _ in range(_ORACLE_MAX_PASSES):
        if not live.any():
            break
        _run_round(view, local[np.repeat(live, sizes)], np.where(live, sizes, 0), delta, U)
        new_value = _node_values(view, delta, U)
        live &= ~(value - new_value <= tol * (1.0 + np.abs(new_value)))
        value = new_value
    if live.any():
        raise ConvergenceError(
            f"subproblem solve did not converge within {_ORACLE_MAX_PASSES} sweeps"
        )
    return delta, value


def measure_theta(view: RoundView, t: int, delta_t: np.ndarray,
                  oracle_t: np.ndarray) -> float:
    """Relative suboptimality of node t's local solution ``delta_t`` against
    its subproblem optimum ``oracle_t`` (see ``oracle_subproblem_opt``): 1
    for no progress, 0 for an exact solve.  A vanishing denominator means
    the subproblem was already solved, reported as 0.  The per-node
    reference for the quality ``FixedQualitySolver`` reports."""
    g_zero = _view_value(view, t, np.zeros_like(delta_t))
    g_star = _view_value(view, t, oracle_t)
    denom = g_zero - g_star
    if denom <= 1e-14:
        return 0.0
    theta = (_view_value(view, t, delta_t) - g_star) / denom
    return float(min(1.0, max(0.0, theta)))


@dataclass(frozen=True)
class FixedQualitySolver:
    """CoCoA's local solver: on each responding node, randomized passes over
    the local data until the measured quality reaches ``theta_target`` or
    ``max_passes`` run out.  It ignores the budgets, so per-round work
    follows the hardest subproblem.

    Quality is measured against the exact subproblem optimum (affordable at
    desk scale, solved to ``_COCOA_ORACLE_TOL``), removing estimator noise
    from method comparisons.  The passes run in lockstep, one ``_run_round``
    call per pass over the nodes still above the target; each node draws its
    n_t indices per pass from its own ``stream(seed, SOLVER_STREAM, t,
    round_idx)``, so its work and result do not depend on the other nodes.
    """

    theta_target: float
    max_passes: int = 500

    def __call__(self, view: RoundView, budgets, drops, seed: int,
                 round_idx: int) -> RoundResult:
        ds = view.ds
        live = [t for t in range(ds.m) if not drops[t]]
        _, g_star = oracle_subproblem_opt(view, live, _COCOA_ORACLE_TOL)
        delta, U = np.zeros(ds.n), np.zeros((ds.m, ds.d))
        denom = _node_values(view, delta, U) - g_star
        theta = np.where(denom > 1e-14, 1.0, 0.0)
        active = ~np.asarray(drops, dtype=bool) & (denom > 1e-14)
        streams = {t: stream(seed, SOLVER_STREAM, t, round_idx) for t in np.flatnonzero(active)}
        sizes = np.diff(ds.offsets)
        counts = np.zeros(ds.m, dtype=np.int64)
        for _ in range(self.max_passes):
            if not active.any():
                break
            passed = np.where(active, sizes, 0)
            idx = np.concatenate([streams[t].integers(0, sizes[t], size=sizes[t])
                                  for t in np.flatnonzero(active)])
            _run_round(view, idx, passed, delta, U)
            counts += passed
            values = _node_values(view, delta, U)
            theta[active] = (values[active] - g_star[active]) / denom[active]
            active &= theta > self.theta_target
        thetas = [1.0 if drops[t] else float(min(1.0, max(0.0, theta[t])))
                  for t in range(ds.m)]
        return RoundResult(delta, U.T, counts.tolist(), thetas if live else None)


@dataclass(frozen=True)
class MiniBatchSolver:
    """Mini-batch SDCA's local solver: on each responding node, ``budget``
    coordinate steps, each taken independently against the frozen snapshot,
    summed and scaled by beta / budget: one ``_run_round`` call with this
    beta.

    With beta = 1 the scaled sum is a convex combination, so hinge
    feasibility is preserved; beta near the budget can overshoot when sampled
    coordinates collide.
    """

    beta: float = 1.0
    # Tells the round engine to report an out-of-box hinge dual as None.
    may_leave_box = True

    def __call__(self, view: RoundView, budgets, drops, seed: int,
                 round_idx: int) -> RoundResult:
        return _budget_round(view, budgets, drops, seed, round_idx, self.beta)


# ---------------------------------------------------------------------------
# Federated rounds


def make_views(ds: FederatedDataset, kind: LossKind, state: DualState,
               W: np.ndarray, kappa: np.ndarray) -> RoundView:
    return RoundView(ds, kind, state.packed, W, kappa)


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
                    state: DualState, budgets, drops, *,
                    round_idx: int = 0, seed: int = 0,
                    local_solver=None, previous: RoundStats | None = None) -> RoundStats:
    """One synchronous round: local solves against a common snapshot, each
    node's with ``rel.kappa``, then a reduce scaled by ``rel.gamma`` and
    refreshed objectives.

    ``local_solver(view, budgets, drops, seed, round_idx) -> RoundResult``
    solves every node's subproblem for the round against the ``RoundView``
    ``view``, node t drawing from ``stream(seed, SOLVER_STREAM, t,
    round_idx)``.  It defaults to ``solve_local`` (MOCHA);
    ``FixedQualitySolver`` gives CoCoA and ``MiniBatchSolver`` mini-batch
    SDCA.  A solver with a true
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
    view = make_views(ds, kind, state, primal_from_dual(state.v, rel.mbar), rel.kappa)
    if previous is None:
        dual_before = _unless_infeasible(
            lambda: dual_objective(state, ds, kind, rel), strict)
    else:
        dual_before = previous.dual
    result = solve(view, budgets, drops, seed, round_idx)
    u = result.delta_v
    # sum_t [G_t(0) - G_t(delta_t)]; exactly 0 for a round with no steps.
    decrease = _unless_infeasible(lambda: (
        conjugate_sum(kind, view.alpha, ds.labels)
        - conjugate_sum(kind, view.alpha + result.delta, ds.labels)
        - float(np.einsum("dt,dt->", view.W, u))
        - 0.5 * float(np.einsum("t,dt,dt->", view.kappa, u, u))), strict)

    state.packed += rel.gamma * result.delta
    state.v += rel.gamma * result.delta_v

    dual = _unless_infeasible(lambda: dual_objective(state, ds, kind, rel), strict)
    W_new = primal_from_dual(state.v, rel.mbar)
    primal = primal_objective(W_new, ds, kind, rel)
    return RoundStats(
        h=round_idx,
        dual=dual,
        primal=primal,
        gap=None if dual is None else dual + primal,
        dropped=[t for t in range(m) if drops[t]],
        update_counts=result.update_counts,
        theta=result.theta,
        dual_before=dual_before,
        subproblem_decrease=decrease,
    )


def run_w_update(ds: FederatedDataset, kind: LossKind, rel: RelationshipState,
                 state: DualState, policy, *,
                 rounds: int, gap_tol: float | None = None,
                 seed: int = 0, start_round: int = 0,
                 local_solver=None) -> list[RoundStats]:
    """Repeat federated rounds with budgets/drops drawn from the policy until
    the round count is exhausted or the duality gap reaches the tolerance.
    ``local_solver`` is passed to every ``federated_round``."""
    out: list[RoundStats] = []
    if gap_tol is not None and duality_gap(state, ds, kind, rel) <= gap_tol:
        return out
    for k in range(rounds):
        h = start_round + k
        budgets, drops = policy.draws(ds.m, h)
        stats = federated_round(
            ds, kind, rel, state, budgets, drops,
            round_idx=h, seed=seed,
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
    rel = build_relationship(model, omega, config.gamma, config.sigma_prime_mode)
    state = init_dual_state(ds)
    trace: list[RoundStats] = []
    h = 0
    for _ in range(config.outer_rounds):
        stats = run_w_update(
            ds, kind, rel, state, policy,
            rounds=config.inner_rounds, gap_tol=config.gap_tol,
            seed=config.seed, start_round=h,
        )
        trace.extend(stats)
        h += len(stats)
        W = primal_from_dual(state.v, rel.mbar)
        new_omega = update_omega(model, W, omega)
        if new_omega is not omega:
            omega = new_omega
            rel = build_relationship(model, omega, config.gamma, config.sigma_prime_mode)
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


def _null_non_finite(value):
    """``value`` with every non-finite float in it, at any depth of dicts
    and lists, replaced by None: JSON has no NaN or infinity, so a value a
    run could not reach is written as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _null_non_finite(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_null_non_finite(v) for v in value]
    return value


def write_trace_jsonl(path, trace: list[RoundStats]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for stats in trace:
            fh.write(json.dumps(_null_non_finite(stats.trace_record()), allow_nan=False) + "\n")


def write_trace_csv(path, trace: list[RoundStats]) -> None:
    """CSV mirror of the JSONL trace: None is an empty cell and a list is
    semicolon-joined."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        for stats in trace:
            writer.writerow([_csv_cell(v) for v in stats.trace_record().values()])
