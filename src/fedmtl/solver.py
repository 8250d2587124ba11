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
nodes still working; those repeated calls go through ``_sweeps``, which sets
up their view, delta and U once per round.  The kernel's running
u_t = X_t @ delta_t is node t's delta_v.  The primal's per-task loss sums
(``_task_losses``) are the other native pass over the features.  Both take
their dot products in the kernel's four-lane order; ``_run_round_py`` and
``_task_losses_py`` are the numpy references and the paths without a
compiler.  Every reference reads the kernel's ``RoundView``.

Determinism: a round is a pure function of the dual state, the coupling
(``RelationshipState``, which holds each node's kappa) and the round's
draws, which a caller names by (seed, tag, round) alone.  A round's budgets,
drops, coordinate indices, CoCoA passes and mini-batch SGD batches are one
native call each of ``draw_integers``, ``draw_random`` or
``draw_permutations``, counter-based draws this package defines (Salmon et
al., SC 2011) with exact numpy references.  A node's indices walk random
permutations of its examples, as SDCA over random permutations does
(Shalev-Shwartz & Zhang, arXiv:1209.1873).  Every node's steps are then one
call of the native round kernel, on the calling thread: the sweep is
memory-bound, so threads do not pay, and a round's simulated length comes
from its update counts, not from the host.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import hashlib
import json
import math
import operator
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
    check_gamma,
    initial_eigenpairs,
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
    inner_rounds: int = 50               # federated rounds per outer iteration
    outer_rounds: int = 1
    gap_tol: float | None = None
    seed: int = 0
    # No effect: every round runs on the calling thread.  Kept, and checked,
    # because perfbench/workloads.py still sets it.
    workers: int = 1

    def __post_init__(self):
        check_gamma(self.gamma)
        if self.gap_tol is not None and not 0.0 <= self.gap_tol < np.inf:
            raise ValueError(f"gap_tol must be None or finite and >= 0, got {self.gap_tol!r}")
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

    @functools.cached_property
    def _kernel_arrays(self) -> tuple[tuple[np.ndarray, ...], tuple[int, ...]]:
        """W's rows (row t is node t's w), alpha and kappa, converted and
        checked once per view, and the addresses ``_run_round``'s kernel
        reads, in its order: the feature table, the rows, the labels, alpha,
        the squared norms, kappa and the offsets.  The dataset's four come
        from ``ds.addresses``; the view keeps the converted arrays alive."""
        ds = self.ds
        rows = np.ascontiguousarray(self.W.T, dtype=np.float64)
        kappa = np.ascontiguousarray(self.kappa, dtype=np.float64)
        alpha = np.ascontiguousarray(self.alpha, dtype=np.float64)
        if rows.shape != (ds.m, ds.d) or kappa.shape != (ds.m,) or alpha.shape != (ds.n,):
            raise ValueError("round view arrays do not match the dataset")
        table, labels, norms2, offsets = ds.addresses
        return (rows, alpha, kappa), (table, rows.ctypes.data, labels, alpha.ctypes.data,
                                      norms2, kappa.ctypes.data, offsets)


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
    ``kappa`` > 0 the node's sigma' * Mbar_tt / 2, its entry of
    ``RelationshipState.kappa``.  The arguments are not checked."""
    return _hinge_delta if kind is LossKind.HINGE else _squared_delta


_KERNEL_SOURCE = Path(__file__).with_name("_updates.c")
_KERNEL_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


@functools.cache
def _load_kernel():
    """The compiled ``_updates.c``, with ``fedmtl_run_round``,
    ``fedmtl_task_losses``, ``fedmtl_draw_integers``, ``fedmtl_draw_random``
    and ``fedmtl_draw_permutations`` declared, or None when there is no C
    compiler or the build fails.

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
    lib.fedmtl_draw_integers.argtypes = [u64, i64, i64, i64, ptr]
    lib.fedmtl_draw_random.argtypes = [u64, i64, ptr]
    lib.fedmtl_draw_permutations.argtypes = [u64, i64, *[ptr] * 4]
    for entry in (lib.fedmtl_run_round, lib.fedmtl_task_losses, lib.fedmtl_draw_integers,
                  lib.fedmtl_draw_random, lib.fedmtl_draw_permutations):
        entry.restype = None
    return lib


# The round's draws, as _updates.c defines them (``_round_key``, ``_draws``).
_GOLDEN = 0x9E3779B97F4A7C15
_MASK = 2**64 - 1


def _draw_kernel():
    """The kernel the draws call; None here sends the draws alone to their references."""
    return _load_kernel()


def _splitmix(z):
    """SplitMix64's finalizer of an int in [0, 2**64), or of a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _round_key(seed: int, tag: int, round_idx: int) -> int:
    """The key of a round's draws: each 64-bit word w of seed, tag and round,
    ints >= 0 of any size, low first, is absorbed as k = _splitmix(((k + c)
    mod 2**64) ^ w), c = _GOLDEN for a value's last word, else 2 * _GOLDEN."""
    key = 0
    for value in map(operator.index, (seed, tag, round_idx)):
        if value < 0:
            raise ValueError(f"seed, tag and round must be >= 0, got {value!r}")
        while value > _MASK:
            key, value = _splitmix(((key + 2 * _GOLDEN) & _MASK) ^ (value & _MASK)), value >> 64
        key = _splitmix(((key + _GOLDEN) & _MASK) ^ value)
    return key


def _draws(key: int, nodes: np.ndarray, j: np.ndarray) -> np.ndarray:
    """u(k_t, j) = _splitmix(k_t + (j + 1) * _GOLDEN) with k_t = _splitmix(key ^
    _splitmix(t)), as uint64, for node t = ``nodes[e]`` and j = ``j[e]``."""
    node = _splitmix(np.uint64(key) ^ _splitmix(nodes.astype(np.uint64)))
    return _splitmix(node + (j.astype(np.uint64) + 1) * _GOLDEN)


def _bounded(u: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """``bounded`` of _updates.c elementwise, as int64, for ranges below
    2**32 - 1: u * (range + 1) >> 64 from u's 32-bit halves, exactly."""
    w = ranges.astype(np.uint64) + 1
    return (((u >> 32) * w + (((u & 0xFFFFFFFF) * w) >> 32)) >> 32).astype(np.int64)


def _draw_integers_py(key: int, lo: int, hi: int, m: int) -> np.ndarray:
    """Reference for ``fedmtl_draw_integers``, and the path without a compiler."""
    return lo + _bounded(_draws(key, np.arange(m), np.zeros(m)), np.full(m, hi - lo))


def _draw_random_py(key: int, m: int) -> np.ndarray:
    """Reference for ``fedmtl_draw_random``, and the path without a compiler."""
    return (_draws(key, np.arange(m), np.zeros(m)) >> 11).astype(np.float64) * 2.0**-53


def _draw_permutations_py(key: int, sizes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Reference for ``fedmtl_draw_permutations``, and the path without a
    compiler: every entry's draw at once, then the swaps in a loop."""
    n = np.repeat(sizes, counts)
    k = np.arange(n.size) - np.repeat(np.cumsum(counts) - counts, counts)
    i = k % n
    out, u = [], _draws(key, np.repeat(np.arange(counts.size), counts), k)
    for i, j, n in zip(i.tolist(), (i + _bounded(u, n - 1 - i)).tolist(), n.tolist()):
        if i == 0:
            work = list(range(n))
        work[i], work[j] = work[j], work[i]
        out.append(work[i])
    return np.array(out, dtype=np.int64)


def draw_integers(seed: int, tag: int, round_idx: int, lo: int, hi: int, m: int) -> np.ndarray:
    """One integer in [lo, hi] for each node t < m: lo + the high 64 bits of
    u * (hi - lo + 1), u its first draw of the round.  Without a rejection
    step each value's probability is within 2**-64 of 1 / (hi - lo + 1), so
    the draw is within 2**-33 of uniform in total variation.  ValueError
    unless lo and hi are int64 and hi - lo + 1 is in [1, 2**32)."""
    if not (-2**63 <= lo and hi < 2**63 and 1 <= hi - lo + 1 < 2**32):
        raise ValueError(f"need int64 bounds with hi - lo + 1 in [1, 2**32), got [{lo}, {hi}]")
    key, lib = _round_key(seed, tag, round_idx), _draw_kernel()
    if lib is None:
        return _draw_integers_py(key, lo, hi, m)
    out = np.empty(m, dtype=np.int64)
    lib.fedmtl_draw_integers(key, lo, hi - lo, m, out.ctypes.data)
    return out


def draw_random(seed: int, tag: int, round_idx: int, m: int) -> np.ndarray:
    """One double in [0, 1) for each node t < m: the top 53 bits of its
    first draw of the round, over 2**53."""
    key, lib = _round_key(seed, tag, round_idx), _draw_kernel()
    if lib is None:
        return _draw_random_py(key, m)
    out = np.empty(m)
    lib.fedmtl_draw_random(key, m, out.ctypes.data)
    return out


def draw_permutations(seed: int, tag: int, round_idx: int, sizes, counts) -> np.ndarray:
    """For each node t < m = len(counts), ``counts[t]`` indices in
    ``[0, sizes[t])``, in node order: a forward Fisher-Yates shuffle of
    0 .. n - 1, n = sizes[t], whose entry k swaps position i = k mod n with
    i + (a draw from u(k_t, k) in [0, n - 1 - i], biased as in
    ``draw_integers``) and reads position i.  Entry k reads draw k alone, so
    a count's indices start any larger count's: b <= n of them are a uniform
    subset, and block p of n is the node's (p + 1)-th permutation.
    ValueError unless every node that draws has a size in [1, 2**32)."""
    sizes, counts = (np.ascontiguousarray(a, dtype=np.int64) for a in (sizes, counts))
    if counts.ndim != 1 or sizes.shape != counts.shape:
        raise ValueError("sizes and counts must be vectors of one length")
    # The checks read Python lists, which cost less than numpy's reductions
    # at a round's handful of nodes.  The sizes that draw, or [1] for none.
    listed = counts.tolist()
    drawn = [n for n, count in zip(sizes.tolist(), listed) if count] or [1]
    if min(listed, default=0) < 0 or not 1 <= min(drawn) <= max(drawn) < 2**32:
        raise ValueError("counts must be >= 0, and a node that draws needs a size in [1, 2**32)")
    key, lib = _round_key(seed, tag, round_idx), _draw_kernel()
    if lib is None:
        return _draw_permutations_py(key, sizes, counts)
    out = np.empty(sum(listed), dtype=np.int64)
    work = np.empty(max(drawn), dtype=np.int64)
    lib.fedmtl_draw_permutations(key, len(listed), sizes.ctypes.data, counts.ctypes.data,
                                 work.ctypes.data, out.ctypes.data)
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

    The counts, delta, U and every index's range are checked before any
    step; ``_sweeps`` serves callers that repeat calls with indices they
    made in range.
    """
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    counts = _checked_counts(counts, idx.size, view.ds.m)
    run = _sweeps(view, delta, U, beta)
    if idx.size and not (0 <= idx.min() and (idx < np.repeat(view.ds.sizes, counts)).all()):
        raise IndexError("coordinate index out of range of its node")
    run(idx, counts)


def _checked_counts(counts, size: int, m: int) -> np.ndarray:
    """``counts`` as an int64 array, if it holds m counts >= 0 that sum to
    ``size``, the length of the round's indices; else ValueError."""
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    # Summed as Python ints, which cannot wrap around.
    listed = counts.tolist()
    if counts.shape != (m,) or min(listed, default=0) < 0 or sum(listed) != size:
        raise ValueError("counts must hold m counts >= 0 that sum to len(idx)")
    return counts


def _sweeps(view: RoundView, delta: np.ndarray, U: np.ndarray, beta: float = 0.0):
    """``run(idx, counts)``, which takes the steps of ``_run_round(view,
    idx, counts, delta, U, beta)``, for callers that make many calls against
    one view into one delta and U: those two are checked, and every address
    but the indices' and counts' taken, once.  Each call still checks its
    counts, which keeps the kernel's walk over idx in bounds; the indices
    must be in range of their nodes, as the oracle's sweeps and CoCoA's
    passes make them."""
    ds = view.ds
    # Both are written in place, so they cannot be converted copies.
    for name, a, shape in (("delta", delta, (ds.n,)), ("U", U, (ds.m, ds.d))):
        if not (a.dtype == np.float64 and a.flags.carray and a.shape == shape):
            raise ValueError(f"{name} must be a writable C-contiguous float64 "
                             f"array of shape {shape}")
    lib = _load_kernel()
    if lib is not None:
        entry = lib.fedmtl_run_round
        head = (view.kind is LossKind.HINGE, beta, ds.d, ds.m, *view._kernel_arrays[1])
        tail = (delta.ctypes.data, U.ctypes.data)

    def run(idx, counts) -> None:
        idx = np.ascontiguousarray(idx, dtype=np.int64)
        counts = _checked_counts(counts, idx.size, ds.m)
        if lib is None:
            _run_round_py(view, idx, counts, delta, U, beta)
        else:
            # Every array stays referenced here, by the view or by the
            # caller until the call returns.
            entry(*head, idx.ctypes.data, counts.ctypes.data, *tail)
    return run


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
    table, labels, _, offsets = ds.addresses
    lib.fedmtl_task_losses(kind is LossKind.HINGE, ds.d, ds.m, table, rows.ctypes.data,
                           labels, offsets, out.ctypes.data)
    return out


def _task_losses_py(W: np.ndarray, ds: FederatedDataset, kind: LossKind) -> np.ndarray:
    """Reference for ``_task_losses``: numpy scores and one ``loss_sum`` per
    task."""
    return np.array([loss_sum(kind, W[:, t] @ task.features, task.labels)
                     for t, task in enumerate(ds.tasks)])


def _budget_round(view: RoundView, budgets, drops, seed: int, round_idx: int,
                  beta: float) -> RoundResult:
    """One ``_run_round`` call in ``beta``'s mode: node t takes its budget,
    or 0 when it drops, of indices from ``draw_permutations`` under
    ``SOLVER_STREAM``: consecutive random permutations of 0 .. n_t - 1, so
    a budget of at most n_t visits distinct examples."""
    ds = view.ds
    counts = [0 if drops[t] else max(int(budgets[t]), 0) for t in range(ds.m)]
    idx = draw_permutations(seed, SOLVER_STREAM, round_idx, ds.sizes, counts)
    delta, U = np.zeros(ds.n), np.zeros((ds.m, ds.d))
    _run_round(view, idx, counts, delta, U, beta)
    return RoundResult(delta, U.T, counts)


def solve_local(view: RoundView, budgets, drops, seed: int, round_idx: int) -> RoundResult:
    """MOCHA's local solves for one round: each responding node runs
    ``budgets[t]`` randomized coordinate updates against the snapshot, at
    indices that walk random permutations of its examples, drawn under
    ``SOLVER_STREAM`` (see ``_budget_round``).

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
    Raises DualInfeasibleError outside the hinge dual box."""
    conj = conjugate_terms(view.kind, view.alpha + delta, view.ds.labels)
    return (np.add.reduceat(conj, view.ds.offsets[:-1])
            + np.einsum("dt,td->t", view.W, U) + 0.5 * view.kappa * np.einsum("td,td->t", U, U))


def _local_indices(ds: FederatedDataset) -> np.ndarray:
    """0 .. n_t - 1 for each task t, packed: entry k is example k's index
    within its task."""
    return np.arange(ds.n) - np.repeat(ds.offsets[:-1], ds.sizes)


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
    sizes, local = ds.sizes, _local_indices(ds)
    delta, U = np.zeros(ds.n), np.zeros((ds.m, ds.d))
    run = _sweeps(view, delta, U)
    live = np.zeros(ds.m, dtype=bool)
    live[list(nodes)] = True
    value = _node_values(view, delta, U)
    for _ in range(_ORACLE_MAX_PASSES):
        if not live.any():
            break
        run(local[np.repeat(live, sizes)], np.where(live, sizes, 0))
        new_value = _node_values(view, delta, U)
        live &= ~(value - new_value <= tol * (1.0 + np.abs(new_value)))
        value = new_value
    if live.any():
        raise ConvergenceError(
            f"subproblem solve did not converge within {_ORACLE_MAX_PASSES} sweeps"
        )
    return delta, value


@dataclass(frozen=True)
class FixedQualitySolver:
    """CoCoA's local solver: on each responding node, randomized passes over
    the local data until the measured quality reaches ``theta_target`` or
    ``max_passes`` run out.  It ignores the budgets, so per-round work
    follows the hardest subproblem.

    Quality is measured against the exact subproblem optimum (affordable at
    desk scale, solved to ``_COCOA_ORACLE_TOL``), removing estimator noise
    from method comparisons.  The passes run in lockstep, one ``_run_round``
    call per pass over the nodes still above the target.  Each pass visits
    every example of the node once: pass p is block p of the node's
    ``draw_permutations`` under ``SOLVER_STREAM``, its (p + 1)-th
    permutation, so its work and result do not depend on the other nodes.
    The passes are drawn again, twice as many, when they run out; a longer
    draw starts with the shorter one.
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
        sizes, local = ds.sizes, _local_indices(ds)
        run = _sweeps(view, delta, U)
        counts = np.zeros(ds.m, dtype=np.int64)
        drawn = 0
        for p in range(self.max_passes):
            if not active.any():
                break
            if p == drawn:
                # Twice the passes drawn so far, of each active node.
                drawn = min(2 * drawn or 2, self.max_passes)
                blocks = np.where(active, drawn * sizes, 0)
                perms = draw_permutations(seed, SOLVER_STREAM, round_idx, sizes, blocks)
                starts = np.cumsum(blocks) - blocks
            passed = np.where(active, sizes, 0)
            # Pass p of node t is block p of its draw.
            run(perms[np.repeat(starts + p * sizes, passed) + local[np.repeat(active, sizes)]],
                passed)
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
    beta.  The batch is drawn as ``_budget_round`` draws it, so a budget of
    at most n_t is a subset of distinct coordinates.

    With beta = 1 the scaled sum is a convex combination, so hinge
    feasibility is preserved.  beta near the budget can overshoot where the
    batch's examples are correlated, and a budget above n_t repeats
    coordinates.
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
    ``view``, drawing its coordinates under (seed, ``SOLVER_STREAM``,
    round_idx).  It defaults to ``solve_local`` (MOCHA);
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
    rel = build_relationship(model, omega, config.gamma, initial_eigenpairs(model, ds.m))
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
        new_omega, eigenpairs = update_omega(model, W, omega)
        if new_omega is not omega:
            omega = new_omega
            rel = build_relationship(model, omega, config.gamma, eigenpairs)
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
