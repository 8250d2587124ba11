"""The native coordinate-update kernel against its Python reference, and the
native random draws against numpy's."""

import ctypes
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tests.conftest import random_view, recompute_v

from fedmtl import solver
from fedmtl.baselines import cocoa_run, mb_sdca_run, mb_sgd_run
from fedmtl.data import FederatedDataset, SyntheticSpec, TaskDataset, generate_synthetic
from fedmtl.losses import LossKind, hinge_box_violation
from fedmtl.regularizers import (
    MeanRegularized,
    ProbabilisticPrior,
    build_relationship,
    initial_omega,
)
from fedmtl.simulation import HeterogeneityPolicy, NodeProfile, SystemsPolicy
from fedmtl.solver import (
    SOLVER_STREAM,
    RoundView,
    SolverConfig,
    _run_round,
    _run_round_py,
    _task_losses,
    _task_losses_py,
    draw_integers,
    draw_random,
    init_dual_state,
    run_mocha,
    run_w_update,
    solve_local,
    stream,
)

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def _updated(run, round_view, idx, beta=0.0):
    """The delta and u that ``run`` (``_run_round`` or ``_run_round_py``)
    leaves after the steps at ``idx`` on a one-node round."""
    delta, U = np.zeros(round_view.ds.n), np.zeros((1, round_view.ds.d))
    run(round_view, idx, [len(idx)], delta, U, beta)
    return delta, U[0]


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(list(LossKind)),
    # Every remainder of d modulo the kernel's four dot-product lanes, and
    # up to three full passes over them.
    d=st.integers(1, 13),
    n=st.integers(1, 12),
    count=st.integers(0, 80),
    zero_cols=st.integers(0, 3),
    subnormal=st.booleans(),
    c_order=st.booleans(),
    kappa=st.floats(0.05, 5.0),
    # MOCHA's sequential steps, and mini-batch SDCA's at two scalings.
    beta=st.sampled_from([0.0, 1.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_python_loop(kind, d, n, count, zero_cols, subnormal,
                                    c_order, kappa, beta, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, n))
    X[:, :zero_cols] = 0.0
    if subnormal:
        # The squared norm of this column is about 5e-324.
        X[:, -1] = 0.0
        X[0, -1] = 2.2e-162
    X = X if c_order else np.asfortranarray(X)
    y = rng.choice([-1.0, 1.0], size=n)
    alpha = (y * rng.uniform(0.0, 1.0, size=n) if kind is LossKind.HINGE
             else rng.standard_normal(n))
    W = rng.standard_normal((d, 3))
    # The round's dataset holds the features column-major whatever their order here.
    round_view = RoundView(FederatedDataset((TaskDataset(0, X, y),)), kind, alpha,
                           W[:, 1][:, None], np.array([kappa]))
    # Sampling with replacement repeats indices whenever count > n.
    idx = rng.integers(0, n, size=count)

    with np.errstate(over="ignore"):
        # A subnormal curvature overflows the unclipped hinge step to inf.
        delta, u = _updated(_run_round, round_view, idx, beta)
        ref_delta, ref_u = _updated(_run_round_py, round_view, idx, beta)
    for got, ref in ((delta, ref_delta), (u, ref_u)):
        np.testing.assert_allclose(got, ref, rtol=0.0,
                                   atol=1e-12 * np.abs(ref).max(initial=0.0))
    # Scaled by beta <= 1, a mini-batch's steps are a convex combination.
    if kind is LossKind.HINGE and beta <= 1.0:
        assert hinge_box_violation(alpha + delta, y) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(LossKind)),
    m=st.integers(1, 6),
    d=st.integers(1, 13),
    zero_cols=st.integers(0, 2),
    subnormal=st.booleans(),
    # MOCHA's sequential steps (0), and mini-batch SDCA's with beta = 1 and
    # with beta the largest budget.
    beta=st.sampled_from(["0", "1", "b"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_kernel_matches_per_node_loops(kind, m, d, zero_cols, subnormal, beta, seed):
    rng = np.random.default_rng(seed)
    tasks = []
    for t in range(m):
        X = rng.standard_normal((d, int(rng.integers(1, 13))))
        X[:, :zero_cols] = 0.0
        tasks.append(TaskDataset(t, X, rng.choice([-1.0, 1.0], size=X.shape[1])))
    if subnormal:
        # The squared norm of this column is about 5e-324.
        X = tasks[-1].features.copy()
        X[:, -1] = 0.0
        X[0, -1] = 2.2e-162
        tasks[-1] = TaskDataset(m - 1, X, tasks[-1].labels)
    ds = FederatedDataset(tuple(tasks))
    alpha = (ds.labels * rng.uniform(0.0, 1.0, size=ds.n) if kind is LossKind.HINGE
             else rng.standard_normal(ds.n))
    view = RoundView(ds, kind, alpha, rng.standard_normal((d, m)),
                     rng.uniform(0.05, 5.0, size=m))
    # Budgets of zero, and budgets above n_t, which repeat indices.
    budgets = [int(rng.integers(0, 3 * task.n + 1)) for task in ds.tasks]
    drops = list(rng.random(m) < 0.3)
    beta = float(max(budgets, default=1)) if beta == "b" else float(beta)

    with np.errstate(over="ignore"):
        # A subnormal curvature overflows the unclipped hinge step to inf.
        res = solve_local(view, budgets, drops, seed, 0)
        ends = np.cumsum(res.update_counts)
        idx = np.concatenate([np.empty(0, dtype=np.int64)] + [
            stream(seed, SOLVER_STREAM, t, 0).integers(0, ds.tasks[t].n,
                                                       size=res.update_counts[t])
            for t in range(m) if res.update_counts[t]])
        delta, U = np.zeros(ds.n), np.zeros((m, d))
        _run_round(view, idx, res.update_counts, delta, U, beta)
        if beta == 0.0:
            assert np.array_equal(res.delta, delta)
            # delta_v is the u the node's updates accumulated.
            assert np.array_equal(res.delta_v, U.T)
        for t in range(m):
            count = 0 if drops[t] else budgets[t]
            assert res.update_counts[t] == count
            # Node t's steps alone, every other node without indices.
            alone, alone_U = np.zeros(ds.n), np.zeros((m, d))
            _run_round(view, idx[ends[t] - count:ends[t]],
                       np.where(np.arange(m) == t, count, 0), alone, alone_U, beta)
            block = slice(ds.offsets[t], ds.offsets[t + 1])
            assert np.array_equal(delta[block], alone[block])
            assert np.array_equal(U[t], alone_U[t])
        ref, ref_U = np.zeros(ds.n), np.zeros((m, d))
        _run_round_py(view, idx, res.update_counts, ref, ref_U, beta)
    for got, want in ((delta, ref), (U, ref_U)):
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-12 * np.abs(want).max(initial=0.0))


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(list(LossKind)),
    d=st.integers(1, 13),
    # Task sizes, down to tasks of one example.
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=5),
    zero_cols=st.integers(0, 2),
    subnormal=st.booleans(),
    scale=st.sampled_from([0.0, 0.1, 1.0, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_task_losses_match_python_loop(kind, d, sizes, zero_cols, subnormal, scale, seed):
    rng = np.random.default_rng(seed)
    tasks = []
    for t, n in enumerate(sizes):
        X = rng.standard_normal((d, n))
        X[:, :zero_cols] = 0.0
        tasks.append(TaskDataset(t, X, rng.choice([-1.0, 1.0], size=n)))
    if subnormal:
        # The only nonzero entry of this column is 2.2e-162.
        X = tasks[-1].features.copy()
        X[:, -1] = 0.0
        X[0, -1] = 2.2e-162
        tasks[-1] = TaskDataset(len(sizes) - 1, X, tasks[-1].labels)
    ds = FederatedDataset(tuple(tasks))
    W = scale * rng.standard_normal((d, ds.m))
    got = _task_losses(W, ds, kind)
    ref = _task_losses_py(W, ds, kind)
    assert got.shape == ref.shape == (ds.m,)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
    with pytest.raises(ValueError):
        _task_losses(W[:, :-1] if ds.m > 1 else W[:-1], ds, kind)


def test_running_v_stays_on_x_alpha():
    # v is the sum of the kernel's per-round u, never recomputed from alpha.
    ds = generate_synthetic(SyntheticSpec(m=10, d=11, n_min=20, n_max=40, cluster_count=2,
                                          deviation=0.3, noise=0.05, seed=4))
    model = MeanRegularized(1.0, 1.0)
    rel = build_relationship(model, initial_omega(model, ds.m))
    policy = SystemsPolicy(4, [NodeProfile(drop_probability=0.2)] * ds.m,
                           HeterogeneityPolicy("high", min(ds.task_sizes())))
    state = init_dual_state(ds)
    trace = run_w_update(ds, LossKind.SQUARED, rel, state, policy,
                         rounds=60, seed=4)
    assert len(trace) == 60 and any(stats.dropped for stats in trace)
    x_alpha = recompute_v(state, ds)
    assert np.linalg.norm(state.v - x_alpha) <= 1e-10 * (1.0 + np.linalg.norm(x_alpha))


@needs_cc
def test_kernel_builds_without_warnings(tmp_path):
    # The build's own flags, so that warnings which need -O2 show too.
    built = subprocess.run([shutil.which("cc"), *solver._KERNEL_FLAGS,
                            "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "k.so"),
                            str(solver._KERNEL_SOURCE)], capture_output=True, text=True)
    assert built.returncode == 0, built.stderr


@needs_cc
def test_kernel_loads_where_a_compiler_exists():
    lib = solver._load_kernel()
    assert lib is not None and solver._load_kernel() is lib
    for entry in (lib.fedmtl_run_round, lib.fedmtl_task_losses,
                  lib.fedmtl_draw_integers, lib.fedmtl_draw_random):
        assert entry.argtypes and entry.restype is None
    # One node's steps are a static helper of the round kernel, not an export.
    assert not hasattr(lib, "fedmtl_run_updates")
    # hinge, beta, d, m, then the feature table and ten arrays.
    assert lib.fedmtl_run_round.argtypes == [ctypes.c_int, ctypes.c_double,
                                             *[ctypes.c_int64] * 2, *[ctypes.c_void_p] * 11]
    # A one-node round takes the native path and matches the reference.
    round_view = random_view(np.random.default_rng(2), LossKind.HINGE, d=5, n=8)
    idx = np.random.default_rng(3).integers(0, 8, size=20)
    for got, want in zip(_updated(_run_round, round_view, idx),
                         _updated(_run_round_py, round_view, idx)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
    # hinge, d, m, then the feature table, W, labels, offsets and the output.
    assert lib.fedmtl_task_losses.argtypes == [ctypes.c_int, ctypes.c_int64, ctypes.c_int64,
                                               *[ctypes.c_void_p] * 5]
    assert lib.numpy_streams is True


# Run in a fresh interpreter with the sanitizer runtime preloaded: a kernel
# built with -fsanitize=address,undefined takes every native entry point,
# then refuses malformed layouts before they reach it.
_SANITIZED_RUN = """
import numpy as np
from fedmtl import solver
solver._KERNEL_FLAGS += ("-fsanitize=address,undefined", "-fno-omit-frame-pointer")
from fedmtl.baselines import cocoa_run, mb_sdca_run
from fedmtl.data import SyntheticSpec, generate_synthetic
from fedmtl.losses import LossKind
from fedmtl.regularizers import MeanRegularized, ProbabilisticPrior, build_relationship
from fedmtl.regularizers import initial_omega
from fedmtl.simulation import HeterogeneityPolicy, NodeProfile, SystemsPolicy
from fedmtl.solver import RoundView, SolverConfig, _run_round, _task_losses, run_mocha

lib = solver._load_kernel()
assert lib is not None and lib.numpy_streams, "the sanitized kernel did not load"
ds = generate_synthetic(SyntheticSpec(m=4, d=5, n_min=6, n_max=15, cluster_count=2,
                                      deviation=0.3, noise=0.05, seed=3))
policy = SystemsPolicy(3, [NodeProfile(drop_probability=0.3)] * ds.m,
                       HeterogeneityPolicy("high", min(ds.task_sizes())))
model = MeanRegularized(1.0, 1.0)
rel = build_relationship(model, initial_omega(model, ds.m))
for kind in LossKind:
    W = run_mocha(ds, ProbabilisticPrior(lam=0.5), SolverConfig(inner_rounds=4, outer_rounds=2,
                  seed=3), policy, kind).primal.W
    cocoa_run(ds, kind, rel, 0.1, 3, seed=3)
    mb_sdca_run(ds, kind, rel, 5, 2.0, 3, seed=3, policy=policy)
    assert np.isfinite(_task_losses(W, ds, kind)).all()
assert solver.draw_integers(3, 11, 2, 0, 2**32 - 2, [0, 7, 1]).size == 8
assert solver.draw_random(3, 11, 2, 5).shape == (5,)
view = RoundView(ds, LossKind.HINGE, np.zeros(ds.n), np.ones((ds.d, ds.m)), np.ones(ds.m))
for counts, idx in (([3000000, -3000000, 0, 0], []), ([3, -3, 0, 0], []),
                    ([2**62] * 4, []), ([0, 3, 0], []), ([1, 0, 0, 0], [ds.tasks[0].n]),
                    ([2, 0, 0, 0], [0]), ([0, 0, 0, 1], [-1])):
    try:
        _run_round(view, idx, counts, np.zeros(ds.n), np.zeros((ds.m, ds.d)))
    except (ValueError, IndexError):
        continue
    raise SystemExit(f"accepted counts {counts} with indices {idx}")
print("clean")
"""


@needs_cc
def test_kernel_runs_clean_under_sanitizers(tmp_path):
    asan = subprocess.run([shutil.which("cc"), "-print-file-name=libasan.so"],
                          capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(asan) or not os.path.exists(asan):
        pytest.skip("no AddressSanitizer runtime")
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path), "LD_PRELOAD": asan,
           "ASAN_OPTIONS": "detect_leaks=0", "UBSAN_OPTIONS": "halt_on_error=1",
           "PYTHONPATH": str(Path(solver.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", _SANITIZED_RUN], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-3000:]
    assert run.stdout.strip() == "clean"
    assert "Sanitizer" not in run.stderr and "runtime error" not in run.stderr, run.stderr


def test_out_of_range_index_raises():
    round_view = random_view(np.random.default_rng(0), LossKind.SQUARED, n=5)
    for idx in ([0, 5], [-1, 2], [3, 5]):
        with pytest.raises(IndexError):
            _updated(_run_round, round_view, np.array(idx))


def test_run_round_rejects_a_bad_u(monkeypatch):
    ds = generate_synthetic(SyntheticSpec(m=2, d=4, n_min=5, n_max=5, seed=1))
    view = RoundView(ds, LossKind.SQUARED, np.zeros(ds.n), np.ones((4, 2)), np.ones(2))
    read_only = np.zeros((2, 4))
    read_only.setflags(write=False)
    # Wrong shapes, a wrong dtype, column-major and strided layouts, read-only.
    bad = [np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(8), np.zeros((2, 4), dtype=np.float32),
           np.zeros((2, 4), order="F"), np.zeros((2, 8))[:, ::2], read_only]
    # Checked before the kernel is chosen, so the path without a compiler checks too.
    for load in (solver._load_kernel, lambda: None):
        monkeypatch.setattr(solver, "_load_kernel", load)
        for U in bad:
            with pytest.raises(ValueError):
                _run_round(view, [0, 2], [2, 0], np.zeros(ds.n), U)
        # delta is written in place too, so a strided one is refused as well.
        with pytest.raises(ValueError):
            _run_round(view, [0, 2], [2, 0], np.zeros(2 * ds.n)[::2], np.zeros((2, 4)))
        good = np.zeros((2, 4))
        _run_round(view, [0, 2], [2, 0], np.zeros(ds.n), good)
        assert good[0].any() and not good[1].any()


_INT64 = st.integers(-2**63, 2**63 - 1)


@st.composite
def _layouts(draw):
    """Task sizes for m in [1, 4], node counts and indices: counts of length
    m or not, negative or huge ones included; indices in range of their
    nodes, or any, of the length the counts sum to or not."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    m = len(sizes)
    counts = draw(st.lists(st.integers(0, 6), min_size=m, max_size=m) | st.lists(
        st.one_of(st.integers(-3, 6), _INT64), min_size=max(m - 1, 0), max_size=m + 1))
    total = sum(counts)
    if draw(st.booleans()) and len(counts) == m and min(counts) >= 0 and total <= 40:
        idx = [draw(st.integers(0, n - 1)) for n, c in zip(sizes, counts) for _ in range(c)]
    else:
        size = draw(st.sampled_from([total, total, total + 1, total - 1])
                    if 0 <= total <= 40 else st.integers(0, 12))
        idx = draw(st.lists(st.one_of(st.integers(-1, 5), _INT64), min_size=max(size, 0),
                            max_size=max(size, 0)))
    return sizes, counts, idx


@settings(max_examples=300, deadline=None)
@given(layout=_layouts(), kind=st.sampled_from(list(LossKind)),
       beta=st.sampled_from([0.0, 1.0]), seed=st.integers(0, 2**32 - 1))
# The inputs that read past idx at the parent of this check: a later node's
# offset beyond an empty idx, and counts whose int64 sum wraps around to 0.
@example(layout=([5, 5], [3000000, -3000000], []), kind=LossKind.SQUARED, beta=0.0, seed=0)
@example(layout=([5, 5], [3, -3], []), kind=LossKind.SQUARED, beta=0.0, seed=0)
@example(layout=([5, 5, 5, 5], [2**62] * 4, []), kind=LossKind.HINGE, beta=0.0, seed=0)
def test_round_layout_is_checked_before_the_kernel(layout, kind, beta, seed):
    """Natively and without a compiler, a round either refuses its layout
    with ValueError or IndexError before the kernel runs, writing nothing,
    or takes the steps ``_run_round_py`` takes."""
    sizes, counts, idx = layout
    rng = np.random.default_rng(seed)
    ds = FederatedDataset(tuple(TaskDataset(t, rng.standard_normal((3, n)),
                                            rng.choice([-1.0, 1.0], size=n))
                                for t, n in enumerate(sizes)))
    view = RoundView(ds, kind, np.zeros(ds.n), rng.standard_normal((3, ds.m)),
                     rng.uniform(0.5, 2.0, size=ds.m))
    outcomes = []
    for native in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            calls = []
            lib = solver._load_kernel() if native else None
            if lib is not None:
                entry = lib.fedmtl_run_round
                patch.setattr(lib, "fedmtl_run_round",
                              lambda *args: (calls.append(args), entry(*args)))
            patch.setattr(solver, "_load_kernel", lambda: lib)
            delta, U = np.zeros(ds.n), np.zeros((ds.m, 3))
            try:
                _run_round(view, idx, counts, delta, U, beta)
            except (ValueError, IndexError) as exc:
                assert not calls and not delta.any() and not U.any()
                outcomes.append(type(exc))
                continue
        assert len(calls) == (lib is not None)
        ref, ref_U = np.zeros(ds.n), np.zeros((ds.m, 3))
        _run_round_py(view, np.array(idx, dtype=np.int64), counts, ref, ref_U, beta)
        for got, want in ((delta, ref), (U, ref_U)):
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=1e-12 * np.abs(want).max(initial=0.0))
        outcomes.append(None)
    # Both paths refuse the same layouts.
    assert outcomes[0] is outcomes[1]


def _dual_baseline_runs():
    """cocoa_run and mb_sdca_run with both losses on tasks of mixed sizes."""
    ds = generate_synthetic(SyntheticSpec(m=4, d=5, n_min=8, n_max=20, cluster_count=2,
                                          deviation=0.3, noise=0.05, seed=6))
    model = MeanRegularized(1.0, 1.0)
    rel = build_relationship(model, initial_omega(model, ds.m))
    return [run(ds, kind, rel)
            for kind in LossKind
            for run in (lambda *a: cocoa_run(*a, 0.1, 6, seed=6),
                        lambda *a: mb_sdca_run(*a, 6, 2.0, 6, seed=6))]


def test_python_fallback_matches_reference(monkeypatch):
    round_view = random_view(np.random.default_rng(1), LossKind.HINGE, d=7, n=30)
    idx = stream(3, SOLVER_STREAM, 0, 0).integers(0, 30, size=200)
    ref_delta, ref_u = _updated(_run_round_py, round_view, idx)
    native_runs = _dual_baseline_runs()

    monkeypatch.setattr(solver, "_load_kernel", lambda: None)
    res = solve_local(round_view, [200], [False], 3, 0)
    assert np.array_equal(res.delta, ref_delta)
    assert np.array_equal(res.delta_v[:, 0], ref_u)
    # CoCoA and mini-batch SDCA take the same steps without a compiler.
    for got, ref in zip(_dual_baseline_runs(), native_runs):
        assert len(got.trace) == len(ref.trace) == 6
        for a, b in zip(got.trace, ref.trace):
            assert a.dropped == b.dropped and a.update_counts == b.update_counts
            for x, y in ((a.dual, b.dual), (a.primal, b.primal), (a.gap, b.gap)):
                assert abs(x - y) <= 1e-10 * abs(b.primal)


@needs_cc
def test_learned_omega_run_matches_python_loop(monkeypatch):
    # d < m, so W^T W is rank deficient: the coupling update must not turn
    # the kernel's last-digit differences into visible ones.
    ds = generate_synthetic(SyntheticSpec(m=12, d=3, n_min=20, n_max=30,
                                          cluster_count=3, deviation=0.3,
                                          noise=0.05, seed=11))
    model = ProbabilisticPrior(lam=1.0)
    policy = SystemsPolicy(11, [NodeProfile(drop_probability=0.1)] * ds.m,
                           HeterogeneityPolicy("high", min(ds.task_sizes())))
    config = SolverConfig(inner_rounds=5, outer_rounds=6, seed=11)

    def run():
        return run_mocha(ds, model, config, policy, LossKind.SQUARED)

    got = run()
    monkeypatch.setattr(solver, "_run_round", _run_round_py)
    ref = run()
    assert len(got.trace) == len(ref.trace) == 30
    for a, b in zip(got.trace, ref.trace):
        assert a.dropped == b.dropped and a.update_counts == b.update_counts
        # Relative to the primal, since the gap is a difference of two values.
        for x, y in ((a.dual, b.dual), (a.primal, b.primal), (a.gap, b.gap)):
            assert abs(x - y) <= 1e-10 * abs(b.primal)
    np.testing.assert_allclose(got.primal.W, ref.primal.W, rtol=0.0,
                               atol=1e-10 * np.abs(ref.primal.W).max())
    np.testing.assert_allclose(got.omega, ref.omega, rtol=0.0,
                               atol=1e-10 * np.abs(ref.omega).max())


def test_run_mocha_bit_identical_across_workers():
    ds = generate_synthetic(SyntheticSpec(m=7, d=4, n_min=10, n_max=30,
                                          cluster_count=2, deviation=0.3,
                                          noise=0.05, seed=5))
    model = ProbabilisticPrior(lam=0.5)
    policy = SystemsPolicy(5, [NodeProfile(drop_probability=0.3)] * ds.m,
                           HeterogeneityPolicy("high", min(ds.task_sizes())))
    runs = [run_mocha(ds, model, SolverConfig(inner_rounds=5, outer_rounds=3, seed=5,
                                              workers=workers),
                      policy, LossKind.SQUARED)
            for workers in (1, 2, 3)]
    ref = runs[0]
    assert any(stats.dropped for stats in ref.trace)
    for run in runs[1:]:
        assert [(s.dual, s.primal, s.dropped, s.update_counts) for s in run.trace] == \
            [(s.dual, s.primal, s.dropped, s.update_counts) for s in ref.trace]
        assert np.array_equal(run.primal.W, ref.primal.W)
        assert np.array_equal(run.omega, ref.omega)


_WORD = st.integers(0, 2**64 - 1)
# Ranges of width 0 (lo == hi), of the smallest sizes, and up to 2**32 - 2,
# the widest the native draws take.
_WIDTH = st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 2))


def _native_calls(patch, lib):
    """The names of ``lib``'s draw entry points as they are called, in
    order; the entry points still run.  ``patch`` undoes the wrapping."""
    calls = []
    for name in ("fedmtl_draw_integers", "fedmtl_draw_random"):
        def wrapped(*args, _name=name, _entry=getattr(lib, name)):
            calls.append(_name)
            return _entry(*args)
        patch.setattr(lib, name, wrapped)
    return calls


def _per_node(seed, round_idx, lo, hi, counts):
    """``draw_integers`` under tag 11, node by node from numpy's streams."""
    return np.concatenate([np.empty(0, dtype=np.int64), *(
        stream(seed, 11, t, round_idx).integers(lo, hi, size=count, endpoint=True)
        for t, count in enumerate(counts))])


@needs_cc
@settings(max_examples=150, deadline=None)
@given(seed=_WORD, tag=_WORD, round_idx=_WORD,
       nodes=st.lists(st.tuples(st.integers(-2**31, 2**31), _WIDTH,
                                st.integers(0, 40), st.integers(0, 40)),
                      max_size=6))
def test_native_draws_match_numpy(seed, tag, round_idx, nodes):
    """Every node's integers from one native call equal numpy's from its
    stream, taken as two consecutive draws, so the unused half of a 64-bit
    output carries over; every node's double equals numpy's first
    ``random()``."""
    with pytest.MonkeyPatch.context() as patch:
        calls = _native_calls(patch, solver._load_kernel())
        got = draw_integers(seed, tag, round_idx, [lo for lo, *_ in nodes],
                            [lo + width for lo, width, *_ in nodes],
                            [a + b for *_, a, b in nodes])
        doubles = draw_random(seed, tag, round_idx, len(nodes))
    assert calls == ["fedmtl_draw_integers", "fedmtl_draw_random"]
    expected = []
    for t, (lo, width, a, b) in enumerate(nodes):
        rng = stream(seed, tag, t, round_idx)
        expected += [rng.integers(lo, lo + width, size=size, endpoint=True) for size in (a, b)]
    assert got.dtype == np.int64
    assert np.array_equal(got, np.concatenate([np.empty(0, dtype=np.int64), *expected]))
    assert doubles.tolist() == [stream(seed, tag, t, round_idx).random()
                                for t in range(len(nodes))]


@needs_cc
def test_native_draws_defer_to_numpy_where_they_cannot_run(monkeypatch):
    calls = _native_calls(monkeypatch, solver._load_kernel())
    # A seed or round of 2**64 or more takes numpy's path node by node.
    for seed, round_idx in ((2**64, 9), (5, 2**64 + 1)):
        assert np.array_equal(draw_integers(seed, 11, round_idx, 0, 9, [0, 3, 4]),
                              _per_node(seed, round_idx, 0, 9, [0, 3, 4]))
        assert draw_random(seed, 11, round_idx, 3).tolist() == [
            stream(seed, 11, t, round_idx).random() for t in range(3)]
    # So does a width of 2**32 - 1 or more.
    for lo, hi in ((0, 2**32 - 1), (-2**31, 2**31)):
        assert np.array_equal(draw_integers(5, 11, 9, lo, hi, [0, 3, 4]),
                              _per_node(5, 9, lo, hi, [0, 3, 4]))
    assert calls == []
    # numpy rejects a negative seed, an empty range and a negative count.
    for args in ((-1, 11, 9, 0, 9, [4]), (5, 11, 9, 3, 2, [4]), (5, 11, 9, 0, 9, [-1])):
        with pytest.raises(ValueError):
            draw_integers(*args)
    with pytest.raises(ValueError):
        draw_random(-1, 11, 9, 2)
    # The widest range the native draws take, next to a node that draws
    # nothing from a range they cannot take.
    assert np.array_equal(draw_integers(5, 11, 9, 0, [2**32 - 2, 2**33], [5, 0]),
                          _per_node(5, 9, 0, 2**32 - 2, [5]))
    assert calls == ["fedmtl_draw_integers"]
    # A round whose seed needs numpy draws each node's indices with numpy.
    ds = generate_synthetic(SyntheticSpec(m=4, d=3, n_min=5, n_max=9, seed=3))
    counts = [4, 0, 7, 0]
    idx = draw_integers(2**64 + 3, SOLVER_STREAM, 0, 0, np.diff(ds.offsets) - 1, counts)
    assert np.array_equal(idx, np.concatenate([
        stream(2**64 + 3, SOLVER_STREAM, t, 0).integers(0, ds.tasks[t].n, size=counts[t])
        for t in (0, 2)]))
    # Without the kernel every draw is numpy's.
    monkeypatch.setattr(solver, "_load_kernel", lambda: None)
    assert np.array_equal(draw_integers(5, 11, 9, 0, 9, [0, 3, 4]),
                          _per_node(5, 9, 0, 9, [0, 3, 4]))
    assert draw_random(5, 11, 9, 3).tolist() == [stream(5, 11, t, 9).random() for t in range(3)]
    assert calls == ["fedmtl_draw_integers"]


def _dropping_runs(workers=1):
    """run_mocha, mb_sdca_run and mb_sgd_run under a high-heterogeneity
    policy that drops nodes with probability 0.3."""
    ds = generate_synthetic(SyntheticSpec(m=6, d=4, n_min=10, n_max=25, cluster_count=2,
                                          deviation=0.3, noise=0.05, seed=9))
    policy = SystemsPolicy(9, [NodeProfile(drop_probability=0.3)] * ds.m,
                           HeterogeneityPolicy("high", min(ds.task_sizes())))
    fixed = MeanRegularized(1.0, 1.0)
    rel = build_relationship(fixed, np.eye(ds.m) / ds.m)
    return [
        run_mocha(ds, ProbabilisticPrior(lam=0.5),
                  SolverConfig(inner_rounds=5, outer_rounds=3, seed=9, workers=workers),
                  policy, LossKind.SQUARED),
        mb_sdca_run(ds, LossKind.HINGE, rel, 5, 2.0, 8, seed=9, policy=policy),
        mb_sgd_run(ds, LossKind.HINGE, rel, 5, 0.01, 8, seed=9, policy=policy),
    ]


def _assert_same_runs(got, ref):
    for a, b in zip(got, ref):
        assert a.trace == b.trace
        assert np.array_equal(a.primal.W, b.primal.W)
        assert np.array_equal(a.omega, b.omega)


@needs_cc
@pytest.mark.parametrize("workers", [1, 2])
def test_runs_bit_identical_without_native_draws(monkeypatch, workers):
    # The updates and the loss sums run the Python references in both, so
    # only the draws differ. SolverConfig.workers has no effect on a run;
    # both values must give the same runs.
    monkeypatch.setattr(solver, "_run_round", _run_round_py)
    monkeypatch.setattr(solver, "_task_losses", _task_losses_py)
    got = _dropping_runs(workers)
    assert any(stats.dropped for stats in got[0].trace)
    assert any(stats.dropped for stats in got[2].trace)
    monkeypatch.setattr(solver, "_load_kernel", lambda: None)
    _assert_same_runs(got, _dropping_runs(workers))
    _assert_same_runs(got, _dropping_runs())


@needs_cc
def test_draws_fall_back_when_numpy_streams_differ(monkeypatch):
    got = _dropping_runs()
    default_rng = np.random.default_rng
    try:
        with monkeypatch.context() as patch:
            # As if numpy's streams had changed since the native draws were written.
            patch.setattr(np.random, "default_rng", lambda key: default_rng([*key, 1]))
            solver._load_kernel.cache_clear()
            lib = solver._load_kernel()
        assert lib is not None and lib.numpy_streams is False
        calls = _native_calls(monkeypatch, lib)
        assert np.array_equal(draw_integers(5, 11, 9, 0, 9, [0, 4]), _per_node(5, 9, 0, 9, [0, 4]))
        assert draw_random(5, 11, 9, 2).tolist() == [stream(5, 11, t, 9).random()
                                                     for t in range(2)]
        # Numpy's draws, with the native update kernel.
        _assert_same_runs(got, _dropping_runs())
        assert calls == []
    finally:
        solver._load_kernel.cache_clear()
    assert solver._load_kernel().numpy_streams is True
