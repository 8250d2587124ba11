"""The native coordinate-update kernel against its Python reference."""

import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import one_node_round, random_view

from fedmtl import solver
from fedmtl.data import FederatedDataset, SyntheticSpec, TaskDataset, generate_synthetic
from fedmtl.losses import LossKind, hinge_box_violation
from fedmtl.regularizers import ProbabilisticPrior
from fedmtl.simulation import HeterogeneityPolicy, NodeProfile, SystemsPolicy
from fedmtl.solver import (
    RoundView,
    SolverConfig,
    SubproblemView,
    _run_round_py,
    _run_updates,
    _run_updates_py,
    run_mocha,
    solve_local,
)


def _updated(run, view, idx):
    delta = np.zeros(view.labels.size)
    u = np.zeros(view.X.shape[0])
    run(view, idx, delta, u)
    return delta, u


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(list(LossKind)),
    d=st.integers(1, 9),
    n=st.integers(1, 12),
    count=st.integers(0, 80),
    zero_cols=st.integers(0, 3),
    subnormal=st.booleans(),
    c_order=st.booleans(),
    kappa=st.floats(0.05, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_python_loop(kind, d, n, count, zero_cols, subnormal,
                                    c_order, kappa, seed):
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
    view = SubproblemView(X=X, labels=y, alpha=alpha, w=W[:, 1],
                          col_norms2=np.einsum("ij,ij->j", X, X),
                          kappa=kappa, kind=kind)
    # Sampling with replacement repeats indices whenever count > n.
    idx = rng.integers(0, n, size=count)

    with np.errstate(over="ignore"):
        # A subnormal curvature overflows the unclipped hinge step to inf.
        delta, u = _updated(_run_updates, view, idx)
        ref_delta, ref_u = _updated(_run_updates_py, view, idx)
    for got, ref in ((delta, ref_delta), (u, ref_u)):
        np.testing.assert_allclose(got, ref, rtol=0.0,
                                   atol=1e-12 * np.abs(ref).max(initial=0.0))
    if kind is LossKind.HINGE:
        assert hinge_box_violation(alpha + delta, y) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(LossKind)),
    m=st.integers(1, 6),
    d=st.integers(1, 9),
    zero_cols=st.integers(0, 2),
    subnormal=st.booleans(),
    workers=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_kernel_matches_per_node_loops(kind, m, d, zero_cols, subnormal,
                                             workers, seed):
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
                     rng.uniform(0.05, 5.0, size=m), workers)
    # Budgets of zero, and budgets above n_t, which repeat indices.
    budgets = [int(rng.integers(0, 3 * task.n + 1)) for task in ds.tasks]
    drops = list(rng.random(m) < 0.3)

    def streams():
        return [None if drops[t] else np.random.default_rng([seed, t]) for t in range(m)]

    with np.errstate(over="ignore"):
        # A subnormal curvature overflows the unclipped hinge step to inf.
        res = solve_local(view, budgets, drops, streams())
        for t, rng_t in enumerate(streams()):
            count = 0 if drops[t] else budgets[t]
            assert res.update_counts[t] == count
            block = slice(ds.offsets[t], ds.offsets[t + 1])
            idx = (np.empty(0, dtype=np.int64) if count == 0
                   else rng_t.integers(0, ds.tasks[t].n, size=count))
            native, u = np.zeros(ds.tasks[t].n), np.zeros(d)
            _run_updates(view.node(t), idx, native, u)
            assert np.array_equal(res.delta[block], native)
            assert np.array_equal(res.delta_v[:, t],
                                  ds.tasks[t].features @ native if count else np.zeros(d))
        ref = np.zeros(ds.n)
        starts = np.concatenate([[0], np.cumsum(res.update_counts)])
        idx = np.concatenate([np.empty(0, dtype=np.int64)] + [
            rng_t.integers(0, ds.tasks[t].n, size=res.update_counts[t])
            for t, rng_t in enumerate(streams()) if res.update_counts[t]])
        _run_round_py(view, idx, starts, ref)
    np.testing.assert_allclose(res.delta, ref, rtol=0.0,
                               atol=1e-12 * np.abs(ref).max(initial=0.0))


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_loads_where_a_compiler_exists():
    subprocess.run([shutil.which("cc"), "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                    str(solver._KERNEL_SOURCE)], check=True, capture_output=True)
    lib = solver._load_kernel()
    assert lib is not None and solver._load_kernel() is lib
    for entry in (lib.fedmtl_run_updates, lib.fedmtl_run_round):
        assert entry.argtypes and entry.restype is None


def test_out_of_range_index_raises():
    view = random_view(np.random.default_rng(0), LossKind.SQUARED, n=5)
    with pytest.raises(IndexError):
        _updated(_run_updates, view, np.array([0, 5]))


def test_python_fallback_matches_reference(monkeypatch):
    round_view = one_node_round(random_view(np.random.default_rng(1), LossKind.HINGE,
                                            d=7, n=30))
    view = round_view.node(0)
    idx = np.random.default_rng(3).integers(0, 30, size=200)
    ref_delta, ref_u = _updated(_run_updates_py, view, idx)

    # A strided delta cannot go to the kernel and takes the Python loop.
    buf = np.zeros(60)
    u = np.zeros(7)
    _run_updates(view, idx, buf[::2], u)
    assert np.array_equal(buf[::2], ref_delta) and np.array_equal(u, ref_u)

    monkeypatch.setattr(solver, "_load_kernel", lambda: None)
    res = solve_local(round_view, [200], [False], [np.random.default_rng(3)])
    assert np.array_equal(res.delta, ref_delta)
    assert np.array_equal(res.delta_v[:, 0], view.X @ ref_delta)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
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
