"""The native coordinate-update kernel against its Python reference."""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import random_view

from fedmtl import solver
from fedmtl.data import SyntheticSpec, generate_synthetic
from fedmtl.losses import LossKind, hinge_box_violation
from fedmtl.regularizers import ProbabilisticPrior
from fedmtl.simulation import HeterogeneityPolicy, NodeProfile, SystemsPolicy
from fedmtl.solver import (
    SolverConfig,
    SubproblemView,
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


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_loads_where_a_compiler_exists():
    assert solver._load_kernel() is not None


def test_out_of_range_index_raises():
    view = random_view(np.random.default_rng(0), LossKind.SQUARED, n=5)
    with pytest.raises(IndexError):
        _updated(_run_updates, view, np.array([0, 5]))


def test_python_fallback_matches_reference(monkeypatch):
    view = random_view(np.random.default_rng(1), LossKind.HINGE, d=7, n=30)
    idx = np.random.default_rng(3).integers(0, 30, size=200)
    ref_delta, ref_u = _updated(_run_updates_py, view, idx)

    # A strided delta cannot go to the kernel and takes the Python loop.
    buf = np.zeros(60)
    u = np.zeros(7)
    _run_updates(view, idx, buf[::2], u)
    assert np.array_equal(buf[::2], ref_delta) and np.array_equal(u, ref_u)

    monkeypatch.setattr(solver, "_load_kernel", lambda: None)
    res = solve_local(view, 200, np.random.default_rng(3))
    assert np.array_equal(res.delta_alpha, ref_delta)
    assert np.array_equal(res.delta_v, view.X @ ref_delta)


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
    monkeypatch.setattr(solver, "_run_updates", _run_updates_py)
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
