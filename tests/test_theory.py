import dataclasses
import math

import numpy as np
import pytest

from tests.conftest import make_dataset

from fedmtl.baselines import cocoa_run, mb_sdca_run
from fedmtl.data import FederatedDataset, TaskDataset
from fedmtl.losses import LossKind
from fedmtl.regularizers import (
    MeanRegularized,
    ProbabilisticPrior,
    build_relationship,
    initial_omega,
    sigma_prime,
    sigma_prime_per_task,
)
from fedmtl.solver import (
    ConstantPolicy,
    SolverConfig,
    init_dual_state,
    run_mocha,
    run_w_update,
)
from fedmtl.theory import (
    convergence_constant_s,
    largest_sv_squared,
    lipschitz_iteration_bound,
    sigma_prime_sides,
    sigma_stats,
    sigma_t,
    smooth_iteration_bound,
    theta_bar,
    verify_lemma_decrease,
    verify_sigma_prime_inequality,
)


def test_theta_bar_examples():
    assert theta_bar(0.5, 0.5) == 0.75
    assert theta_bar(0.0, 0.37) == 0.37
    assert theta_bar(0.37, 0.0) == 0.37
    with pytest.raises(ValueError):
        theta_bar(1.0, 0.0)
    with pytest.raises(ValueError):
        theta_bar(0.0, 1.0)


def test_theta_bar_monotone():
    grid = np.linspace(0.0, 0.99, 12)
    for p in grid:
        vals = [theta_bar(p, t) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(v < 1.0 for v in vals)
    for t in grid:
        vals = [theta_bar(p, t) for p in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_convergence_constant_s():
    assert convergence_constant_s(1.0, 1.0, 1.0) == 0.5
    assert convergence_constant_s(1.0, 4.0, 4.0 / 3.0) == pytest.approx(3.0 / 19.0)
    assert convergence_constant_s(1.0, 1.0, 1e-12) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        convergence_constant_s(0.0, 1.0, 1.0)


def test_smooth_iteration_bound():
    assert smooth_iteration_bound(100, 1e-3, 0.1, 0.5) == 231
    assert smooth_iteration_bound(100, 100, 0.1, 0.5) == 0
    h1 = smooth_iteration_bound(100, 1e-3, 0.1, 0.5)
    h2 = smooth_iteration_bound(100, 1e-3, 0.1, 0.75)
    raw = math.log(100 / 1e-3) / (0.5 * 0.1)
    assert 2 * raw <= h2 <= 2 * raw + 1
    assert h2 >= 2 * h1 - 2  # halving 1 - theta_bar doubles the bound
    # monotone in the advertised directions
    assert smooth_iteration_bound(100, 1e-4, 0.1, 0.5) >= h1
    assert smooth_iteration_bound(100, 1e-3, 0.05, 0.5) >= h1


def test_lipschitz_iteration_bound_hand_example():
    H, H0, h0 = lipschitz_iteration_bound(2, 1.0, 1.0, 4.0, 1.0, 0.5,
                                          initial_gap_bound=2.0)
    assert (H, H0, h0) == (41, 33, 1)


def test_lipschitz_iteration_bound_clamp_branch():
    # log argument below one clamps h0 to zero
    H, H0, h0 = lipschitz_iteration_bound(2, 1.0, 1.0, 4.0, 1.0, 0.5,
                                          initial_gap_bound=0.1)
    assert h0 == 0
    assert H0 == math.ceil(16.0 * 4.0 / (0.5 * 4.0))
    assert H == H0 + math.ceil(4.0 * max(1.0, 2.0 * 4.0 / 4.0))
    # branch where the quadratic term is below one
    H2, H02, _ = lipschitz_iteration_bound(100, 1.0, 1.0, 1.0, 1.0, 0.5)
    assert H2 == H02 + math.ceil(2.0 / 0.5)


def test_lipschitz_bound_default_gap_is_n():
    a = lipschitz_iteration_bound(10, 0.1, 1.0, 5.0, 1.5, 0.3)
    b = lipschitz_iteration_bound(10, 0.1, 1.0, 5.0, 1.5, 0.3, initial_gap_bound=10.0)
    assert a == b


def test_sigma_t_examples():
    assert sigma_t(np.eye(2), 1.0) == pytest.approx(1.0, rel=1e-9)
    # eigenvalue oracle on the 2x2 Gram matrix: diag(4, 1) -> 4
    X = np.diag([2.0, 1.0])
    assert np.linalg.eigvalsh(X.T @ X)[-1] == pytest.approx(4.0)
    assert sigma_t(X, 1.0) == pytest.approx(4.0, rel=1e-9)
    assert sigma_t(X, 0.5) == pytest.approx(2.0, rel=1e-9)


def test_power_iteration_matches_dense_eigensolve():
    rng = np.random.default_rng(8)
    for _ in range(15):
        d = int(rng.integers(2, 51))
        n = int(rng.integers(2, 51))
        X = rng.standard_normal((d, n))
        dense = float(np.linalg.eigvalsh(X @ X.T)[-1])
        assert largest_sv_squared(X) == pytest.approx(dense, rel=1e-6)


def test_sigma_stats_sum_structure(rng):
    task = make_dataset(rng, m=1, d=4, n_lo=9, n_hi=9).tasks[0]
    ds = FederatedDataset((
        TaskDataset(0, task.features, task.labels),
        TaskDataset(1, task.features, task.labels),
    ))
    mbar = np.eye(2) * 0.8
    stats = sigma_stats(ds, mbar)
    single = sigma_t(task.features, 0.8)
    assert stats.sigma_total == pytest.approx(2 * task.n * single, rel=1e-8)
    assert stats.sigma_max == pytest.approx(single, rel=1e-9)


def test_verify_sigma_prime_passes_for_lemma_value(rng):
    for trial in range(5):
        local = np.random.default_rng(trial)
        ds = make_dataset(local, m=3, d=4, n_lo=5, n_hi=9)
        a = local.standard_normal((3, 3))
        omega = a @ a.T
        omega /= np.trace(omega)
        model = ProbabilisticPrior(lam=0.7)
        rel = build_relationship(model, omega)
        res = verify_sigma_prime_inequality(ds, rel.mbar, rel.kappa, 1.0, 2000,
                                            seed=trial)
        assert res.passed
        assert res.worst_ratio <= 1.0 + 1e-9


def test_verify_sigma_prime_single_task_boundary(rng):
    ds = make_dataset(rng, m=1, d=4, n_lo=8, n_hi=8)
    mbar = np.array([[0.9]])
    for gamma in (0.3, 1.0):
        assert sigma_prime(mbar, gamma) == pytest.approx(gamma)
        res = verify_sigma_prime_inequality(ds, mbar, gamma * np.diag(mbar), gamma, 500)
        assert res.passed
        assert res.worst_ratio == pytest.approx(1.0, abs=1e-9)


def crafted_aligned_instance():
    """Two tasks carrying the same single direction; their shared component
    makes the coupling term maximal."""
    X = np.eye(2)
    y = np.array([1.0, -1.0])
    ds = FederatedDataset((TaskDataset(0, X, y), TaskDataset(1, X, y)))
    mbar = np.array([[0.75, 0.25], [0.25, 0.75]])
    u = np.array([1.0, 2.0])
    alpha = np.concatenate([u, u])  # X_t alpha_t identical across tasks
    return ds, mbar, alpha


def test_verify_sigma_prime_crafted_failure():
    ds, mbar, alpha = crafted_aligned_instance()
    kappa = sigma_prime(mbar) * np.diag(mbar)
    ok = verify_sigma_prime_inequality(ds, mbar, kappa, 1.0, 100, extra_alphas=alpha)
    assert ok.passed
    bad = verify_sigma_prime_inequality(ds, mbar, kappa / 4.0, 1.0, 100,
                                        extra_alphas=alpha)
    assert not bad.passed
    # the aligned vector is the violating one
    lhs, rhs = sigma_prime_sides(ds, mbar, kappa / 4.0, 1.0, alpha)
    assert lhs[0] < rhs[0]


def test_verify_sigma_prime_takes_per_task_kappa_on_a_learned_omega():
    ds = make_dataset(np.random.default_rng(5), m=4, d=3, n_lo=5, n_hi=9)
    model = ProbabilisticPrior(lam=0.5)
    omega = run_mocha(ds, model, SolverConfig(inner_rounds=5, outer_rounds=2, seed=5),
                      ConstantPolicy(5), LossKind.SQUARED).omega
    assert not np.array_equal(omega, initial_omega(model, ds.m))
    for gamma in (1.0, 0.6):
        rel = build_relationship(model, omega, gamma, "per_task")
        # The modes differ on this coupling, so the global check does not cover it.
        assert not np.allclose(rel.kappa, build_relationship(model, omega, gamma).kappa)
        res = verify_sigma_prime_inequality(ds, rel.mbar, rel.kappa, gamma, 2000, seed=5)
        assert res.passed
        assert res.worst_ratio <= 1.0 + 1e-9


@pytest.mark.parametrize("mode", ["global", "per_task"])
@pytest.mark.parametrize("gamma", [1.0, 0.7])
def test_verify_sigma_prime_fails_just_below_kappa_where_the_bound_is_tight(mode, gamma):
    # Every entry of a mean-regularized Mbar is positive and its rows are
    # alike, so the two sides meet when every X_t alpha_t is the same u.
    X = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
    y = np.array([1.0, -1.0, 1.0])
    ds = FederatedDataset(tuple(TaskDataset(t, X, y) for t in range(3)))
    model = MeanRegularized(1.0, 0.5)
    rel = build_relationship(model, initial_omega(model, ds.m), gamma, mode)
    assert (rel.mbar > 0.0).all()
    alpha = np.tile([0.5, -1.0, 0.25], ds.m)
    ok = verify_sigma_prime_inequality(ds, rel.mbar, rel.kappa, gamma, 200, extra_alphas=alpha)
    assert ok.passed
    assert ok.worst_ratio == pytest.approx(1.0, abs=1e-12)
    bad = verify_sigma_prime_inequality(ds, rel.mbar, 0.99 * rel.kappa, gamma, 200,
                                        extra_alphas=alpha)
    assert not bad.passed
    with pytest.raises(ValueError, match="kappa"):
        sigma_prime_sides(ds, rel.mbar, rel.kappa[:-1], gamma, alpha)


def test_verify_lemma_decrease_passes_and_detects_corruption(rng):
    ds = make_dataset(rng, m=3, d=4, n_lo=6, n_hi=9)
    model = MeanRegularized(1.0, 1.0)
    rel = build_relationship(model, initial_omega(model, ds.m))
    state = init_dual_state(ds)
    trace = run_w_update(ds, LossKind.HINGE, rel, state, ConstantPolicy(10),
                         rounds=12, seed=2)
    assert verify_lemma_decrease(trace, 1.0).passed

    # corrupt the subproblem coefficient on a coupling-heavy crafted dataset
    X = np.array([[1.0, 1.0]])
    y = np.array([1.0, 1.0])
    ds2 = FederatedDataset((TaskDataset(0, X, y), TaskDataset(1, X, y)))
    model2 = MeanRegularized(1.0, 1.0)
    good = build_relationship(model2, initial_omega(model2, 2))
    bad = dataclasses.replace(good, kappa=good.kappa / 4.0)
    state2 = init_dual_state(ds2)
    trace2 = run_w_update(ds2, LossKind.HINGE, bad, state2,
                          ConstantPolicy(4), rounds=3, seed=0)
    assert not verify_lemma_decrease(trace2, 1.0).passed

    state3 = init_dual_state(ds2)
    trace3 = run_w_update(ds2, LossKind.HINGE, good, state3,
                          ConstantPolicy(4), rounds=3, seed=0)
    assert verify_lemma_decrease(trace3, 1.0).passed


def test_verify_lemma_decrease_holds_for_cocoa_and_mb_sdca():
    # Both baselines run on the shared round engine, which records the
    # decrease-check fields for them.
    for seed in range(5):
        ds = make_dataset(np.random.default_rng(seed), m=3, d=4, n_lo=6, n_hi=9)
        model = MeanRegularized(1.0, 1.0)
        rel = build_relationship(model, initial_omega(model, ds.m))
        for kind in (LossKind.HINGE, LossKind.SQUARED):
            runs = [
                cocoa_run(ds, kind, rel, 0.1, 8, seed=seed),
                mb_sdca_run(ds, kind, rel, 5, 1.0, 8, seed=seed),
            ]
            for run in runs:
                assert verify_lemma_decrease(run.trace, 1.0).passed


def test_verify_lemma_decrease_requires_fields():
    from fedmtl.solver import RoundStats
    stats = RoundStats(h=0, dual=1.0, primal=2.0, gap=3.0, dropped=[],
                       update_counts=[1], dual_before=1.5, subproblem_decrease=0.5)
    assert verify_lemma_decrease([stats], 1.0).worst_margin == 0.0
    for missing in ("dual_before", "subproblem_decrease"):
        with pytest.raises(ValueError):
            verify_lemma_decrease([dataclasses.replace(stats, **{missing: None})], 1.0)
