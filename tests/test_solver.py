import csv
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import block, make_dataset, random_view, recompute_v

from fedmtl import solver
from fedmtl.data import FederatedDataset, SyntheticSpec, TaskDataset, generate_synthetic
from fedmtl.losses import DualInfeasibleError, LossKind, hinge_box_violation
from fedmtl.regularizers import (
    MeanRegularized,
    ProbabilisticPrior,
    build_relationship,
    initial_omega,
    primal_from_dual,
    regularizer_value,
    update_omega,
)
from fedmtl.solver import (
    ConstantPolicy,
    FixedQualitySolver,
    MiniBatchSolver,
    RoundView,
    SolverConfig,
    dual_objective,
    duality_gap,
    federated_round,
    init_dual_state,
    make_views,
    measure_theta,
    oracle_subproblem_opt,
    primal_objective,
    run_mocha,
    run_w_update,
    solve_local,
    write_trace_csv,
    write_trace_jsonl,
    _COCOA_ORACLE_TOL,
    _step_function,
    _view_value,
)
from fedmtl.theory import verify_lemma_decrease

HINGE = LossKind.HINGE
SQUARED = LossKind.SQUARED


def mean_reg_setup(ds, lambda1=1.0, lambda2=1.0, gamma=1.0, mode="global"):
    model = MeanRegularized(lambda1, lambda2)
    return build_relationship(model, initial_omega(model, ds.m), gamma, mode)


class DropPolicy:
    def __init__(self, budget, dropped_ids=()):
        self._budget = budget
        self._dropped = set(dropped_ids)

    def draws(self, m, round_idx):
        return [self._budget] * m, [t in self._dropped for t in range(m)]


# ---------------------------------------------------------------------------
# Objectives


def test_dual_objective_zero_and_hand_value():
    x = np.array([[1.0], [0.0]])
    ds = FederatedDataset((TaskDataset(0, x, np.array([1.0])),))
    rel = mean_reg_setup(ds, lambda1=0.0, lambda2=1.0)
    state = init_dual_state(ds)
    assert dual_objective(state, ds, HINGE, rel) == 0.0
    block(state, ds, 0)[0] = 1.0
    state.v = recompute_v(state, ds)
    # conjugate term -1 plus quadratic term 1/4
    assert dual_objective(state, ds, HINGE, rel) == pytest.approx(-0.75, abs=1e-15)


def test_weak_duality_on_random_feasible_duals(rng):
    ds = make_dataset(rng, m=3, d=5, n_lo=6, n_hi=10)
    rel = mean_reg_setup(ds)
    for _ in range(50):
        state = init_dual_state(ds)
        for t, task in enumerate(ds.tasks):
            block(state, ds, t)[:] = task.labels * rng.uniform(0, 1, size=task.n)
        state.v = recompute_v(state, ds)
        assert duality_gap(state, ds, HINGE, rel) >= -1e-8


def test_dual_state_blocks_are_views_of_the_packed_alpha(rng):
    ds = make_dataset(rng, m=3, d=4, n_lo=5, n_hi=8)
    rel = mean_reg_setup(ds)
    state = init_dual_state(ds)
    block(state, ds, 1)[:] = 0.5 * ds.tasks[1].labels
    state.v = recompute_v(state, ds)
    assert state.packed[ds.offsets[1]:ds.offsets[2]].tolist() == \
        (0.5 * ds.tasks[1].labels).tolist()
    expected = -0.5 * ds.tasks[1].n + 0.25 * float(np.sum(rel.mbar * (state.v.T @ state.v)))
    assert dual_objective(state, ds, HINGE, rel) == pytest.approx(expected, rel=1e-12)


def test_primal_objective_frozen_values(rng):
    ds = make_dataset(rng, m=3, d=4, n_lo=5, n_hi=9)
    rel = mean_reg_setup(ds)
    W0 = np.zeros((ds.d, ds.m))
    assert primal_objective(W0, ds, HINGE, rel) == ds.n
    assert primal_objective(W0, ds, SQUARED, rel) == ds.n / 2


def test_primal_objective_order_independence(rng):
    ds = make_dataset(rng, m=3, d=4, n_lo=5, n_hi=9)
    rel = mean_reg_setup(ds, 0.8, 1.2)
    W = rng.standard_normal((ds.d, ds.m))
    got = primal_objective(W, ds, HINGE, rel)
    # independent re-implementation, iterating tasks and examples in reverse
    total = regularizer_value(W, rel.precision)
    for t in reversed(range(ds.m)):
        task = ds.tasks[t]
        for i in reversed(range(task.n)):
            total += max(0.0, 1.0 - task.labels[i] * float(W[:, t] @ task.features[:, i]))
    assert got == pytest.approx(total, abs=1e-9 * max(1.0, abs(total)))


def test_duality_gap_at_zero_equals_n(rng):
    ds = make_dataset(rng, m=2, d=4, n_lo=6, n_hi=8)
    rel = mean_reg_setup(ds)
    state = init_dual_state(ds)
    assert duality_gap(state, ds, HINGE, rel) == pytest.approx(ds.n)


# ---------------------------------------------------------------------------
# Local subproblem pieces


def test_local_subproblem_value_zero_delta(rng):
    view = random_view(rng, HINGE, d=4, n=6)
    val = _view_value(view, 0, np.zeros(6))
    assert val == pytest.approx(-float(view.alpha @ view.ds.labels))


def test_local_subproblem_value_term_by_term(rng):
    view = random_view(rng, SQUARED, d=3, n=3)
    delta = 0.3 * rng.standard_normal(3)
    got = _view_value(view, 0, delta)
    # assemble every term separately
    expected = 0.0
    u = np.zeros(3)
    for i in range(3):
        a = view.alpha[i] + delta[i]
        expected += 0.5 * a * a - a * view.ds.labels[i]
        u += delta[i] * view.ds.tasks[0].features[:, i]
    expected += float(view.W[:, 0] @ u) + 0.5 * view.kappa[0] * float(u @ u)
    assert got == pytest.approx(expected, abs=1e-10)


def test_local_subproblem_value_infeasible_marker(rng):
    view = random_view(rng, HINGE, d=3, n=4)
    delta = 5.0 * view.ds.labels  # pushes y*(alpha+delta) far above 1
    with pytest.raises(DualInfeasibleError):
        _view_value(view, 0, delta)


def test_local_value_decreases_after_coordinate_step(rng):
    for kind in (HINGE, SQUARED):
        view = random_view(rng, kind, d=4, n=7)
        before = _view_value(view, 0, np.zeros(7))
        i = 2
        score = float(view.W[:, 0] @ view.ds.tasks[0].features[:, i])
        step = _step_function(kind)(view.alpha[i], view.ds.labels[i], score,
                                    view.ds.col_norms2[i], view.kappa[0])
        delta = np.zeros(7)
        delta[i] = step
        after = _view_value(view, 0, delta)
        assert after <= before + 1e-12


def test_solve_local_budget_zero(rng):
    view = random_view(rng, HINGE, d=4, n=6)
    res = solve_local(view, [0], [False], 0, 0)
    assert np.all(res.delta == 0.0) and np.all(res.delta_v == 0.0)
    assert res.update_count == 0


def test_solve_local_deterministic(rng):
    view = random_view(rng, HINGE, d=4, n=9)
    a = solve_local(view, [40], [False], 5, 0)
    b = solve_local(view, [40], [False], 5, 0)
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.delta_v, b.delta_v)


def test_rng_stream_prefix_property():
    # budget draws must be prefix-consistent so larger budgets extend smaller
    # ones; the monotone quality guarantees rely on it
    r1 = solver.stream(3, solver.SOLVER_STREAM, 0, 0)
    full = r1.integers(0, 10, size=50)
    r2 = solver.stream(3, solver.SOLVER_STREAM, 0, 0)
    head = r2.integers(0, 10, size=20)
    tail = r2.integers(0, 10, size=30)
    assert np.array_equal(full[:20], head)
    assert np.array_equal(full[20:], tail)


def test_solve_local_reaches_oracle_value(rng):
    for kind in (HINGE, SQUARED):
        view = random_view(rng, kind, d=3, n=5)
        res = solve_local(view, [10_000 * 5], [False], 2, 0)
        val = _view_value(view, 0, res.delta)
        star, _ = oracle_subproblem_opt(view, [0])
        val_star = _view_value(view, 0, star)
        assert val <= val_star + 1e-10 * max(1.0, abs(val_star))


def test_oracle_already_optimal(rng):
    view = random_view(rng, SQUARED, d=4, n=6)
    star, _ = oracle_subproblem_opt(view, [0])
    assert measure_theta(view, 0, star, star) == 0.0
    # shifting the dual block to the optimum (and the weight snapshot with it,
    # w' = w + kappa * X @ star) makes zero the exact minimizer
    X = view.ds.tasks[0].features
    shifted = RoundView(view.ds, view.kind, view.alpha + star,
                        view.W + view.kappa * (X @ star)[:, None], view.kappa)
    shifted_star, _ = oracle_subproblem_opt(shifted, [0])
    assert np.linalg.norm(shifted_star) <= 1e-6


def test_oracle_beats_random_perturbations(rng):
    view = random_view(rng, HINGE, d=4, n=6)
    star, values = oracle_subproblem_opt(view, [0])
    best = _view_value(view, 0, star)
    # The returned value takes u from the kernel, not numpy's X @ star.
    assert values[0] == pytest.approx(best, rel=0.0, abs=1e-12 * max(1.0, abs(best)))
    for _ in range(1000):
        b = rng.uniform(0, 1, size=6)
        probe = view.ds.labels * b - view.alpha
        assert best <= _view_value(view, 0, probe) + 1e-10


def test_measure_theta_semantics(rng):
    view = random_view(rng, HINGE, d=4, n=8)
    star, _ = oracle_subproblem_opt(view, [0])
    assert measure_theta(view, 0, np.zeros(8), star) == 1.0
    assert measure_theta(view, 0, star, star) == 0.0


def test_cocoa_theta_matches_measure_theta(rng):
    for kind in (HINGE, SQUARED):
        for target in (0.0, 0.1, 0.5):
            view = random_view(rng, kind, d=4, n=9)
            solver = FixedQualitySolver(target)
            res = solver(view, [0], [False], 3, 0)
            oracle, _ = oracle_subproblem_opt(view, [0], _COCOA_ORACLE_TOL)
            (theta,) = res.theta
            assert theta == pytest.approx(
                measure_theta(view, 0, res.delta, oracle), rel=0.0, abs=1e-9)
            assert theta <= target or res.update_count == solver.max_passes * 9


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(list(LossKind)),
    d=st.integers(1, 13),
    sizes=st.lists(st.integers(1, 12), min_size=2, max_size=5),
    target=st.sampled_from([0.0, 0.1, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lockstep_nodes_match_their_solo_rounds(kind, d, sizes, target, seed):
    """In MOCHA's, CoCoA's and mini-batch SDCA's rounds, a node's delta block,
    delta_v column, count and theta are exactly those of the same round with
    every other node dropped."""
    rng = np.random.default_rng(seed)
    ds = FederatedDataset(tuple(
        TaskDataset(t, rng.standard_normal((d, n)), rng.choice([-1.0, 1.0], size=n))
        for t, n in enumerate(sizes)))
    alpha = (ds.labels * rng.uniform(0.0, 1.0, size=ds.n) if kind is HINGE
             else rng.standard_normal(ds.n))
    view = RoundView(ds, kind, alpha, rng.standard_normal((d, ds.m)),
                     rng.uniform(0.5, 2.0, size=ds.m))
    budgets = [int(rng.integers(1, 3 * n + 1)) for n in sizes]
    for local_solver in (solve_local, FixedQualitySolver(target),
                         MiniBatchSolver(1.0 + 2.0 * target)):
        together = local_solver(view, budgets, [False] * ds.m, seed, 0)
        for t in range(ds.m):
            drops = [s != t for s in range(ds.m)]
            solo = local_solver(view, budgets, drops, seed, 0)
            block = slice(ds.offsets[t], ds.offsets[t + 1])
            assert np.array_equal(together.delta[block], solo.delta[block])
            assert not solo.delta[:ds.offsets[t]].any() and not solo.delta[block.stop:].any()
            assert np.array_equal(together.delta_v[:, t], solo.delta_v[:, t])
            assert together.update_counts[t] == solo.update_counts[t]
            if together.theta is None:
                assert solo.theta is None
            else:
                assert together.theta[t] == solo.theta[t]
                assert solo.theta == [1.0 if drop else solo.theta[t] for drop in drops]


def test_measure_theta_halfway(rng):
    view = random_view(rng, SQUARED, d=4, n=8)
    star, _ = oracle_subproblem_opt(view, [0])
    g0 = _view_value(view, 0, np.zeros(8))
    gs = _view_value(view, 0, star)
    target = 0.5 * (g0 + gs)
    lo, hi = 0.0, 1.0
    for _ in range(80):  # objective decreases along t * star on [0, 1]
        mid = 0.5 * (lo + hi)
        if _view_value(view, 0, mid * star) > target:
            lo = mid
        else:
            hi = mid
    theta = measure_theta(view, 0, 0.5 * (lo + hi) * star, star)
    assert theta == pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# Rounds


def test_round_all_dropped_leaves_state(rng):
    ds = make_dataset(rng, m=3, d=4, n_lo=5, n_hi=8)
    rel = mean_reg_setup(ds)
    state = init_dual_state(ds)
    block(state, ds, 0)[:] = ds.tasks[0].labels * 0.5
    state.v = recompute_v(state, ds)
    before_alpha = state.packed.copy()
    before_v = state.v.copy()
    stats = federated_round(ds, HINGE, rel, state,
                            budgets=[10] * 3, drops=[True] * 3)
    assert np.array_equal(state.packed, before_alpha)
    assert np.array_equal(state.v, before_v)
    assert stats.dropped == [0, 1, 2]
    assert stats.update_counts == [0, 0, 0]
    # decrease inequality holds with equality on a no-op round
    assert verify_lemma_decrease([stats], 1.0).passed


def test_single_task_exact_solve_decreases_gap(rng):
    ds = make_dataset(rng, m=1, d=5, n_lo=10, n_hi=10)
    rel = mean_reg_setup(ds, 0.0, 1.0)
    state = init_dual_state(ds)
    gap_before = duality_gap(state, ds, HINGE, rel)
    for h in range(5):
        stats = federated_round(ds, HINGE, rel, state,
                                budgets=[5000], drops=[False], round_idx=h)
        assert stats.gap <= gap_before + 1e-9
        gap_before = stats.gap


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(list(LossKind)),
    learned=st.booleans(),
    d=st.integers(1, 8),
    nodes=st.lists(st.tuples(st.integers(1, 12), st.integers(0, 30), st.booleans()),
                   min_size=1, max_size=5),
    gamma=st.sampled_from([1.0, 0.6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_records_its_subproblem_decrease(kind, learned, d, nodes, gamma, seed):
    """A MOCHA or CoCoA round's subproblem_decrease is sum_t [G_t(0) -
    G_t(delta_t)] over the deltas its local solver returned, and is not
    negative beyond rounding, with dropped nodes and zero budgets."""
    rng = np.random.default_rng(seed)
    sizes, budgets, drops = (list(c) for c in zip(*nodes))
    ds = FederatedDataset(tuple(
        TaskDataset(t, rng.standard_normal((d, n)), rng.choice([-1.0, 1.0], size=n))
        for t, n in enumerate(sizes)))
    if learned:
        model = ProbabilisticPrior(lam=0.5)
        omega = update_omega(model, rng.standard_normal((d, ds.m)), initial_omega(model, ds.m))
        rel = build_relationship(model, omega, gamma)
    else:
        rel = mean_reg_setup(ds, gamma=gamma)
    start = init_dual_state(ds)
    start.packed[:] = (ds.labels * rng.uniform(0.0, 1.0, size=ds.n) if kind is HINGE
                       else rng.standard_normal(ds.n))
    start.v = recompute_v(start, ds)
    for base in (solve_local, FixedQualitySolver(0.1)):
        seen = []

        def capture(view, *args):
            # Valued here: the view's alpha is the state, which the round updates.
            result = base(view, *args)
            seen.append((result, [_view_value(view, t, np.zeros(task.n))
                                  for t, task in enumerate(ds.tasks)],
                         [_view_value(view, t, result.delta[ds.offsets[t]:ds.offsets[t + 1]])
                          for t in range(ds.m)]))
            return result

        state = init_dual_state(ds)
        state.packed[:], state.v = start.packed, start.v.copy()
        stats = federated_round(ds, kind, rel, state, budgets, drops, round_idx=3,
                                seed=seed, local_solver=capture)
        ((result, zero, at_delta),) = seen
        expected = sum(g0 - g for g0, g in zip(zero, at_delta))
        assert stats.subproblem_decrease >= -1e-12 * max(1.0, abs(stats.dual_before))
        # The field takes u_t from the kernel and _view_value takes X_t delta_t
        # from numpy, so they agree to rounding in the terms that are summed.
        scale = 1.0 + sum(abs(g) for g in zero + at_delta)
        assert stats.subproblem_decrease == pytest.approx(expected, rel=0.0, abs=1e-12 * scale)
        if not any(result.update_counts):
            assert stats.subproblem_decrease == 0.0


def test_lemma_decrease_on_seeded_runs(rng):
    for gamma in (0.5, 1.0):
        for kind in (HINGE, SQUARED):
            ds = make_dataset(rng, m=3, d=4, n_lo=6, n_hi=9)
            rel = mean_reg_setup(ds, gamma=gamma)
            state = init_dual_state(ds)
            trace = run_w_update(ds, kind, rel, state, ConstantPolicy(8),
                                 rounds=15, seed=4)
            assert verify_lemma_decrease(trace, gamma).passed


def test_dual_before_reuses_the_previous_dual(monkeypatch):
    ds = generate_synthetic(SyntheticSpec(m=5, d=3, n_min=10, n_max=20, cluster_count=2,
                                          deviation=0.3, noise=0.05, seed=4))
    config = SolverConfig(inner_rounds=4, outer_rounds=3, seed=4)
    fresh = []
    original = solver.federated_round

    def recording(ds, kind, rel, state, *args, **kwargs):
        fresh.append(dual_objective(state, ds, kind, rel))
        return original(ds, kind, rel, state, *args, **kwargs)

    monkeypatch.setattr(solver, "federated_round", recording)
    trace = run_mocha(ds, ProbabilisticPrior(lam=0.5), config,
                      DropPolicy(budget=12, dropped_ids={1}), SQUARED).trace
    assert len(trace) == 12
    assert [stats.dual_before for stats in trace] == fresh
    for k in range(1, len(trace)):
        if k % config.inner_rounds:
            assert trace[k].dual_before == trace[k - 1].dual
        else:
            # The learned coupling changed, so the dual is evaluated again.
            assert trace[k].dual_before != trace[k - 1].dual
    assert verify_lemma_decrease(trace, config.gamma).passed


def test_hinge_feasibility_and_v_consistency_after_rounds(rng):
    ds = make_dataset(rng, m=4, d=5, n_lo=6, n_hi=12)
    rel = mean_reg_setup(ds, gamma=0.5)
    state = init_dual_state(ds)
    run_w_update(ds, HINGE, rel, state, ConstantPolicy(9),
                 rounds=25, seed=8)
    for t, task in enumerate(ds.tasks):
        assert hinge_box_violation(block(state, ds, t), task.labels) <= 1e-12
    fresh = recompute_v(state, ds)
    assert np.linalg.norm(state.v - fresh) <= 1e-8 * (1.0 + np.linalg.norm(fresh))


def test_run_w_update_gap_tolerance_contract(rng):
    ds = make_dataset(rng, m=2, d=4, n_lo=8, n_hi=10)
    rel = mean_reg_setup(ds)
    state = init_dual_state(ds)
    trace = run_w_update(ds, SQUARED, rel, state, ConstantPolicy(200),
                         rounds=500, gap_tol=1e-6, seed=1)
    assert trace[-1].gap <= 1e-6
    assert len(trace) < 500


def test_run_w_update_geometric_decay_squared(rng):
    ds = make_dataset(rng, m=3, d=5, n_lo=10, n_hi=14)
    rel = mean_reg_setup(ds)
    state = init_dual_state(ds)
    trace = run_w_update(ds, SQUARED, rel, state, ConstantPolicy(50),
                         rounds=40, seed=2)
    gaps = np.array([s.gap for s in trace])
    mask = gaps > 1e-12
    slope = np.polyfit(np.arange(len(gaps))[mask], np.log(gaps[mask]), 1)[0]
    assert slope < 0.0


def test_gap_trend_hinge_monitored(rng):
    ds = make_dataset(rng, m=3, d=4, n_lo=8, n_hi=10)
    rel = mean_reg_setup(ds)
    state = init_dual_state(ds)
    trace = run_w_update(ds, HINGE, rel, state, ConstantPolicy(20),
                         rounds=30, seed=5)
    assert trace[-1].gap < trace[0].gap


def test_permanent_drop_plateaus(rng):
    ds = make_dataset(rng, m=3, d=4, n_lo=10, n_hi=12)
    rel = mean_reg_setup(ds)
    state = init_dual_state(ds)
    trace = run_w_update(ds, HINGE, rel, state,
                         DropPolicy(budget=50, dropped_ids={0}),
                         rounds=200, gap_tol=1e-6, seed=3)
    assert trace[-1].gap > 1e-6
    assert len(trace) == 200


def test_rounds_start_no_threads(rng, monkeypatch):
    # Rounds run on the calling thread; SolverConfig.workers has no effect.
    ds = make_dataset(rng, m=4, d=5, n_lo=8, n_hi=12)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: (started.append(thread.name), start(thread))[1])
    run_mocha(ds, ProbabilisticPrior(lam=0.5),
              SolverConfig(inner_rounds=3, outer_rounds=2, seed=6, workers=2),
              ConstantPolicy(15), HINGE)
    assert started == []


def test_run_mocha_fixed_coupling_equals_long_w_update(rng):
    ds = make_dataset(rng, m=3, d=4, n_lo=6, n_hi=10)
    model = MeanRegularized(1.0, 1.0)
    policy = ConstantPolicy(12)
    split = run_mocha(ds, model, SolverConfig(inner_rounds=10, outer_rounds=3, seed=9),
                      policy, HINGE)
    merged = run_mocha(ds, model, SolverConfig(inner_rounds=30, outer_rounds=1, seed=9),
                       policy, HINGE)
    assert len(split.trace) == len(merged.trace) == 30
    for a, b in zip(split.trace, merged.trace):
        assert a.dual == b.dual and a.gap == b.gap
    assert np.array_equal(split.primal.W, merged.primal.W)
    assert np.array_equal(split.omega, merged.omega)


def test_run_mocha_zero_outer_rounds(rng):
    ds = make_dataset(rng, m=2, d=3, n_lo=5, n_hi=6)
    model = MeanRegularized(1.0, 1.0)
    res = run_mocha(ds, model, SolverConfig(inner_rounds=10, outer_rounds=0, seed=0),
                    ConstantPolicy(5), HINGE)
    assert np.all(res.primal.W == 0.0)
    assert res.trace == []


def test_run_mocha_learns_cluster_structure():
    spec = SyntheticSpec(m=6, d=10, n_min=40, n_max=40, cluster_count=2,
                         deviation=0.05, noise=0.0, seed=21)
    ds = generate_synthetic(spec)
    model = ProbabilisticPrior(lam=0.05)
    config = SolverConfig(inner_rounds=40, outer_rounds=4, seed=21)
    res = run_mocha(ds, model, config, ConstantPolicy([t.n for t in ds.tasks]), HINGE)
    omega = res.omega
    same, cross = [], []
    for a in range(6):
        for b in range(a + 1, 6):
            (same if a % 2 == b % 2 else cross).append(omega[a, b])
    assert np.mean(same) > np.mean(cross)


def test_per_task_sigma_mode_runs_and_decreases(rng):
    ds = make_dataset(rng, m=3, d=4, n_lo=8, n_hi=10)
    # A learned coupling: its M-bar rows differ in row-sum to diagonal ratio,
    # so the two modes give different kappas (mean_reg_omega's rows do not).
    model = ProbabilisticPrior(lam=0.5)
    omega = update_omega(model, rng.standard_normal((ds.d, ds.m)), initial_omega(model, ds.m))
    rel = build_relationship(model, omega, 1.0, "per_task")
    assert not np.allclose(rel.kappa, build_relationship(model, omega, 1.0, "global").kappa)
    state = init_dual_state(ds)
    trace = run_w_update(ds, HINGE, rel, state, ConstantPolicy(20),
                         rounds=20, seed=7)
    assert trace[-1].gap < trace[0].gap
    assert verify_lemma_decrease(trace, 1.0).passed


# ---------------------------------------------------------------------------
# Single-machine reduction


def reference_sdca_svm(X, y, lam, gap_tol=1e-8, max_epochs=100000, seed=0):
    """Plain dual coordinate ascent for hinge loss + lam * ||w||^2, written
    against the problem definition only (no solver machinery)."""
    d, n = X.shape
    alpha = np.zeros(n)
    v = np.zeros(d)
    norms2 = np.einsum("ij,ij->j", X, X)
    rng = np.random.default_rng(seed)
    for _ in range(max_epochs):
        for i in rng.integers(0, n, size=n):
            x = X[:, i]
            w = v / (2.0 * lam)
            b = y[i] * alpha[i]
            b_new = min(1.0, max(0.0, b + 2.0 * lam * (1.0 - y[i] * float(w @ x)) / norms2[i]))
            step = y[i] * b_new - alpha[i]
            alpha[i] += step
            v += step * x
        w = v / (2.0 * lam)
        primal = float(np.maximum(0.0, 1.0 - y * (w @ X)).sum() + lam * w @ w)
        dual = float(-(alpha @ y) + (v @ v) / (4.0 * lam))
        if primal + dual <= gap_tol:
            return w, primal + dual
    raise AssertionError("reference solver did not converge")


def test_single_machine_reduction(rng):
    X = rng.standard_normal((6, 60))
    w_true = rng.standard_normal(6)
    y = np.where(w_true @ X > 0, 1.0, -1.0)
    ds = FederatedDataset((TaskDataset(0, X, y),))
    lam = 0.3
    w_ref, _ = reference_sdca_svm(X, y, lam)

    model = MeanRegularized(0.0, lam)
    rel = build_relationship(model, initial_omega(model, 1))
    state = init_dual_state(ds)
    run_w_update(ds, HINGE, rel, state, ConstantPolicy(60),
                 rounds=20000, gap_tol=1e-8, seed=1)
    w_got = primal_from_dual(state.v, rel.mbar)[:, 0]
    assert np.linalg.norm(w_got - w_ref) / np.linalg.norm(w_ref) <= 1e-4


# ---------------------------------------------------------------------------
# Trace output


def test_trace_writers(tmp_path, rng):
    ds = make_dataset(rng, m=2, d=3, n_lo=5, n_hi=6)
    rel = mean_reg_setup(ds)
    cocoa = run_w_update(ds, HINGE, rel, init_dual_state(ds), ConstantPolicy(0),
                         rounds=4, seed=0, local_solver=FixedQualitySolver(0.5))
    mocha = run_w_update(ds, HINGE, rel, init_dual_state(ds), ConstantPolicy(5),
                         rounds=4, seed=0)
    for trace, has_theta in ((cocoa, True), (mocha, False)):
        jsonl = tmp_path / "trace.jsonl"
        write_trace_jsonl(jsonl, trace)
        rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert len(rows) == 4
        assert set(rows[0]) == {"h", "elapsed_ms_estimated", "dual", "primal", "gap",
                                "dropped", "theta"}
        for row in rows:
            if has_theta:
                assert len(row["theta"]) == ds.m
                assert all(0.0 <= x <= 1.0 for x in row["theta"])
            else:
                assert row["theta"] is None

        csv_path = tmp_path / "trace.csv"
        write_trace_csv(csv_path, trace)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "h,elapsed_ms_estimated,dual,primal,gap,dropped,theta"
        assert len(lines) == 5
        # Each cell is the JSON value: None empty, a list semicolon-joined.
        for row, cells in zip(rows, list(csv.reader(lines))[1:]):
            assert cells[0] == str(row["h"]) and cells[1] == ""
            assert cells[2:5] == [repr(row[k]) for k in ("dual", "primal", "gap")]
            assert cells[5] == ""
            assert cells[6] == ("" if row["theta"] is None
                                else ";".join(repr(x) for x in row["theta"]))


def test_import_loads_neither_subprocess_nor_thread_pools():
    # Every command pays for importing fedmtl: only a kernel build imports
    # subprocess, and rounds run without a thread pool.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, fedmtl, fedmtl.cli; "
            "print(sorted({'subprocess', 'concurrent.futures'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
