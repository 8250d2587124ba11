import numpy as np
import pytest

from tests.conftest import make_dataset

from fedmtl.baselines import (
    DEFAULT_LAMBDA_GRID,
    cocoa_run,
    compare_models,
    global_trainer,
    local_trainer,
    mb_sdca_run,
    mb_sgd_run,
    mocha_trainer,
    model_select,
    train_global,
    train_local,
)
from fedmtl.data import FederatedDataset, SyntheticSpec, TaskDataset, generate_synthetic, prediction_error
from fedmtl.losses import LossKind, hinge_box_violation
from fedmtl.regularizers import (
    MeanRegularized,
    ProbabilisticPrior,
    build_relationship,
    initial_omega,
)
from fedmtl.solver import (
    ConstantPolicy,
    PrimalState,
    SolverConfig,
    init_dual_state,
    run_w_update,
)

HINGE = LossKind.HINGE
SQUARED = LossKind.SQUARED


def setup(ds, lambda1=1.0, lambda2=1.0):
    model = MeanRegularized(lambda1, lambda2)
    return build_relationship(model, initial_omega(model, ds.m))


def test_cocoa_near_exact_matches_oracle_round(rng):
    ds = make_dataset(rng, m=3, d=4, n_lo=6, n_hi=8)
    rel = setup(ds)
    run = cocoa_run(ds, HINGE, rel, 1e-6, 1, seed=2, max_passes=2000)
    # near-exact block solves do at least as well as huge fixed budgets
    state = init_dual_state(ds)
    trace = run_w_update(ds, HINGE, rel, state, ConstantPolicy(4000),
                         rounds=1, seed=2)
    assert run.trace[0].gap <= trace[0].gap + 1e-6


def test_cocoa_straggler_signature():
    # skewed task sizes force uneven per-round update counts
    spec = SyntheticSpec(m=3, d=6, n_min=10, n_max=10, seed=3)
    tasks = list(generate_synthetic(spec).tasks)
    big = generate_synthetic(SyntheticSpec(m=1, d=6, n_min=60, n_max=60, seed=4)).tasks[0]
    tasks[2] = TaskDataset(2, big.features, big.labels)
    ds = FederatedDataset(tuple(tasks))
    rel = setup(ds)
    run = cocoa_run(ds, HINGE, rel, 0.1, 5, seed=5)
    ratios = [max(s.update_counts) / max(1, min(s.update_counts)) for s in run.trace]
    assert max(ratios) > 1.0


def test_cocoa_deterministic(rng):
    ds = make_dataset(rng, m=2, d=4, n_lo=6, n_hi=9)
    rel = setup(ds)
    a = cocoa_run(ds, HINGE, rel, 0.2, 4, seed=9)
    b = cocoa_run(ds, HINGE, rel, 0.2, 4, seed=9)
    for x, y in zip(a.trace, b.trace):
        assert x.dual == y.dual and x.update_counts == y.update_counts


def test_cocoa_rejects_bad_theta(rng):
    ds = make_dataset(rng, m=2, d=3, n_lo=4, n_hi=5)
    rel = setup(ds)
    with pytest.raises(ValueError):
        cocoa_run(ds, HINGE, rel, 1.0, 2)


# The rng fixture's seed, and four more.
@pytest.mark.parametrize("data_seed", [1234, 0, 1, 2, 3])
# Every remainder of d modulo the kernel's four dot-product lanes.
@pytest.mark.parametrize("d", range(1, 14))
@pytest.mark.parametrize("kind", [HINGE, SQUARED], ids=["hinge", "squared"])
def test_mb_sdca_batch_one_equals_budget_one_rounds(kind, d, data_seed):
    # One step scaled by beta / b = 1, scored against the snapshot, is MOCHA's
    # first step from a zero delta: the same kernel takes the same products.
    ds = make_dataset(np.random.default_rng(data_seed), m=3, d=d, n_lo=6, n_hi=9)
    rel = setup(ds)
    run = mb_sdca_run(ds, kind, rel, 1, 1.0, 6, seed=11)
    state = init_dual_state(ds)
    trace = run_w_update(ds, kind, rel, state, ConstantPolicy(1),
                         rounds=6, seed=11)
    assert len(run.trace) == len(trace) == 6
    for a, b in zip(run.trace, trace):
        assert a.dual == b.dual
        assert a.primal == b.primal


def test_mb_sdca_scaling_contract(rng):
    ds = make_dataset(rng, m=1, d=3, n_lo=5, n_hi=5)
    rel = setup(ds, 0.0, 1.0)
    beta, batch = 1.0, 4
    run = mb_sdca_run(ds, HINGE, rel, batch, beta, 1, seed=13)
    # recompute the expected update by hand against the frozen snapshot
    task = ds.tasks[0]
    kappa = rel.sigma_prime * rel.mbar[0, 0]
    rng2 = np.random.default_rng([13, 11, 0, 0])
    idx = rng2.integers(0, task.n, size=batch)
    expected = np.zeros(task.n)
    for i in idx:
        x = task.features[:, i]
        b = min(1.0, max(0.0, (1.0 - 0.0) / (kappa * float(x @ x))))
        delta = task.labels[i] * b - 0.0
        expected[i] += (beta / batch) * delta
    # final state is visible through the returned weights
    got_v = run.primal.W[:, 0] * 2.0 / rel.mbar[0, 0]
    assert np.allclose(got_v, task.features @ expected, atol=1e-12)


def test_mb_sdca_beta_one_never_increases_dual(rng):
    for seed in range(5):
        ds = make_dataset(np.random.default_rng(seed), m=2, d=4, n_lo=5, n_hi=8)
        rel = setup(ds)
        run = mb_sdca_run(ds, HINGE, rel, 6, 1.0, 15, seed=seed)
        duals = [s.dual for s in run.trace]
        assert all(b <= a + 1e-10 for a, b in zip(duals, duals[1:]))


def test_mb_sdca_full_beta_can_increase_dual():
    # two identical examples guarantee colliding coordinates hurt at beta=b
    X = np.array([[1.0, 1.0], [0.0, 0.0]])
    y = np.array([1.0, 1.0])
    ds = FederatedDataset((TaskDataset(0, X, y),))
    rel = setup(ds, 0.0, 1.0)
    increased = False
    for seed in range(10):
        run = mb_sdca_run(ds, SQUARED, rel, 6, 6.0, 8, seed=seed)
        duals = [s.dual for s in run.trace]
        if any(b > a + 1e-12 for a, b in zip(duals, duals[1:])):
            increased = True
            break
    assert increased


def test_mb_sdca_preserves_hinge_feasibility(rng):
    ds = make_dataset(rng, m=2, d=4, n_lo=6, n_hi=8)
    rel = setup(ds)
    run = mb_sdca_run(ds, HINGE, rel, 5, 1.0, 20, seed=3)
    assert all(s.dual is not None for s in run.trace)


def test_mb_sgd_full_batch_monotone_squared(rng):
    ds = make_dataset(rng, m=2, d=4, n_lo=10, n_hi=10)
    rel = setup(ds, 0.5, 0.5)
    run = mb_sgd_run(ds, SQUARED, rel, 10, 0.005, 40, seed=1)
    primals = [s.primal for s in run.trace]
    assert all(b <= a + 1e-10 for a, b in zip(primals, primals[1:]))


def test_mb_sgd_zero_step(rng):
    ds = make_dataset(rng, m=2, d=4, n_lo=6, n_hi=8)
    rel = setup(ds)
    run = mb_sgd_run(ds, HINGE, rel, 3, 0.0, 5, seed=1)
    assert np.all(run.primal.W == 0.0)
    assert run.trace[0].primal == ds.n
    # Zero is the smallest step; a negative or non-finite one is rejected.
    for step in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ValueError, match="step"):
            mb_sgd_run(ds, HINGE, rel, 3, step, 3, seed=1)


def test_mb_sgd_schedules_and_determinism(rng):
    ds = make_dataset(rng, m=2, d=4, n_lo=6, n_hi=8)
    rel = setup(ds)
    a = mb_sgd_run(ds, HINGE, rel, 4, 0.05, 10, seed=2, schedule="inv_sqrt")
    b = mb_sgd_run(ds, HINGE, rel, 4, 0.05, 10, seed=2, schedule="inv_sqrt")
    assert np.array_equal(a.primal.W, b.primal.W)
    with pytest.raises(ValueError):
        mb_sgd_run(ds, HINGE, rel, 4, 0.05, 2, schedule="bogus")


def test_mb_sgd_approaches_solver_solution(rng):
    ds = make_dataset(rng, m=2, d=4, n_lo=12, n_hi=12)
    rel = setup(ds, 0.5, 0.5)
    # reference: tightly solved coupled problem
    from fedmtl.solver import run_mocha
    res = run_mocha(ds, MeanRegularized(0.5, 0.5),
                    SolverConfig(inner_rounds=3000, gap_tol=1e-8, seed=0),
                    ConstantPolicy(24), SQUARED)
    p_star = res.trace[-1].primal - res.trace[-1].gap
    p_zero = res.trace[0].primal
    rounds_mocha = len([s for s in res.trace if s.gap > 1e-3])
    best = np.inf
    for step in (0.001, 0.003, 0.01):
        run = mb_sgd_run(ds, SQUARED, rel, 12, step, 60 * rounds_mocha, seed=4)
        best = min(best, run.trace[-1].primal)
    assert (best - p_star) / (p_zero - p_star) <= 0.05


def test_train_local_perfect_on_separable():
    spec = SyntheticSpec(m=3, d=5, n_min=20, n_max=25, cluster_count=3,
                         deviation=0.5, noise=0.0, seed=7)
    ds = generate_synthetic(spec)
    errs = []
    for lam in (1.0, 0.1, 0.01):
        W = train_local(ds, lam)
        _, err = prediction_error(W, ds)
        errs.append(err)
    assert errs[-1] == 0.0


def test_local_equals_global_single_task(rng):
    ds = make_dataset(rng, m=1, d=4, n_lo=15, n_hi=15)
    Wl = train_local(ds, 0.5)
    Wg = train_global(ds, 0.5)
    assert np.allclose(Wl.W, Wg.W, atol=1e-5)


def test_global_matches_local_when_tasks_identical():
    # one generator, shared draws: below the hard-margin threshold both the
    # per-task and the pooled problems pin the same direction
    base = generate_synthetic(
        SyntheticSpec(m=1, d=5, n_min=40, n_max=40, seed=9)
    ).tasks[0]
    ds = FederatedDataset(tuple(
        TaskDataset(t, base.features, base.labels) for t in range(3)
    ))
    Wl = train_local(ds, 0.02, max_epochs=60000)
    Wg = train_global(ds, 0.02, max_epochs=60000)
    for t in range(ds.m):
        a, b = Wl.W[:, t], Wg.W[:, t]
        cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert cos >= 0.999


def test_global_broadcasts_identical_columns(rng):
    ds = make_dataset(rng, m=3, d=4, n_lo=10, n_hi=14)
    Wg = train_global(ds, 0.5)
    assert np.allclose(Wg.W, Wg.W[:, [0]])


def test_model_select_contracts(rng):
    ds = make_dataset(rng, m=2, d=4, n_lo=10, n_hi=12)
    trainer = local_trainer()
    lam, err = model_select(ds, trainer, [0.5], 3, seed=1)
    assert lam == 0.5
    lam2, _ = model_select(ds, trainer, [0.5, 0.05], 3, seed=1)
    lam3, _ = model_select(ds, trainer, [0.5, 0.05], 3, seed=1)
    assert lam2 == lam3
    assert DEFAULT_LAMBDA_GRID == (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)
    with pytest.raises(ValueError):
        model_select(ds, trainer, [], 3)
    with pytest.raises(ValueError):
        model_select(ds, trainer, [0.1], 1)


def test_model_select_needs_a_held_out_example_in_every_fold():
    # Tasks of 2 and 3 examples: a fourth fold would hold out nothing, and
    # its error would be the mean of no task errors.
    ds = FederatedDataset(tuple(TaskDataset(t, np.ones((2, n)), np.ones(n))
                                for t, n in enumerate((2, 3))))
    calls = []

    def trainer(train_ds, lam):
        calls.append(lam)
        return PrimalState(np.ones((ds.d, ds.m)))

    with pytest.raises(ValueError, match="k_folds"):
        model_select(ds, trainer, [0.1, 1.0], 4)
    assert calls == []
    # Three folds hold out an example of the larger task in each.
    lam, err = model_select(ds, trainer, [0.1, 1.0], 3)
    assert lam == 1.0 and err == 0.0


def test_model_select_ties_prefer_larger_lambda(rng):
    ds = make_dataset(rng, m=2, d=3, n_lo=8, n_hi=8)
    fixed_W = PrimalState(np.ones((ds.d, ds.m)))
    lam, _ = model_select(ds, lambda _ds, _lam: fixed_W, [0.01, 0.1, 1.0], 2, seed=0)
    assert lam == 1.0


def test_compare_models_runs(rng):
    spec = SyntheticSpec(m=3, d=4, n_min=16, n_max=16, cluster_count=1,
                         deviation=0.1, noise=0.0, seed=15)
    ds = generate_synthetic(spec)
    trainers = {
        "local": local_trainer(),
        "global": global_trainer(),
        "mtl": mocha_trainer(lambda lam: ProbabilisticPrior(lam),
                             SolverConfig(inner_rounds=15, outer_rounds=2)),
    }
    rows = compare_models(ds, trainers, [0.1, 1.0], shuffles=2, seed=3, k_folds=2)
    assert {r.method for r in rows} == {"local", "global", "mtl"}
    for row in rows:
        assert 0.0 <= row.mean_error <= 1.0
        assert row.std_error >= 0.0
        assert len(row.errors) == 2
