import numpy as np
import pytest

from fedmtl.data import SyntheticSpec, generate_synthetic
from fedmtl.losses import LossKind
from fedmtl.regularizers import MeanRegularized
from fedmtl.simulation import (
    PRESETS,
    HeterogeneityPolicy,
    NetworkPreset,
    NodeProfile,
    SystemsPolicy,
    attach_times,
    estimate_flops,
    round_time,
    simulate_run,
)
from fedmtl.solver import BUDGET_STREAM, DROP_STREAM, SolverConfig, stream

HINGE = LossKind.HINGE


def _budgets(heterogeneity, m, seed, round_idx=0):
    """One round's budgets for m nodes; budgets read no node profile."""
    return SystemsPolicy(seed, [], heterogeneity).budget(m, round_idx)


def _drops(probability, m, seed, round_idx=0):
    """One round's drops for m nodes that all drop with ``probability``."""
    policy = SystemsPolicy(seed, [NodeProfile(drop_probability=probability)] * m,
                           HeterogeneityPolicy("none", n_min=1))
    return policy.dropped(m, round_idx)


def test_systems_policy_needs_a_profile_per_node():
    none = HeterogeneityPolicy("none", n_min=1)
    for count in (1, 2):
        policy = SystemsPolicy(0, [NodeProfile(drop_probability=1.0)] * count, none)
        with pytest.raises(ValueError, match=f"each of 4 nodes, got {count}"):
            policy.draws(4, 0)
    policy = SystemsPolicy(0, [NodeProfile(drop_probability=1.0)] * 4, none)
    assert policy.draws(4, 0)[1] == [True] * 4


def test_sample_budget_fixed():
    policy = HeterogeneityPolicy("fixed", n_min=100, k=10)
    assert _budgets(policy, 20, seed=0) == [10] * 20


def test_sample_budget_high_range_and_mean():
    policy = HeterogeneityPolicy("high", n_min=100)
    draws = np.array(_budgets(policy, 100_000, seed=1))
    assert draws.min() >= 10 and draws.max() <= 100
    assert abs(draws.mean() - 55.0) <= 1.0


def test_sample_budget_low_range():
    policy = HeterogeneityPolicy("low", n_min=100)
    draws = np.array(_budgets(policy, 2000, seed=2))
    assert draws.min() >= 90 and draws.max() <= 100


def test_sample_budget_none_mode():
    policy = HeterogeneityPolicy("none", n_min=37)
    assert _budgets(policy, 1, seed=3) == [37]


def test_sample_drop_probabilities():
    assert not any(_drops(0.0, 1000, seed=4))
    assert all(_drops(1.0, 1000, seed=4))
    freq = np.mean(_drops(0.3, 100_000, seed=5))
    assert abs(freq - 0.3) <= 0.01


def test_estimate_flops():
    assert estimate_flops(0, 100) == 0
    assert estimate_flops(1, 100) == 400
    assert estimate_flops(7, 200) == 2 * estimate_flops(7, 100)
    with pytest.raises(ValueError):
        estimate_flops(-1, 10)


def test_round_time_examples():
    fast = NetworkPreset("zero", 0.0, 1e18)
    assert round_time([1e6], [NodeProfile(clock_rate=1e6)], fast, 0.0) == pytest.approx(1.0)
    profiles = [NodeProfile(clock_rate=1e6)] * 2
    assert round_time([1e6, 5e6], profiles, fast, 0.0) == pytest.approx(5.0)
    slow = NetworkPreset("slow", 10.0, 100.0)
    # d=100 doubles of 8 bytes -> 800 bytes; 2 * (10 + 8) = 36
    assert slow.comm_ms(800.0) == pytest.approx(36.0)


def test_round_time_dropped_nodes_never_extend():
    profiles = [NodeProfile(clock_rate=1.0), NodeProfile(clock_rate=1e12)]
    preset = NetworkPreset("p", 1.0, 1e12)
    # node 0 is astronomically slow but dropped
    t = round_time([1e9, 10.0], profiles, preset, 8.0, dropped={0})
    assert t == pytest.approx(2.0, rel=1e-6)
    # everyone dropped: only the broadcast cost remains
    t_all = round_time([1e9, 10.0], profiles, preset, 8.0, dropped={0, 1})
    assert t_all == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("make", [
    lambda: NodeProfile(clock_rate=np.nan),
    lambda: NodeProfile(clock_rate=np.inf),
    lambda: NodeProfile(clock_rate=0.0),
    lambda: NetworkPreset("p", np.nan, 100.0),
    lambda: NetworkPreset("p", np.inf, 100.0),
    lambda: NetworkPreset("p", 1.0, np.nan),
    lambda: NetworkPreset("p", 1.0, np.inf),
], ids=["clock-nan", "clock-inf", "clock-zero", "latency-nan", "latency-inf",
        "bandwidth-nan", "bandwidth-inf"])
def test_systems_settings_must_be_finite(make):
    # max(0.0, nan) is 0.0, so a NaN setting would give every round the
    # minimum time.
    with pytest.raises(ValueError, match="finite"):
        make()


def test_preset_table_and_ratio_helper():
    assert set(PRESETS) == {"wifi", "lte", "3g"}
    assert PRESETS["3g"].latency_ms > PRESETS["lte"].latency_ms > PRESETS["wifi"].latency_ms


def test_systems_policy_reproducible_streams():
    policy = SystemsPolicy(7, [NodeProfile(drop_probability=0.4)] * 3,
                           HeterogeneityPolicy("high", n_min=50))
    again = SystemsPolicy(7, [NodeProfile(drop_probability=0.4)] * 3,
                          HeterogeneityPolicy("high", n_min=50))
    for h in range(10):
        assert policy.budget(3, h) == again.budget(3, h)
        assert policy.dropped(3, h) == again.dropped(3, h)
    # distinct (node, round) pairs see distinct draws somewhere
    draws = {b for h in range(10) for b in policy.budget(3, h)}
    assert len(draws) > 1


@pytest.mark.parametrize("seed", [7, 2**63 + 5, 2**64 + 5])
@pytest.mark.parametrize("heterogeneity", [HeterogeneityPolicy("none", n_min=50),
                                           HeterogeneityPolicy("low", n_min=50),
                                           HeterogeneityPolicy("high", n_min=50),
                                           HeterogeneityPolicy("fixed", n_min=1, k=0)])
def test_systems_policy_round_draws_match_per_node_draws(seed, heterogeneity):
    # A round's values are node t's draws from its own streams.  A seed of
    # 2**64 or more takes numpy's path; drop probabilities 0 and 1 pin the
    # comparison's ends.
    probabilities = (0.0, 0.3, 0.5, 1.0, 0.7)
    policy = SystemsPolicy(seed, [NodeProfile(drop_probability=p) for p in probabilities],
                           heterogeneity)
    lo, hi = heterogeneity.bounds()
    for h in range(8):
        budgets, drops = policy.draws(5, h)
        assert (budgets, drops) == (policy.budget(5, h), policy.dropped(5, h))
        assert budgets == [int(stream(seed, BUDGET_STREAM, t, h).integers(lo, hi, endpoint=True))
                           for t in range(5)]
        assert drops == [bool(stream(seed, DROP_STREAM, t, h).random() < p)
                         for t, p in enumerate(probabilities)]
        assert all(type(b) is int for b in budgets) and all(type(d) is bool for d in drops)


def _small_run(preset, seed=3, het_mode="none", rounds=6):
    ds = generate_synthetic(SyntheticSpec(m=3, d=6, n_min=12, n_max=12, seed=1))
    model = MeanRegularized(1.0, 1.0)
    return simulate_run(
        "mocha", ds, SolverConfig(inner_rounds=rounds, seed=seed), kind=HINGE,
        model=model, preset=preset, heterogeneity=HeterogeneityPolicy(het_mode, n_min=12),
    ), ds


def test_simulate_run_time_accumulates():
    sim, ds = _small_run(PRESETS["lte"])
    times = [s.elapsed_ms_estimated for s in sim.trace]
    assert all(b > a for a, b in zip(times, times[1:]))
    # fixed budgets, identical profiles: every round costs the same
    per_round = np.diff([0.0] + times)
    assert np.allclose(per_round, per_round[0])
    comm = PRESETS["lte"].comm_ms(8.0 * ds.d)
    expected = estimate_flops(12, ds.d) / 1e6 + comm
    assert per_round[0] == pytest.approx(expected)


def test_simulate_run_deterministic():
    a, _ = _small_run(PRESETS["wifi"], seed=9, het_mode="high")
    b, _ = _small_run(PRESETS["wifi"], seed=9, het_mode="high")
    for x, y in zip(a.trace, b.trace):
        assert x.elapsed_ms_estimated == y.elapsed_ms_estimated
        assert x.dual == y.dual
        assert x.update_counts == y.update_counts


def test_zero_comm_time_proportional_to_rounds():
    free = NetworkPreset("free", 0.0, 1e18)
    sim, _ = _small_run(free, rounds=5)
    times = [s.elapsed_ms_estimated for s in sim.trace]
    assert times[-1] == pytest.approx(5 * times[0])


def test_simulate_run_methods_dispatch():
    ds = generate_synthetic(SyntheticSpec(m=2, d=5, n_min=10, n_max=10, seed=2))
    model = MeanRegularized(1.0, 1.0)
    for method, params in [
        ("cocoa", {"theta": 0.5}),
        ("mb_sdca", {"batch": 3, "beta": 1.0}),
        ("mb_sgd", {"batch": 3, "step": 0.05}),
    ]:
        sim = simulate_run(
            method, ds, SolverConfig(inner_rounds=4, seed=1), kind=HINGE, model=model,
            preset=PRESETS["wifi"], heterogeneity=HeterogeneityPolicy("none", n_min=10),
            method_params=params,
        )
        assert len(sim.trace) == 4
        assert sim.trace[-1].elapsed_ms_estimated > 0
        assert sim.primal.W.shape == (ds.d, ds.m)
    with pytest.raises(ValueError):
        simulate_run("nope", ds, SolverConfig(inner_rounds=2, seed=1), kind=HINGE,
                     model=model, preset=PRESETS["wifi"],
                     heterogeneity=HeterogeneityPolicy("none", n_min=10))


def test_drop_injection_reaches_solver():
    ds = generate_synthetic(SyntheticSpec(m=3, d=5, n_min=10, n_max=10, seed=4))
    model = MeanRegularized(1.0, 1.0)
    profiles = [NodeProfile(drop_probability=0.9) for _ in range(3)]
    for method in ("mocha", "mb_sdca"):
        sim = simulate_run(
            method, ds, SolverConfig(inner_rounds=20, seed=11), kind=HINGE, model=model,
            preset=PRESETS["wifi"], heterogeneity=HeterogeneityPolicy("high", n_min=10),
            profiles=profiles,
        )
        assert any(s.dropped for s in sim.trace), method
        dropped_counts = [c for s in sim.trace for t, c in enumerate(s.update_counts)
                          if t in s.dropped]
        assert all(c == 0 for c in dropped_counts), method


@pytest.mark.parametrize("method", ["mb_sdca", "mb_sgd"])
def test_mini_batch_methods_drop_without_heterogeneity(method):
    # Under "none" their budgets stay at the batch, and their drops follow
    # the profiles as MOCHA's do; CoCoA never drops.
    ds = generate_synthetic(SyntheticSpec(m=4, d=5, n_min=10, n_max=10, seed=4))
    profiles = [NodeProfile(drop_probability=0.5) for _ in range(ds.m)]

    def trace(name):
        return simulate_run(
            name, ds, SolverConfig(inner_rounds=6, seed=4), kind=HINGE,
            model=MeanRegularized(1.0, 1.0), preset=PRESETS["wifi"],
            heterogeneity=HeterogeneityPolicy("none", n_min=10), profiles=profiles,
            method_params={"batch": 5},
        ).trace

    mocha, mini_batch = trace("mocha"), trace(method)
    assert any(s.dropped for s in mocha)
    assert [s.dropped for s in mini_batch] == [s.dropped for s in mocha]
    assert [s.update_counts for s in mini_batch] == [
        [0 if t in s.dropped else 5 for t in range(ds.m)] for s in mini_batch]
    assert not any(s.dropped for s in trace("cocoa"))


def test_attach_times_invariant_to_recomputation():
    sim, ds = _small_run(PRESETS["3g"])
    once = [s.elapsed_ms_estimated for s in sim.trace]
    attach_times(sim.trace, ds.d, [NodeProfile()] * ds.m, PRESETS["3g"])
    assert once == [s.elapsed_ms_estimated for s in sim.trace]


def test_cocoa_straggler_time_vs_fixed_budget():
    # skewed sizes: the fixed-quality method's round time tracks the big task
    from fedmtl.baselines import cocoa_run
    from fedmtl.regularizers import build_relationship, initial_omega
    from fedmtl.solver import ConstantPolicy, run_w_update, init_dual_state

    tasks = []
    for t, n in enumerate([10, 10, 50]):
        part = generate_synthetic(SyntheticSpec(m=1, d=5, n_min=n, n_max=n, seed=t + 20))
        tasks.append(part.tasks[0])
    from fedmtl.data import FederatedDataset, TaskDataset
    ds = FederatedDataset(tuple(TaskDataset(t, task.features, task.labels)
                                for t, task in enumerate(tasks)))
    model = MeanRegularized(1.0, 1.0)
    rel = build_relationship(model, initial_omega(model, ds.m))
    run = cocoa_run(ds, HINGE, rel, 0.1, 8, seed=6)
    attach_times(run.trace, ds.d, [NodeProfile()] * 3, PRESETS["wifi"])

    state = init_dual_state(ds)
    median_budget = int(np.median([c for s in run.trace for c in s.update_counts]))
    mocha_trace = run_w_update(ds, HINGE, rel, state,
                               ConstantPolicy(median_budget), rounds=8, seed=6)
    attach_times(mocha_trace, ds.d, [NodeProfile()] * 3, PRESETS["wifi"])
    for c_stats, m_stats in zip(run.trace, mocha_trace):
        assert max(c_stats.update_counts) >= max(m_stats.update_counts)
        assert c_stats.elapsed_ms_estimated >= m_stats.elapsed_ms_estimated - 1e-9
