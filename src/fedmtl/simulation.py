"""Simulated-time accounting for federated runs: FLOP counting, network cost
presets, per-round work budgets, and dropout injection.

Per-round cost for node t follows compute-plus-communication:

    time(t) = flops(t) / clock_rate(t) + 2 * (latency + message_bytes / bandwidth)

with one dense d-vector shipped each way (8 bytes per entry).  A synchronous
round lasts as long as the slowest responding node; dropped nodes never extend
the deadline, which is set by the coordinator's clock cycle.

Node t's budget and drop in round h come from its own streams,
``stream(seed, BUDGET_STREAM, t, h)`` and ``stream(seed, DROP_STREAM, t, h)``,
so any wrapped run is reproducible from its seed alone.  A round's budgets
are one ``draw_integers`` call and its drops one ``draw_random`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FederatedDataset
from .losses import LossKind
from .regularizers import OmegaModel, build_relationship, initial_omega
from .solver import (
    BUDGET_STREAM,
    DROP_STREAM,
    RoundStats,
    RunResult,
    SolverConfig,
    draw_integers,
    draw_random,
    run_mocha,
)

# FLOPs charged per coordinate update (or gradient evaluation) per feature:
# one dot against the weight snapshot, one against the local accumulator, the
# step computation, and the accumulator refresh.
C_UPDATE = 4

MESSAGE_BYTES_PER_FEATURE = 8.0

# Strictly positive floor so simulated time advances even for free rounds.
MIN_ROUND_MS = 1e-9

# Settings of the compared methods, with their defaults: theta and max_passes
# for cocoa, batch and beta for mb_sdca, batch, step and schedule for mb_sgd.
METHOD_DEFAULTS = {"theta": 0.1, "batch": 1, "beta": 1.0, "step": 0.1,
                   "schedule": "constant", "max_passes": 500}


@dataclass(frozen=True)
class NodeProfile:
    clock_rate: float = 1e6          # FLOPs per millisecond
    drop_probability: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.clock_rate < np.inf:
            raise ValueError("clock_rate must be finite and positive")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1], got {self.drop_probability!r}")


@dataclass(frozen=True)
class NetworkPreset:
    name: str
    latency_ms: float
    bandwidth_bytes_per_ms: float

    def __post_init__(self):
        if not (0.0 <= self.latency_ms < np.inf and 0.0 < self.bandwidth_bytes_per_ms < np.inf):
            raise ValueError("need finite latency >= 0 and bandwidth > 0")

    def comm_ms(self, message_bytes: float) -> float:
        # Down the weight snapshot, up the delta block.
        return 2.0 * (self.latency_ms + message_bytes / self.bandwidth_bytes_per_ms)


PRESETS = {
    "wifi": NetworkPreset("wifi", 5.0, 1e4),
    "lte": NetworkPreset("lte", 40.0, 1e3),
    "3g": NetworkPreset("3g", 75.0, 1e2),
}


@dataclass(frozen=True)
class HeterogeneityPolicy:
    """Per-round work budgets: ``none`` grants the full n_min, ``low`` draws
    uniformly from [0.9 n_min, n_min], ``high`` from [0.1 n_min, n_min], and
    ``fixed`` always grants k."""

    mode: str
    n_min: int
    k: int | None = None

    def __post_init__(self):
        if self.mode not in ("none", "low", "high", "fixed"):
            raise ValueError(f"mode must be none|low|high|fixed, got {self.mode!r}")
        if self.n_min < 1:
            raise ValueError("n_min must be >= 1")
        if self.mode == "fixed" and (self.k is None or self.k < 0):
            raise ValueError("fixed mode needs k >= 0")

    def bounds(self) -> tuple[int, int]:
        if self.mode == "low":
            return int(np.ceil(0.9 * self.n_min)), self.n_min
        if self.mode == "high":
            return int(np.ceil(0.1 * self.n_min)), self.n_min
        if self.mode == "none":
            return self.n_min, self.n_min
        return self.k, self.k


def estimate_flops(update_count: int, d: int) -> float:
    if update_count < 0:
        raise ValueError("update_count must be >= 0")
    return float(update_count) * C_UPDATE * d


def round_time(per_node_flops, profiles, preset: NetworkPreset,
               message_bytes: float, dropped=()) -> float:
    """Synchronous round duration: max compute+comm over responding nodes.
    Dropped nodes only wait out the deadline set by the others."""
    if len(per_node_flops) != len(profiles):
        raise ValueError("per_node_flops and profiles must have equal length")
    dropped = set(dropped)
    comm = preset.comm_ms(message_bytes)
    deadline = 0.0
    any_active = False
    for t, flops in enumerate(per_node_flops):
        if t in dropped:
            continue
        any_active = True
        deadline = max(deadline, flops / profiles[t].clock_rate + comm)
    if not any_active:
        deadline = comm
    return max(deadline, MIN_ROUND_MS)


class SystemsPolicy:
    """Budget/drop provider for solver runs: each call gives a whole round's
    values for nodes 0 .. m - 1, node t's from its own stream (see the
    module docstring)."""

    def __init__(self, seed: int, profiles, heterogeneity: HeterogeneityPolicy):
        if seed < 0:
            raise ValueError("seed must be >= 0")
        self.seed = seed
        self.profiles = list(profiles)
        self.heterogeneity = heterogeneity

    def budget(self, m: int, round_idx: int) -> list[int]:
        """Each node's budget, uniform on the heterogeneity policy's bounds."""
        lo, hi = self.heterogeneity.bounds()
        return draw_integers(self.seed, BUDGET_STREAM, round_idx, lo, hi, [1] * m).tolist()

    def dropped(self, m: int, round_idx: int) -> list[bool]:
        """Whether each node drops: a uniform below its drop probability."""
        if len(self.profiles) < m:
            raise ValueError(f"need a profile for each of {m} nodes, got {len(self.profiles)}")
        probabilities = [profile.drop_probability for profile in self.profiles[:m]]
        return (draw_random(self.seed, DROP_STREAM, round_idx, m) < probabilities).tolist()

    def draws(self, m: int, round_idx: int) -> tuple[list[int], list[bool]]:
        return self.budget(m, round_idx), self.dropped(m, round_idx)


def attach_times(trace: list[RoundStats], d: int, profiles,
                 preset: NetworkPreset) -> list[RoundStats]:
    """Fill elapsed_ms_estimated on each round record (cumulative) from the
    recorded per-node update counts; returns the trace for chaining."""
    message_bytes = MESSAGE_BYTES_PER_FEATURE * d
    elapsed = 0.0
    for stats in trace:
        flops = [estimate_flops(c, d) for c in stats.update_counts]
        elapsed += round_time(flops, profiles, preset, message_bytes,
                              dropped=stats.dropped)
        stats.elapsed_ms_estimated = elapsed
    return trace


def simulate_run(method: str, ds: FederatedDataset, config: SolverConfig, *,
                 kind: LossKind, model: OmegaModel, preset: NetworkPreset,
                 heterogeneity: HeterogeneityPolicy, profiles=None,
                 method_params: dict | None = None) -> RunResult:
    """Run a method under a systems environment and annotate its trace with
    estimated time.  Every method takes its seed, round count, gap target,
    gamma and sigma' mode from ``config``; MOCHA runs the whole config, while
    the baselines run against the initial coupling.  The mini-batch methods'
    budgets are their batch under ``none`` heterogeneity, and every method
    but CoCoA drops nodes as ``profiles`` say.  ``method_params`` overrides
    ``METHOD_DEFAULTS``."""
    from . import baselines

    params = {**METHOD_DEFAULTS, **(method_params or {})}
    if profiles is None:
        profiles = [NodeProfile() for _ in range(ds.m)]
    if len(profiles) != ds.m:
        raise ValueError("need one node profile per task")
    seed, rounds, gap_tol = config.seed, config.inner_rounds, config.gap_tol
    if method in ("mb_sdca", "mb_sgd") and heterogeneity.mode == "none":
        heterogeneity = HeterogeneityPolicy("fixed", heterogeneity.n_min, params["batch"])
    policy = SystemsPolicy(seed, profiles, heterogeneity)

    # The fixed coupling the baselines run against.
    rel = None if method == "mocha" else build_relationship(
        model, initial_omega(model, ds.m), config.gamma, config.sigma_prime_mode)
    if method == "mocha":
        result = run_mocha(ds, model, config, policy, kind)
    elif method == "cocoa":
        result = baselines.cocoa_run(
            ds, kind, rel, params["theta"], rounds, seed=seed, gap_tol=gap_tol,
            max_passes=params["max_passes"],
        )
    elif method == "mb_sdca":
        result = baselines.mb_sdca_run(
            ds, kind, rel, params["batch"], params["beta"], rounds, seed=seed,
            policy=policy, gap_tol=gap_tol,
        )
    elif method == "mb_sgd":
        result = baselines.mb_sgd_run(
            ds, kind, rel, params["batch"], params["step"], rounds,
            seed=seed, schedule=params["schedule"], policy=policy,
        )
    else:
        raise ValueError(f"unknown method {method!r}")

    attach_times(result.trace, ds.d, profiles, preset)
    return result
