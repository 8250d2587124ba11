"""Span tracing from outside the package, and the per-layer metrics it gives.

``Tracer.install`` replaces public functions of fedmtl in the namespaces of
the modules that call them with wrappers that record a span per call: name,
start, end and parent.  Spans live in memory until the run writes them out.
A call made on a worker thread with no open span of its own gets the span
open on the main thread as its parent, which is the ``federated_round`` that
submitted it.

Self time is a span's duration minus the part of its interval that its child
spans cover.  Children on parallel threads may overlap; their union counts
once.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
from time import perf_counter

# (module, attribute path, span name).  A function is wrapped in every module that
# calls it, because each caller looks the name up in its own namespace.  The
# coordinate step in fedmtl.losses runs about a million times per run, so it
# is counted (solver.coordinate_updates) rather than timed.
TARGETS = [
    ("fedmtl.data", "generate_synthetic", "data.generate_synthetic"),
    ("fedmtl.cli", "generate_synthetic", "data.generate_synthetic"),
    ("fedmtl.data", "load_federated_csv", "data.load_federated_csv"),
    ("fedmtl.solver", "run_mocha", "solver.run_mocha"),
    ("fedmtl.simulation", "run_mocha", "solver.run_mocha"),
    ("fedmtl.solver", "run_w_update", "solver.run_w_update"),
    ("fedmtl.solver", "federated_round", "solver.federated_round"),
    ("fedmtl.solver", "solve_local", "solver.solve_local"),
    ("fedmtl.solver", "make_views", "solver.make_views"),
    ("fedmtl.baselines", "make_views", "solver.make_views"),
    ("fedmtl.solver", "oracle_subproblem_opt", "solver.oracle_subproblem_opt"),
    ("fedmtl.baselines", "oracle_subproblem_opt", "solver.oracle_subproblem_opt"),
    ("fedmtl.solver", "dual_objective", "solver.dual_objective"),
    ("fedmtl.baselines", "dual_objective", "solver.dual_objective"),
    ("fedmtl.solver", "primal_objective", "solver.primal_objective"),
    ("fedmtl.baselines", "primal_objective", "solver.primal_objective"),
    ("fedmtl.solver", "duality_gap", "solver.duality_gap"),
    ("fedmtl.solver", "build_relationship", "regularizers.build_relationship"),
    ("fedmtl.simulation", "build_relationship", "regularizers.build_relationship"),
    ("fedmtl.solver", "update_omega", "regularizers.update_omega"),
    ("fedmtl.solver", "primal_from_dual", "regularizers.primal_from_dual"),
    ("fedmtl.baselines", "primal_from_dual", "regularizers.primal_from_dual"),
    ("fedmtl.simulation", "SystemsPolicy.budget", "simulation.policy_draws"),
    ("fedmtl.simulation", "SystemsPolicy.dropped", "simulation.policy_draws"),
    ("fedmtl.simulation", "attach_times", "simulation.attach_times"),
    ("fedmtl.cli", "simulate_run", "simulation.simulate_run"),
    ("fedmtl.baselines", "cocoa_run", "baselines.cocoa_run"),
    ("fedmtl.baselines", "mb_sdca_run", "baselines.mb_sdca_run"),
    ("fedmtl.baselines", "mb_sgd_run", "baselines.mb_sgd_run"),
    ("fedmtl.cli", "cmd_bench", "cli.cmd_bench"),
    ("fedmtl.cli", "main", "cli.main"),
]


def _local_updates(result) -> int:
    return result.update_count


def _trace_updates(result) -> int:
    return sum(sum(stats.update_counts) for stats in result.trace)


# Coordinate updates each call reports in its result.  MOCHA's come from
# solve_local; CoCoA and mini-batch SDCA run their updates inline and report
# them per round.
UPDATES = {
    "solver.solve_local": _local_updates,
    "baselines.cocoa_run": _trace_updates,
    "baselines.mb_sdca_run": _trace_updates,
}

# (name, unit, better) of every per-layer metric, in output order.
LAYER_METRICS = [
    ("data.generate_synthetic.ms", "ms", "lower"),
    ("data.load_federated_csv.ms", "ms", "lower"),
    ("solver.solve_local.ms", "ms", "lower"),
    ("solver.solve_local.updates_per_s", "1/s", "higher"),
    ("solver.objectives.ms", "ms", "lower"),
    ("solver.make_views.ms", "ms", "lower"),
    ("solver.federated_round.self_ms", "ms", "lower"),
    ("solver.round_ms", "ms", "lower"),
    ("solver.oracle_subproblem_opt.ms", "ms", "lower"),
    ("solver.coordinate_updates", "count", "lower"),
    ("solver.run_mocha.self_ms", "ms", "lower"),
    ("solver.run_w_update.self_ms", "ms", "lower"),
    ("regularizers.build_relationship.ms", "ms", "lower"),
    ("regularizers.update_omega.ms", "ms", "lower"),
    ("regularizers.primal_from_dual.ms", "ms", "lower"),
    ("simulation.policy_draws.ms", "ms", "lower"),
    ("simulation.attach_times.ms", "ms", "lower"),
    ("simulation.simulate_run.calls", "count", "lower"),
    ("simulation.simulate_run.self_ms", "ms", "lower"),
    ("baselines.cocoa_run.self_ms", "ms", "lower"),
    ("baselines.mb_sdca_run.ms", "ms", "lower"),
    ("baselines.mb_sgd_run.ms", "ms", "lower"),
    ("cli.cmd_bench.self_ms", "ms", "lower"),
    ("cli.reference_floor.ms", "ms", "lower"),
    ("trace.body_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.self_share", "ratio", "higher"),
]

OBJECTIVES = ("solver.dual_objective", "solver.primal_objective", "solver.duality_gap")


class Span:
    __slots__ = ("name", "start", "end", "parent", "work")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.work = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patches = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        work = UPDATES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            owner = stack or self._main_stack
            span = Span(name, perf_counter(), owner[-1] if owner else None)
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if work is not None:
                span.work = work(result)
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans = []

    def dump(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        selfs = self_times(self.spans)
        with open(path, "w", encoding="ascii") as fh:
            json.dump({
                "spans": [
                    {"name": s.name, "start": s.start, "end": s.end,
                     "parent": None if s.parent is None else index[id(s.parent)],
                     "self": selfs[i], "work": s.work}
                    for i, s in enumerate(self.spans)
                ],
                "by_name": by_name(self.spans, selfs),
            }, fh, indent=1)
            fh.write("\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children.get(id(s), ()), s.start, s.end)
        for s in spans
    ]


def by_name(spans, selfs) -> dict:
    out = {}
    for s, own in zip(spans, selfs):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own
        row["work"] += s.work
    return out


def layer_metrics(spans, traced_wall_s: float) -> dict:
    """Per-layer metrics of one traced repetition, without the overhead
    figures, which need the untraced runs as well."""
    selfs = self_times(spans)
    rows = by_name(spans, selfs)

    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    def ms(name):
        return 1e3 * get(name, "total_s")

    def self_ms(name):
        return 1e3 * get(name, "self_s")

    local_s = get("solver.solve_local", "total_s")
    rounds = [s.end - s.start for s in spans if s.name == "solver.federated_round"]
    floor_s = sum(
        s.end - s.start for s in spans
        if s.name == "solver.run_mocha" and s.parent is not None
        and s.parent.name == "cli.cmd_bench"
    )
    return {
        "data.generate_synthetic.ms": ms("data.generate_synthetic"),
        "data.load_federated_csv.ms": ms("data.load_federated_csv"),
        "solver.solve_local.ms": 1e3 * local_s,
        "solver.solve_local.updates_per_s":
            get("solver.solve_local", "work") / local_s if local_s > 0 else 0.0,
        "solver.objectives.ms": sum(self_ms(name) for name in OBJECTIVES),
        "solver.make_views.ms": ms("solver.make_views"),
        "solver.federated_round.self_ms": self_ms("solver.federated_round"),
        "solver.round_ms": 1e3 * statistics.median(rounds) if rounds else 0.0,
        "solver.oracle_subproblem_opt.ms": ms("solver.oracle_subproblem_opt"),
        "solver.coordinate_updates": sum(get(name, "work") for name in UPDATES),
        "solver.run_mocha.self_ms": self_ms("solver.run_mocha"),
        "solver.run_w_update.self_ms": self_ms("solver.run_w_update"),
        "regularizers.build_relationship.ms": ms("regularizers.build_relationship"),
        "regularizers.update_omega.ms": ms("regularizers.update_omega"),
        "regularizers.primal_from_dual.ms": ms("regularizers.primal_from_dual"),
        "simulation.policy_draws.ms": ms("simulation.policy_draws"),
        "simulation.attach_times.ms": ms("simulation.attach_times"),
        "simulation.simulate_run.calls": get("simulation.simulate_run", "calls"),
        "simulation.simulate_run.self_ms": self_ms("simulation.simulate_run"),
        "baselines.cocoa_run.self_ms": self_ms("baselines.cocoa_run"),
        "baselines.mb_sdca_run.ms": ms("baselines.mb_sdca_run"),
        "baselines.mb_sgd_run.ms": ms("baselines.mb_sgd_run"),
        "cli.cmd_bench.self_ms": self_ms("cli.cmd_bench"),
        "cli.reference_floor.ms": 1e3 * floor_s,
        "trace.self_share": sum(selfs) / traced_wall_s,
    }
