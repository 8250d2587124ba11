"""The three benchmark workloads.

Each workload makes its inputs from the seed, then offers:

- ``setup()``: import fedmtl afresh and ``load()``; timed as ``setup_s``.
- ``load()``: generate or read the data and build the run's configuration.
- ``body()``: the timed work; returns its output.
- ``check(output)``: (rounds done, problems found) for one output.
- ``final_check()``: problems found by checks that run once, outside the
  timed region.

Only the generated inputs reach the program: a synthetic spec, CSV files the
benchmark writes itself, or an INI config file.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import os
import sys
from dataclasses import replace

import numpy as np

import checks


def fresh_import(name: str):
    """Import a fedmtl module as a new process would, numpy aside."""
    for key in [k for k in sys.modules if k == "fedmtl" or k.startswith("fedmtl.")]:
        del sys.modules[key]
    return importlib.import_module(name)


def _records(trace):
    return [(s.h, s.dual, s.primal, s.gap) for s in trace]


class MochaWide:
    """run_mocha, hinge loss, 20 tasks of 400-600 examples in 50 dimensions,
    fixed mean-regularized coupling, one local epoch per round, one worker,
    run until the duality gap falls to 2e-3 of the initial primal P(0) = n."""

    M, D, N_MIN, N_MAX = 20, 50, 400, 600
    LAMBDA = 10.0
    GAP_FRACTION = 2e-3
    MAX_ROUNDS = 200

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        self.fedmtl = fresh_import("fedmtl")
        self.load()

    def load(self):
        f = self.fedmtl
        spec = f.data.SyntheticSpec(
            m=self.M, d=self.D, n_min=self.N_MIN, n_max=self.N_MAX,
            cluster_count=4, deviation=0.3, noise=0.05, seed=self.seed,
        )
        self.ds = f.data.generate_synthetic(spec)
        self.model = f.MeanRegularized(self.LAMBDA, self.LAMBDA)
        self.policy = f.ConstantPolicy([task.n for task in self.ds.tasks])
        self.target = self.GAP_FRACTION * self.ds.n
        self.config = f.SolverConfig(
            inner_rounds=self.MAX_ROUNDS, gap_tol=self.target, seed=self.seed,
            workers=1,
        )

    def body(self):
        f = self.fedmtl
        return f.solver.run_mocha(self.ds, self.model, self.config, self.policy,
                                  f.LossKind.HINGE)

    def check(self, result):
        records = _records(result.trace)
        problems = checks.weak_duality(records) + checks.dual_nonincreasing(
            records, self.MAX_ROUNDS)
        last = result.trace[-1]
        if last.gap > self.target:
            problems.append(f"final gap {last.gap!r} above the target {self.target!r}")
        primal = checks.hinge_primal(
            [t.features for t in self.ds.tasks], [t.labels for t in self.ds.tasks],
            np.asarray(result.primal.W), self.LAMBDA, self.LAMBDA,
        )
        problems += checks.primal_matches(primal, last.primal)
        return len(result.trace), problems

    def final_check(self):
        return []


class MochaMany:
    """run_mocha, squared loss, 100 tasks of 30-80 examples in 10 dimensions
    read from CSV, learned probabilistic coupling over 6 outer iterations of
    10 rounds, high budget heterogeneity, drop probability 0.1, two workers."""

    M, D, N_MIN, N_MAX = 100, 10, 30, 80
    CLUSTERS = 5
    OUTER, INNER = 6, 10
    DROP = 0.1
    WORKERS = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.csv_dir = os.path.join(workdir, "mocha-many-data")
        self._write_inputs()
        self.signatures = set()

    def _write_inputs(self):
        """Cluster-structured linear tasks: labels are the sign of a noisy
        per-task model, 5% of them flipped."""
        os.makedirs(self.csv_dir, exist_ok=True)
        rng = np.random.default_rng([self.seed, 0x3A7])
        centers = rng.standard_normal((self.D, self.CLUSTERS))
        for t in range(self.M):
            w = centers[:, t % self.CLUSTERS] + 0.3 * rng.standard_normal(self.D)
            n_t = int(rng.integers(self.N_MIN, self.N_MAX + 1))
            X = rng.standard_normal((n_t, self.D))
            y = np.where(X @ w > 0.0, 1, -1)
            y = np.where(rng.random(n_t) < 0.05, -y, y)
            path = os.path.join(self.csv_dir, f"task_{t}.csv")
            with open(path, "w", encoding="ascii", newline="") as fh:
                writer = csv.writer(fh)
                for label, row in zip(y, X):
                    writer.writerow([int(label)] + [repr(float(x)) for x in row])

    def setup(self):
        self.fedmtl = fresh_import("fedmtl")
        self.load()

    def load(self):
        f = self.fedmtl
        self.ds = f.data.load_federated_csv(self.csv_dir)
        self.model = f.ProbabilisticPrior(lam=1.0)
        profiles = [f.NodeProfile(drop_probability=self.DROP) for _ in range(self.ds.m)]
        het = f.HeterogeneityPolicy("high", min(self.ds.task_sizes()))
        self.policy = f.SystemsPolicy(self.seed, profiles, het)
        self.config = f.SolverConfig(
            inner_rounds=self.INNER, outer_rounds=self.OUTER, seed=self.seed,
            workers=self.WORKERS,
        )

    def body(self, workers: int | None = None):
        f = self.fedmtl
        config = self.config if workers is None else replace(self.config, workers=workers)
        return f.solver.run_mocha(self.ds, self.model, config, self.policy,
                                  f.LossKind.SQUARED)

    @staticmethod
    def _signature(result):
        return tuple(
            (s.h, s.dual, s.primal, s.gap, tuple(s.dropped), tuple(s.update_counts))
            for s in result.trace
        )

    def check(self, result):
        records = _records(result.trace)
        problems = checks.weak_duality(records) + checks.dual_nonincreasing(
            records, self.INNER)
        if len(result.trace) != self.OUTER * self.INNER:
            problems.append(f"{len(result.trace)} rounds, expected {self.OUTER * self.INNER}")
        problems += checks.omega_problems(result.omega)
        self.signatures.add(self._signature(result))
        return len(result.trace), problems

    def final_check(self):
        """Traces must be bit-identical to a single-worker run."""
        if not self.signatures:
            return []
        reference = self._signature(self.body(workers=1))
        if self.signatures != {reference}:
            return [f"trace differs from the workers=1 run "
                    f"({len(self.signatures)} distinct traces seen)"]
        return []


CLI_CONFIG = """\
[run]
seed = {seed}

[dataset]
source = synthetic

[synthetic]
m = {m}
d = {d}
n_min = {n}
n_max = {n}
clusters = 2
deviation = 0.3
noise = 0.05

[method]
loss = squared
theta = 0.1
batch = 10
beta = 1.0
step = 0.001

[model]
kind = mean_regularized
lambda1 = {lam}
lambda2 = {lam}

[bench]
methods = {methods}
presets = {presets}
heterogeneity = {modes}
rounds = {rounds}
target_suboptimality = 0.01
"""


class CliBench:
    """``fedmtl bench`` through cli.main: 8 tasks of 50 examples in 10
    dimensions, squared loss, mean-regularized, 15 rounds, all four round
    methods x {wifi, lte} x {none, high} heterogeneity.

    Every task has the same size: the exact-oracle sweeps, most of the time,
    vary with the sizes, and with 40-60 examples the work varied by 18%
    between seeds against 3% with 50."""

    M, D, N, LAMBDA, ROUNDS = 8, 10, 50, 10.0, 15
    METHODS = ("mocha", "cocoa", "mb_sgd", "mb_sdca")
    PRESETS = ("wifi", "lte")
    MODES = ("none", "high")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.config_path = os.path.join(workdir, "cli-bench.ini")
        self.outdir = os.path.join(workdir, "cli-bench-out")
        with open(self.config_path, "w", encoding="ascii") as fh:
            fh.write(CLI_CONFIG.format(
                seed=seed, m=self.M, d=self.D, n=self.N, lam=self.LAMBDA, rounds=self.ROUNDS,
                methods=", ".join(self.METHODS), presets=", ".join(self.PRESETS),
                modes=", ".join(self.MODES),
            ))

    def setup(self):
        self.cli = fresh_import("fedmtl.cli")
        self.load()

    def load(self):
        """What cmd_bench does before its first round: parse the config,
        build the dataset and the model."""
        cfg = self.cli.load_config(self.config_path)
        self.ds = self.cli.build_dataset(cfg, self.seed)
        self.model = self.cli.build_model(cfg)

    def body(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(["bench", "--config", self.config_path,
                                  "--out", self.outdir])

    def check(self, code):
        if code != 0:
            return 0, [f"fedmtl bench exited with code {code}"]
        with open(os.path.join(self.outdir, "summary.json"), encoding="ascii") as fh:
            summary = json.load(fh)
        cells = {}
        for method in self.METHODS:
            for preset in self.PRESETS:
                for mode in self.MODES:
                    path = os.path.join(self.outdir, f"bench_{method}_{preset}_{mode}.csv")
                    with open(path, encoding="ascii") as fh:
                        rows = list(csv.reader(fh))[1:]
                    cells[(method, preset, mode)] = [(float(e), float(s)) for e, s in rows]
        floor = summary["primal_floor"]
        _, optimum = checks.squared_mean_reg_optimum(
            [t.features for t in self.ds.tasks], [t.labels for t in self.ds.tasks],
            self.LAMBDA, self.LAMBDA,
        )
        problems = checks.floor_problems(floor, optimum)
        problems += checks.bench_cell_problems(cells, floor, self.ROUNDS)
        for name, cell in summary["cells"].items():
            if name.startswith("mocha_") and cell["time_to_target_ms"] is None:
                problems.append(f"{name} did not reach its target")
        return sum(len(rows) for rows in cells.values()), problems

    def final_check(self):
        return []


WORKLOADS = {
    "mocha-wide": MochaWide,
    "mocha-many": MochaMany,
    "cli-bench": CliBench,
}
