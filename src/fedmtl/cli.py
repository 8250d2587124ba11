"""Experiment runner: seeded, config-driven runs with stable file outputs.

Subcommands: generate | train | compare | bench | fault | theory.
Configuration is a flat INI file (key = value under [section] headers); no
environment variables are consulted, so a run is reproducible from the config
file and seed alone.  The config is echoed into the output directory.  Each
setting is read in one place: ``theory`` takes gamma from ``[solver] gamma``,
the value ``train`` runs with, and ``compare``'s mtl model runs with the
``[solver]`` settings but for its round counts and gap (``[compare] mtl_*``).
Every ``.json`` and ``.jsonl`` output is strict JSON: a value that is not
finite is written as null.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.  Every
missing, unparsable, non-finite or out-of-range setting exits 1 before
anything is written; malformed dataset files exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys
import configparser
from dataclasses import replace

import numpy as np

from . import baselines
from .data import (
    DataFormatError,
    FederatedDataset,
    SyntheticSpec,
    generate_synthetic,
    load_federated_csv,
    prediction_error,
    save_federated_csv,
    standardize,
    train_test_split,
)
from .losses import LossKind, loss_constants
from .regularizers import (
    MeanRegularized,
    ProbabilisticPrior,
    build_relationship,
    initial_omega,
    sigma_prime_per_task,
    write_matrix_csv,
)
from .simulation import (
    PRESETS,
    HeterogeneityPolicy,
    NetworkPreset,
    NodeProfile,
    attach_times,
    simulate_run,
)
from .solver import SolverConfig, _null_non_finite, write_trace_csv, write_trace_jsonl
from . import theory as theory_mod


class ConfigError(ValueError):
    """Bad or missing configuration; message names the offending field."""


ROUND_METHODS = ("mocha", "cocoa", "mb_sgd", "mb_sdca")


# ---------------------------------------------------------------------------
# Config plumbing


def load_config(path) -> configparser.ConfigParser:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cfg.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return cfg


@contextlib.contextmanager
def _settings(section: str):
    """Turn a ValueError raised in the block by a settings object's own range
    checks into a ConfigError naming ``section``.  Data errors and config
    errors pass through as they are."""
    try:
        yield
    except (ConfigError, DataFormatError):
        raise
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _cast(name: str, raw: str, cast):
    """``cast(raw)``; no float setting may be NaN or infinite."""
    try:
        value = cast(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: cannot parse {raw!r}") from None
    _require(cast is not float or math.isfinite(value), name, "must be finite", value)
    return value


def _get(cfg, section, key, cast, default=None, required=False):
    if not cfg.has_option(section, key):
        if required:
            raise ConfigError(f"{section}.{key}: required setting missing")
        return default
    return _cast(f"{section}.{key}", cfg.get(section, key), cast)


def _get_int(cfg, s, k, default=None, required=False):
    return _get(cfg, s, k, int, default, required)


def _get_float(cfg, s, k, default=None, required=False):
    return _get(cfg, s, k, float, default, required)


def _get_str(cfg, s, k, default=None, required=False):
    return _get(cfg, s, k, str.strip, default, required)


def _get_bool(cfg, s, k, default=False):
    raw = _get_str(cfg, s, k)
    if raw is None:
        return default
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{s}.{k}: expected a boolean, got {raw!r}")


def _get_list(cfg, s, k, cast, default=None):
    raw = _get_str(cfg, s, k)
    if raw is None:
        return default
    return [_cast(f"{s}.{k}", part.strip(), cast) for part in raw.split(",") if part.strip()]


def parse_loss(name: str) -> LossKind:
    try:
        return LossKind(name.lower())
    except ValueError:
        raise ConfigError(f"method.loss: unknown loss {name!r}") from None


def _synthetic_spec(cfg, seed: int) -> SyntheticSpec:
    with _settings("synthetic"):
        return SyntheticSpec(
            m=_get_int(cfg, "synthetic", "m", required=True),
            d=_get_int(cfg, "synthetic", "d", required=True),
            n_min=_get_int(cfg, "synthetic", "n_min", required=True),
            n_max=_get_int(cfg, "synthetic", "n_max", required=True),
            cluster_count=_get_int(cfg, "synthetic", "clusters", 1),
            deviation=_get_float(cfg, "synthetic", "deviation", 0.0),
            noise=_get_float(cfg, "synthetic", "noise", 0.0),
            seed=_get_int(cfg, "synthetic", "seed", seed),
        )


def _standardized(cfg) -> bool:
    return _get_bool(cfg, "dataset", "standardize", False)


def build_dataset(cfg, seed: int, scale: bool = True) -> FederatedDataset:
    """The ``[dataset]``, z-scored on all of its examples under ``standardize
    = true`` unless ``scale`` is False (``compare`` scales each of its
    training splits itself)."""
    source = _get_str(cfg, "dataset", "source", required=True)
    if source == "csv":
        csv_dir = _get_str(cfg, "dataset", "csv_dir", required=True)
        if not os.path.isdir(csv_dir):
            raise ConfigError(f"dataset.csv_dir: directory not found: {csv_dir}")
        ds = load_federated_csv(csv_dir)
    elif source == "synthetic":
        ds = generate_synthetic(_synthetic_spec(cfg, seed))
    else:
        raise ConfigError(f"dataset.source: must be csv or synthetic, got {source!r}")
    if scale and _standardized(cfg):
        ds, _ = standardize(ds)
    return ds


def build_model(cfg):
    kind = _get_str(cfg, "model", "kind", "mean_regularized")
    with _settings("model"):
        if kind == "mean_regularized":
            return MeanRegularized(
                lambda1=_get_float(cfg, "model", "lambda1", 1.0),
                lambda2=_get_float(cfg, "model", "lambda2", 1.0),
            )
        if kind == "probabilistic":
            return ProbabilisticPrior(
                lam=_get_float(cfg, "model", "lam", 1.0),
                sigma2_prior=_get_float(cfg, "model", "sigma2_prior", 1.0),
                ridge_eps=_get_float(cfg, "model", "ridge_eps", 1e-6),
            )
    raise ConfigError(f"model.kind: unknown coupling model {kind!r}")


def build_preset(cfg, name: str | None = None) -> NetworkPreset:
    """The network preset ``name``, by default ``[network] preset``; ``custom``
    takes its latency and bandwidth from ``[network]``."""
    if name is None:
        name = _get_str(cfg, "network", "preset", "wifi")
    name = name.lower()
    if name == "custom":
        with _settings("network"):
            return NetworkPreset(
                "custom",
                _get_float(cfg, "network", "latency_ms", required=True),
                _get_float(cfg, "network", "bandwidth", required=True),
            )
    if name not in PRESETS:
        raise ConfigError(f"unknown network preset {name!r}")
    return PRESETS[name]


def build_heterogeneity(cfg, n_min: int, mode: str | None = None) -> HeterogeneityPolicy:
    """The budget policy ``mode``, by default ``[systems] heterogeneity``,
    with ``[systems] fixed_k``."""
    if mode is None:
        mode = _get_str(cfg, "systems", "heterogeneity", "none")
    with _settings("systems"):
        return HeterogeneityPolicy(mode, n_min, _get_int(cfg, "systems", "fixed_k", None))


def build_profiles(cfg, m: int, drop_probabilities=None) -> list[NodeProfile]:
    """One profile per node at ``[systems] clock_rate``; node t drops with
    ``drop_probabilities[t]``, by default ``[systems] drop_probability``."""
    clock = _get_float(cfg, "systems", "clock_rate", 1e6)
    if drop_probabilities is None:
        drop_probabilities = [_get_float(cfg, "systems", "drop_probability", 0.0)] * m
    with _settings("systems"):
        return [NodeProfile(clock_rate=clock, drop_probability=p)
                for p in drop_probabilities]


def build_solver_config(cfg, seed: int) -> SolverConfig:
    with _settings("solver"):
        return SolverConfig(
            gamma=_get_float(cfg, "solver", "gamma", 1.0),
            sigma_prime_mode=_get_str(cfg, "solver", "sigma_prime_mode", "global"),
            inner_rounds=_get_int(cfg, "solver", "inner_rounds", 100),
            outer_rounds=_get_int(cfg, "solver", "outer_rounds", 1),
            gap_tol=_get_float(cfg, "solver", "gap_tol", None),
            seed=seed,
        )


def method_params(cfg) -> dict:
    """The [method] settings of the compared methods, each read and
    range-checked whichever method runs; each key, its type and its default
    come from ``baselines.METHOD_DEFAULTS``."""
    with _settings("method"):
        params = {
            key: _get(cfg, "method", key,
                      str.strip if isinstance(default, str) else type(default), default)
            for key, default in baselines.METHOD_DEFAULTS.items()
        }
        baselines.check_method_params(params)
    return params


def _seed(cfg, args) -> int:
    name, seed = (("--seed", args.seed) if args.seed is not None
                  else ("run.seed", _get_int(cfg, "run", "seed", 0)))
    _require(seed >= 0, name, "must be >= 0", seed)
    return seed


def _load(args, scale: bool = True):
    """What every run command starts from: the config, the seed, the loss
    and the dataset."""
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    kind = parse_loss(_get_str(cfg, "method", "loss", "hinge"))
    return cfg, seed, kind, build_dataset(cfg, seed, scale)


def _require(ok: bool, name: str, rule: str, value) -> None:
    if not ok:
        raise ConfigError(f"{name}: {rule}, got {value!r}")


def _distinct(name: str, keys: list) -> None:
    """Each entry of a list setting names one run or output file: refuse an
    empty list and a repeated entry."""
    _require(len(keys) > 0, name, "needs at least one entry", keys)
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    _require(not repeated, name, f"repeats {', '.join(repeated)}", keys)


def _echo_config(config_path, outdir) -> None:
    os.makedirs(outdir, exist_ok=True)
    shutil.copyfile(config_path, os.path.join(outdir, "config.ini"))


def _write_summary(outdir, summary: dict) -> None:
    with open(os.path.join(outdir, "summary.json"), "w", encoding="ascii") as fh:
        json.dump(_null_non_finite(summary), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    outdir = args.out or _get_str(cfg, "output", "dir", required=True)
    ds = generate_synthetic(_synthetic_spec(cfg, seed))
    try:
        save_federated_csv(ds, outdir)
    except FileExistsError as exc:
        raise ConfigError(f"output.dir: {exc}") from None
    sizes = ds.task_sizes()
    print(f"wrote {ds.m} task files to {outdir}")
    print(f"m={ds.m} d={ds.d} n={ds.n} n_t(min/mean/max)="
          f"{min(sizes)}/{np.mean(sizes):.1f}/{max(sizes)}")
    return 0


def cmd_train(args) -> int:
    cfg, seed, kind, ds = _load(args)
    outdir = args.out or _get_str(cfg, "output", "dir", "out")
    method = _get_str(cfg, "method", "name", required=True)
    params = method_params(cfg)

    # Each branch reads all of its settings before the config is echoed.
    omega = None
    elapsed = None
    trace = []
    if method in ("local", "global"):
        lam = _get_float(cfg, "method", "lambda", required=True)
        max_epochs = _get_int(cfg, "method", "max_epochs", 20000)
        _require(lam > 0.0, "method.lambda", "must be > 0", lam)
        _require(max_epochs >= 1, "method.max_epochs", "must be >= 1", max_epochs)
        trainer = baselines.train_local if method == "local" else baselines.train_global
        _echo_config(args.config, outdir)
        primal = trainer(ds, lam, kind, max_epochs=max_epochs, seed=seed)
        final_gap = final_dual = final_primal = None
    elif method in ROUND_METHODS:
        model = build_model(cfg)
        solver_config = build_solver_config(cfg, seed)
        preset = build_preset(cfg)
        het = build_heterogeneity(cfg, min(ds.task_sizes()))
        profiles = build_profiles(cfg, ds.m)
        _echo_config(args.config, outdir)
        result = simulate_run(
            method, ds, solver_config, kind=kind, model=model, preset=preset,
            heterogeneity=het, profiles=profiles, method_params=params,
        )
        trace, primal, omega = result.trace, result.primal, result.omega
        last = trace[-1] if trace else None
        final_gap = last.gap if last else None
        final_dual = last.dual if last else None
        final_primal = last.primal if last else None
        elapsed = last.elapsed_ms_estimated if last else None
    else:
        raise ConfigError(f"method.name: unknown method {method!r}")

    write_trace_jsonl(os.path.join(outdir, "trace.jsonl"), trace)
    write_trace_csv(os.path.join(outdir, "trace.csv"), trace)
    write_matrix_csv(os.path.join(outdir, "W.csv"), primal.W)
    if omega is not None:
        write_matrix_csv(os.path.join(outdir, "omega.csv"), omega)
    _, train_error = prediction_error(primal, ds)
    _write_summary(outdir, {
        "method": method,
        "seed": seed,
        "rounds": len(trace),
        "final_gap": final_gap,
        "final_dual": final_dual,
        "final_primal": final_primal,
        "elapsed_ms_estimated": elapsed,
        "train_error": train_error,
    })
    print(f"{method}: rounds={len(trace)} gap={final_gap} "
          f"train_error={train_error:.4f} -> {outdir}")
    return 0


def _compare_trainers(cfg, kind: LossKind, seed: int):
    names = _get_list(cfg, "compare", "methods", str, ["global", "local", "mtl"])
    _distinct("compare.methods", names)
    max_epochs = _get_int(cfg, "compare", "max_epochs", 20000)
    _require(max_epochs >= 1, "compare.max_epochs", "must be >= 1", max_epochs)
    trainers = {}
    for name in names:
        if name == "global":
            trainers[name] = baselines.global_trainer(kind, max_epochs=max_epochs)
        elif name == "local":
            trainers[name] = baselines.local_trainer(kind, max_epochs=max_epochs)
        elif name == "mtl":
            # The coupling train runs; each grid lambda takes the place of its weights.
            model = build_model(cfg)
            if isinstance(model, ProbabilisticPrior):
                factory = lambda lam: replace(model, lam=lam)
            else:
                factory = lambda lam: MeanRegularized(lam, lam)
            # The [solver] settings, with compare's own round counts and gap.
            with _settings("compare"):
                config = replace(
                    build_solver_config(cfg, seed),
                    inner_rounds=_get_int(cfg, "compare", "mtl_inner_rounds", 40),
                    outer_rounds=_get_int(cfg, "compare", "mtl_outer_rounds", 3),
                    gap_tol=_get_float(cfg, "compare", "mtl_gap_tol", 1e-4),
                )
                trainers[name] = baselines.mocha_trainer(
                    factory, config, kind=kind,
                    budget_epochs=_get_int(cfg, "compare", "mtl_budget_epochs", 1))
        else:
            raise ConfigError(f"compare.methods: unknown method {name!r}")
    return trainers


def cmd_compare(args) -> int:
    # Fit on each shuffle's training split, so that no test example shapes
    # the scaling.
    cfg, seed, kind, ds = _load(args, scale=False)
    outdir = args.out or _get_str(cfg, "output", "dir", "out")
    grid = _get_list(cfg, "compare", "lambda_grid", float,
                     list(baselines.DEFAULT_LAMBDA_GRID))
    trainers = _compare_trainers(cfg, kind, seed)
    shuffles = _get_int(cfg, "compare", "shuffles", 10)
    k_folds = _get_int(cfg, "compare", "k_folds", 5)
    train_fraction = _get_float(cfg, "compare", "train_fraction", 0.75)
    if not grid:
        raise ConfigError("compare.lambda_grid: needs at least one value")
    _require(min(grid) > 0.0, "compare.lambda_grid", "needs every value > 0", grid)
    _require(shuffles >= 1, "compare.shuffles", "must be >= 1", shuffles)
    _require(k_folds >= 2, "compare.k_folds", "must be >= 2", k_folds)
    _require(0.0 < train_fraction < 1.0, "compare.train_fraction",
             "must be in (0, 1)", train_fraction)
    # Every shuffle's training split has these sizes; model_select needs a
    # held-out example in every fold.
    largest = max(train_test_split(ds, train_fraction, seed)[0].task_sizes())
    _require(k_folds <= largest, "compare.k_folds",
             f"must be at most the largest training split, {largest} examples", k_folds)
    rows = baselines.compare_models(
        ds, trainers, grid, shuffles=shuffles, seed=seed, k_folds=k_folds,
        train_fraction=train_fraction, scaled=_standardized(cfg),
    )
    _echo_config(args.config, outdir)
    with open(os.path.join(outdir, "compare.csv"), "w", encoding="ascii") as fh:
        fh.write("method,mean_error,std_error," +
                 ",".join(f"trial{i}" for i in range(len(rows[0].errors))) + "\n")
        for row in rows:
            fh.write(f"{row.method},{row.mean_error!r},{row.std_error!r},"
                     + ",".join(repr(e) for e in row.errors) + "\n")
    _write_summary(outdir, {
        "seed": seed,
        "rows": {r.method: {"mean_error": r.mean_error, "std_error": r.std_error}
                 for r in rows},
    })
    print(f"{'method':>8}  {'error %':>9}  (std err)")
    for row in rows:
        print(f"{row.method:>8}  {100 * row.mean_error:9.3f}  ({100 * row.std_error:.3f})")
    return 0


def _reference_primal_floor(ds, kind, model, seed, rounds=3000) -> float:
    """Lower bound on the optimal primal value via a tightly solved run."""
    # Looked up per call so that a patched fedmtl.solver.run_mocha times it.
    from .solver import ConstantPolicy, run_mocha

    config = SolverConfig(inner_rounds=rounds, gap_tol=1e-9, seed=seed)
    result = run_mocha(
        ds, model, config, ConstantPolicy([t.n for t in ds.tasks]), kind
    )
    last = result.trace[-1]
    return last.primal - last.gap


def cmd_bench(args) -> int:
    cfg, seed, kind, ds = _load(args)
    outdir = args.out or _get_str(cfg, "output", "dir", "out")
    model = build_model(cfg)
    methods = _get_list(cfg, "bench", "methods", str, list(ROUND_METHODS))
    presets = _get_list(cfg, "bench", "presets", str, ["wifi", "lte", "3g"])
    het_modes = _get_list(cfg, "bench", "heterogeneity", str, ["none", "low", "high"])
    rounds = _get_int(cfg, "bench", "rounds", 200)
    _require(rounds >= 1, "bench.rounds", "must be >= 1", rounds)
    target_rel = _get_float(cfg, "bench", "target_suboptimality", 1e-2)
    _require(0.0 < target_rel < 1.0, "bench.target_suboptimality",
             "must be in (0, 1)", target_rel)
    profiles = build_profiles(cfg, ds.m)
    # No gap target: every cell runs the full round count.  One outer
    # iteration, so MOCHA keeps the initial coupling that the floor and the
    # baselines solve against.
    config = replace(build_solver_config(cfg, seed), inner_rounds=rounds, outer_rounds=1,
                     gap_tol=None)
    _distinct("bench.methods", methods)
    _distinct("bench.presets", [name.lower() for name in presets])
    _distinct("bench.heterogeneity", het_modes)
    presets = [build_preset(cfg, name) for name in presets]
    for method in methods:
        if method not in ROUND_METHODS:
            raise ConfigError(f"bench.methods: unknown method {method!r}")
    params = method_params(cfg)
    hets = [build_heterogeneity(cfg, min(ds.task_sizes()), mode) for mode in het_modes]

    _echo_config(args.config, outdir)
    floor = _reference_primal_floor(ds, kind, model, seed)
    summary = {"primal_floor": floor, "cells": {}}
    cocoa_trace = None
    for het in hets:
        for method in methods:
            # The preset changes only the simulated time, so one solve
            # serves every preset; CoCoA draws no budgets or drops, so one
            # solve also serves every heterogeneity mode.
            if method == "cocoa" and cocoa_trace is not None:
                trace = cocoa_trace
            else:
                trace = simulate_run(
                    method, ds, config, kind=kind, model=model, preset=presets[0],
                    heterogeneity=het, profiles=profiles, method_params=params,
                ).trace
            if method == "cocoa":
                cocoa_trace = trace
            for preset in presets:
                attach_times(trace, ds.d, profiles, preset)
                cell = f"{method}_{preset.name}_{het.mode}"
                path = os.path.join(outdir, f"bench_{cell}.csv")
                first = trace[0].primal
                target = floor + target_rel * max(first - floor, 0.0)
                reached = None
                with open(path, "w", encoding="ascii") as fh:
                    fh.write("elapsed_ms,primal_suboptimality\n")
                    for stats in trace:
                        sub = stats.primal - floor
                        fh.write(f"{stats.elapsed_ms_estimated!r},{sub!r}\n")
                        if reached is None and stats.primal <= target:
                            reached = stats.elapsed_ms_estimated
                summary["cells"][cell] = {"time_to_target_ms": reached}
    _write_summary(outdir, summary)
    print(f"bench: {len(summary['cells'])} cells -> {outdir}")
    return 0


def cmd_fault(args) -> int:
    cfg, seed, kind, ds = _load(args)
    outdir = args.out or _get_str(cfg, "output", "dir", "out")
    model = build_model(cfg)
    probabilities = _get_list(
        cfg, "fault", "probabilities", float, [round(0.1 * i, 1) for i in range(10)]
    )
    rounds = _get_int(cfg, "fault", "rounds", 500)
    _require(rounds >= 1, "fault.rounds", "must be >= 1", rounds)
    gap_tol = _get_float(cfg, "fault", "gap_tol", 1e-4)
    # One node that never reports, everyone else reliable.
    permanent = _get_int(cfg, "fault", "permanent_node", 0)
    _require(0 <= permanent < ds.m, "fault.permanent_node",
             f"must be in [0, {ds.m})", permanent)
    het = HeterogeneityPolicy("none", min(ds.task_sizes()))
    with _settings("fault"):
        config = replace(build_solver_config(cfg, seed), inner_rounds=rounds, gap_tol=gap_tol)
    preset = build_preset(cfg)
    runs = [(f"p{p:g}", build_profiles(cfg, ds.m, [p] * ds.m)) for p in probabilities]
    _distinct("fault.probabilities", [tag for tag, _ in runs])
    runs.append(("permanent", build_profiles(
        cfg, ds.m, [1.0 if t == permanent else 0.0 for t in range(ds.m)])))

    _echo_config(args.config, outdir)
    summary = {}
    for tag, profiles in runs:
        trace = simulate_run(
            "mocha", ds, config, kind=kind, model=model, preset=preset,
            heterogeneity=het, profiles=profiles,
        ).trace
        write_trace_csv(os.path.join(outdir, f"fault_{tag}.csv"), trace)
        # Empty when the gap at alpha = 0 already meets gap_tol.
        summary[tag] = {"rounds": len(trace),
                        "final_gap": trace[-1].gap if trace else None}
    _write_summary(outdir, summary)
    for tag, row in summary.items():
        gap = "-" if row["final_gap"] is None else f"{row['final_gap']:.3e}"
        print(f"{tag:>10}: rounds={row['rounds']:4d} gap={gap}")
    return 0


def cmd_theory(args) -> int:
    cfg, seed, kind, ds = _load(args)
    model = build_model(cfg)
    gamma = build_solver_config(cfg, seed).gamma
    eps = _get_float(cfg, "theory", "eps", 1e-3)
    _require(eps > 0.0, "theory.eps", "must be > 0", eps)
    p_max = _get_float(cfg, "theory", "p_max", 0.0)
    theta_max = _get_float(cfg, "theory", "theta_max", 0.0)
    with _settings("theory"):
        tbar = theory_mod.theta_bar(p_max, theta_max)
    gap0 = _get_float(cfg, "theory", "initial_gap_bound", None)
    _require(gap0 is None or gap0 > 0.0, "theory.initial_gap_bound", "must be > 0", gap0)
    rel = build_relationship(model, initial_omega(model, ds.m), gamma)
    stats = theory_mod.sigma_stats(ds, rel.mbar)
    consts = loss_constants(kind)
    out = {
        "n": ds.n,
        "m": ds.m,
        "d": ds.d,
        "loss": kind.value,
        "gamma": gamma,
        "sigma_prime": rel.sigma_prime,
        "sigma_prime_per_task": list(sigma_prime_per_task(rel.mbar, gamma)),
        "sigma_per_task": list(stats.per_task),
        "sigma_max": stats.sigma_max,
        "sigma_total": stats.sigma_total,
        "p_max": p_max,
        "theta_max": theta_max,
        "theta_bar": tbar,
        "epsilon_d": eps,
    }
    if consts.smoothness is not None:
        s = theory_mod.convergence_constant_s(
            consts.smoothness, stats.sigma_max, rel.sigma_prime
        )
        out["s"] = s
        out["smooth_rounds"] = theory_mod.smooth_iteration_bound(ds.n, eps, s, tbar)
    if consts.lipschitz is not None:
        H, H0, h0 = theory_mod.lipschitz_iteration_bound(
            ds.n, eps, consts.lipschitz, stats.sigma_total, rel.sigma_prime,
            tbar, initial_gap_bound=gap0,
        )
        out["lipschitz_rounds"] = H
        out["lipschitz_rounds_burn_in"] = H0
        out["lipschitz_h0"] = h0
    text = json.dumps(_null_non_finite(out), indent=2, sort_keys=True, allow_nan=False)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "theory.json"), "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    return 0


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedmtl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("generate", cmd_generate),
        ("train", cmd_train),
        ("compare", cmd_compare),
        ("bench", cmd_bench),
        ("fault", cmd_fault),
        ("theory", cmd_theory),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed in the config file")
        p.add_argument("--out", default=None, help="override the output directory")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
