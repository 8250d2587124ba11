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

Every setting, with its cast, default and range rule, is one entry of
``SETTINGS``.  Exit codes: 0 success, 1 configuration error, 2 runtime
failure.  An unknown section or key, in any command's config, and every
missing, unparsable, non-finite or out-of-range setting exit 1 before
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
from dataclasses import fields, replace

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
    initial_eigenpairs,
    initial_omega,
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
MODELS = {"mean_regularized": MeanRegularized, "probabilistic": ProbabilisticPrior}


# ---------------------------------------------------------------------------
# Config plumbing


def _require(ok: bool, name: str, rule: str, value) -> None:
    if not ok:
        raise ConfigError(f"{name}: {rule}, got {value!r}")


def _at_least(low):
    return lambda value: value >= low, f"must be >= {low}"


def _one_of(*choices):
    return lambda value: value in choices, f"must be one of {', '.join(choices)}"


_POSITIVE = (lambda value: value > 0.0, "must be > 0")
_OPEN_UNIT = (lambda value: 0.0 < value < 1.0, "must be in (0, 1)")
_NON_EMPTY = (lambda value: value != "", "must not be empty")
_BOOLEAN = configparser.ConfigParser.BOOLEAN_STATES
REQUIRED = object()

# Every setting: SETTINGS[section][key] = (cast, default[, (test, rule)]); a list
# setting, one whose default is a tuple, casts and tests each entry.  Rules that
# involve other values, and the settings objects' own range checks, stay where
# the value is used.
SETTINGS = {
    "run": {"seed": (int, 0, _at_least(0))},
    "output": {"dir": (str.strip, "out", _NON_EMPTY)},
    "dataset": {"source": (str.strip, REQUIRED, _one_of("csv", "synthetic")),
                "csv_dir": (str.strip, REQUIRED),
                "standardize": (lambda raw: _BOOLEAN[raw.lower()], False)},
    "synthetic": {"m": (int, REQUIRED), "d": (int, REQUIRED), "n_min": (int, REQUIRED),
                  "n_max": (int, REQUIRED), "clusters": (int, 1), "deviation": (float, 0.0),
                  "noise": (float, 0.0), "seed": (int, None)},    # None: the run's seed
    "model": {"kind": (str.strip, "mean_regularized", _one_of(*MODELS)),
              "lambda1": (float, 1.0), "lambda2": (float, 1.0), "lam": (float, 1.0),
              "sigma2_prior": (float, 1.0), "ridge_eps": (float, 1e-6)},
    "solver": {"gamma": (float, 1.0), "inner_rounds": (int, 100), "outer_rounds": (int, 1),
               "gap_tol": (float, None)},
    "method": {
        "name": (str.strip, REQUIRED, _one_of("local", "global", *ROUND_METHODS)),
        "loss": (lambda raw: LossKind(raw.strip().lower()), LossKind.HINGE),
        "lambda": (float, REQUIRED, _POSITIVE), "max_epochs": (int, 20000, _at_least(1)),
        **{key: (str.strip if isinstance(default, str) else type(default), default)
           for key, default in baselines.METHOD_DEFAULTS.items()},
    },
    "network": {"preset": (str.lower, "wifi", _one_of("custom", *PRESETS)),
                "latency_ms": (float, REQUIRED), "bandwidth": (float, REQUIRED)},
    "systems": {"heterogeneity": (str.strip, "none"), "fixed_k": (int, None),
                "clock_rate": (float, 1e6), "drop_probability": (float, 0.0)},
    "compare": {
        "methods": (str, ("global", "local", "mtl"), _one_of("global", "local", "mtl")),
        "lambda_grid": (float, baselines.DEFAULT_LAMBDA_GRID, _POSITIVE),
        "shuffles": (int, 10, _at_least(1)), "k_folds": (int, 5, _at_least(2)),
        "train_fraction": (float, 0.75, _OPEN_UNIT), "max_epochs": (int, 20000, _at_least(1)),
        "mtl_inner_rounds": (int, 40), "mtl_outer_rounds": (int, 3),
        "mtl_gap_tol": (float, 1e-4), "mtl_budget_epochs": (int, 1),
    },
    "bench": {"methods": (str, ROUND_METHODS, _one_of(*ROUND_METHODS)),
              "presets": (str.lower, ("wifi", "lte", "3g"), _one_of("custom", *PRESETS)),
              "heterogeneity": (str, ("none", "low", "high")),
              "rounds": (int, 200, _at_least(1)),
              "target_suboptimality": (float, 1e-2, _OPEN_UNIT)},
    "fault": {"probabilities": (float, tuple(round(0.1 * i, 1) for i in range(10))),
              "rounds": (int, 500, _at_least(1)), "gap_tol": (float, 1e-4),
              "permanent_node": (int, 0)},
    "theory": {"eps": (float, 1e-3, _POSITIVE), "p_max": (float, 0.0),
               "theta_max": (float, 0.0), "initial_gap_bound": (float, None, _POSITIVE)},
}


def load_config(path) -> configparser.ConfigParser:
    """The parsed config, whichever command would run: a section or key that
    SETTINGS does not list is refused, and every setting the file holds is
    cast and held to its rule, whether or not the command's branch reads it.
    A ``[network]`` latency or bandwidth is held to ``NetworkPreset``'s check
    under any preset."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cfg.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    known = {cfg.default_section: {}, **SETTINGS}
    unknown = [f"[{section}]" for section in cfg if section not in known]
    unknown += [f"{section}.{key}" for section in cfg if section in known
                for key in cfg[section] if key not in known[section]]
    if unknown:
        raise ConfigError(f"{path}: unknown setting {', '.join(unknown)}")
    given = {(section, key): _parse(cfg, section, key)
             for section in cfg.sections() for key in cfg[section]}
    # The table has no rule for these two; a value the file leaves out is
    # stood in for by one that passes.
    with _settings("network"):
        NetworkPreset("custom", given.get(("network", "latency_ms"), 0.0),
                      given.get(("network", "bandwidth"), 1.0))
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


def _cast(name: str, raw: str, cast, rules):
    """``cast(raw)``, held to ``rules``; no float setting may be NaN or infinite."""
    try:
        value = cast(raw)
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"{name}: cannot parse {raw!r}") from None
    _require(cast is not float or math.isfinite(value), name, "must be finite", value)
    for test, text in rules:
        _require(test(value), name, text, value)
    return value


def _parse(cfg, section: str, key: str):
    """The value the config gives ``section.key``, cast and held to its rule
    as SETTINGS says; a list setting is comma-separated, each entry cast and
    held to the rule, and may not be empty."""
    cast, default, *rules = SETTINGS[section][key]
    name = f"{section}.{key}"
    raw = cfg.get(section, key)
    if not isinstance(default, tuple):
        return _cast(name, raw, cast, rules)
    parts = [part.strip() for part in raw.split(",")]
    values = [_cast(name, part, cast, rules) for part in parts if part]
    _require(len(values) > 0, name, "needs at least one entry", values)
    return values


def _get(cfg, section: str, key: str):
    """The setting ``section.key`` as ``_parse`` reads it, or its default
    when the config leaves it out."""
    default = SETTINGS[section][key][1]
    if not cfg.has_option(section, key):
        if default is REQUIRED:
            raise ConfigError(f"{section}.{key}: required setting missing")
        return default
    return _parse(cfg, section, key)


def _get_list(cfg, section: str, key: str) -> list:
    """The comma-separated setting ``section.key`` as ``_parse`` reads it,
    or its default."""
    if not cfg.has_option(section, key):
        return list(SETTINGS[section][key][1])
    return _parse(cfg, section, key)


def _synthetic_spec(cfg, seed: int) -> SyntheticSpec:
    spec = {key: _get(cfg, "synthetic", key) for key in SETTINGS["synthetic"]}
    spec["cluster_count"] = spec.pop("clusters")
    if spec["seed"] is None:
        spec["seed"] = seed
    with _settings("synthetic"):
        return SyntheticSpec(**spec)


def build_dataset(cfg, seed: int, scale: bool = True) -> FederatedDataset:
    """The ``[dataset]``, z-scored on all of its examples under ``standardize
    = true`` unless ``scale`` is False (``compare`` scales each of its
    training splits itself)."""
    if _get(cfg, "dataset", "source") == "csv":
        csv_dir = _get(cfg, "dataset", "csv_dir")
        if not os.path.isdir(csv_dir):
            raise ConfigError(f"dataset.csv_dir: directory not found: {csv_dir}")
        ds = load_federated_csv(csv_dir)
    else:
        ds = generate_synthetic(_synthetic_spec(cfg, seed))
    if scale and _get(cfg, "dataset", "standardize"):
        ds, _ = standardize(ds)
    return ds


def build_model(cfg):
    """The ``[model] kind`` coupling, built from the settings named after its
    fields."""
    model = MODELS[_get(cfg, "model", "kind")]
    with _settings("model"):
        return model(**{f.name: _get(cfg, "model", f.name) for f in fields(model)})


def build_preset(cfg, name: str | None = None) -> NetworkPreset:
    """The network preset ``name``, by default ``[network] preset``; ``custom``
    takes its latency and bandwidth from ``[network]``."""
    if name is None:
        name = _get(cfg, "network", "preset")
    if name == "custom":
        with _settings("network"):
            return NetworkPreset("custom", _get(cfg, "network", "latency_ms"),
                                 _get(cfg, "network", "bandwidth"))
    return PRESETS[name]


def build_heterogeneity(cfg, n_min: int, mode: str | None = None) -> HeterogeneityPolicy:
    """The budget policy ``mode``, by default ``[systems] heterogeneity``,
    with ``[systems] fixed_k``."""
    if mode is None:
        mode = _get(cfg, "systems", "heterogeneity")
    with _settings("systems"):
        return HeterogeneityPolicy(mode, n_min, _get(cfg, "systems", "fixed_k"))


def build_profiles(cfg, m: int, drop_probabilities=None) -> list[NodeProfile]:
    """One profile per node at ``[systems] clock_rate``; node t drops with
    ``drop_probabilities[t]``, by default ``[systems] drop_probability``."""
    clock = _get(cfg, "systems", "clock_rate")
    if drop_probabilities is None:
        drop_probabilities = [_get(cfg, "systems", "drop_probability")] * m
    with _settings("systems"):
        return [NodeProfile(clock_rate=clock, drop_probability=p)
                for p in drop_probabilities]


def build_solver_config(cfg, seed: int) -> SolverConfig:
    with _settings("solver"):
        return SolverConfig(**{key: _get(cfg, "solver", key) for key in SETTINGS["solver"]},
                            seed=seed)


def method_params(cfg) -> dict:
    """The [method] settings of the compared methods, each read and
    range-checked whichever method runs; each key, its type and its default
    come from ``baselines.METHOD_DEFAULTS``."""
    with _settings("method"):
        params = {key: _get(cfg, "method", key) for key in baselines.METHOD_DEFAULTS}
        baselines.check_method_params(params)
    return params


def _seed(cfg, args) -> int:
    if args.seed is None:
        return _get(cfg, "run", "seed")
    test, text = SETTINGS["run"]["seed"][2]
    _require(test(args.seed), "--seed", text, args.seed)
    return args.seed


def _load(args, scale: bool = True):
    """What every run command starts from: the config, the seed, the loss
    and the dataset."""
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    return cfg, seed, _get(cfg, "method", "loss"), build_dataset(cfg, seed, scale)


def _distinct(name: str, keys: list) -> None:
    """Each entry of a list setting names one run or output file: refuse a
    repeated entry."""
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
    # Task files go nowhere by default.
    if args.out is None and not cfg.has_option("output", "dir"):
        raise ConfigError("output.dir: required setting missing")
    outdir = args.out or _get(cfg, "output", "dir")
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
    outdir = args.out or _get(cfg, "output", "dir")
    method = _get(cfg, "method", "name")
    params = method_params(cfg)

    # Each branch reads all of its settings before the config is echoed.
    omega = None
    elapsed = None
    trace = []
    if method in ("local", "global"):
        lam = _get(cfg, "method", "lambda")
        max_epochs = _get(cfg, "method", "max_epochs")
        trainer = baselines.train_local if method == "local" else baselines.train_global
        _echo_config(args.config, outdir)
        primal = trainer(ds, lam, kind, max_epochs=max_epochs, seed=seed)
        final_gap = final_dual = final_primal = None
    else:
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
    names = _get_list(cfg, "compare", "methods")
    _distinct("compare.methods", names)
    max_epochs = _get(cfg, "compare", "max_epochs")
    trainers = {}
    for name in names:
        if name == "global":
            trainers[name] = baselines.global_trainer(kind, max_epochs=max_epochs)
        elif name == "local":
            trainers[name] = baselines.local_trainer(kind, max_epochs=max_epochs)
        else:
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
                    inner_rounds=_get(cfg, "compare", "mtl_inner_rounds"),
                    outer_rounds=_get(cfg, "compare", "mtl_outer_rounds"),
                    gap_tol=_get(cfg, "compare", "mtl_gap_tol"),
                )
                trainers[name] = baselines.mocha_trainer(
                    factory, config, kind=kind,
                    budget_epochs=_get(cfg, "compare", "mtl_budget_epochs"))
    return trainers


def cmd_compare(args) -> int:
    # Fit on each shuffle's training split, so that no test example shapes
    # the scaling.
    cfg, seed, kind, ds = _load(args, scale=False)
    outdir = args.out or _get(cfg, "output", "dir")
    grid = _get_list(cfg, "compare", "lambda_grid")
    trainers = _compare_trainers(cfg, kind, seed)
    shuffles = _get(cfg, "compare", "shuffles")
    k_folds = _get(cfg, "compare", "k_folds")
    train_fraction = _get(cfg, "compare", "train_fraction")
    # Every shuffle's training split has these sizes; model_select needs a
    # held-out example in every fold.
    largest = max(train_test_split(ds, train_fraction, seed)[0].task_sizes())
    _require(k_folds <= largest, "compare.k_folds",
             f"must be at most the largest training split, {largest} examples", k_folds)
    rows = baselines.compare_models(
        ds, trainers, grid, shuffles=shuffles, seed=seed, k_folds=k_folds,
        train_fraction=train_fraction, scaled=_get(cfg, "dataset", "standardize"),
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
    outdir = args.out or _get(cfg, "output", "dir")
    model = build_model(cfg)
    methods = _get_list(cfg, "bench", "methods")
    presets = _get_list(cfg, "bench", "presets")
    het_modes = _get_list(cfg, "bench", "heterogeneity")
    rounds = _get(cfg, "bench", "rounds")
    target_rel = _get(cfg, "bench", "target_suboptimality")
    profiles = build_profiles(cfg, ds.m)
    # No gap target: every cell runs the full round count.  One outer
    # iteration, so MOCHA keeps the initial coupling that the floor and the
    # baselines solve against.
    config = replace(build_solver_config(cfg, seed), inner_rounds=rounds, outer_rounds=1,
                     gap_tol=None)
    _distinct("bench.methods", methods)
    _distinct("bench.presets", presets)
    _distinct("bench.heterogeneity", het_modes)
    presets = [build_preset(cfg, name) for name in presets]
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
    outdir = args.out or _get(cfg, "output", "dir")
    model = build_model(cfg)
    probabilities = _get_list(cfg, "fault", "probabilities")
    rounds = _get(cfg, "fault", "rounds")
    gap_tol = _get(cfg, "fault", "gap_tol")
    # One node that never reports, everyone else reliable.
    permanent = _get(cfg, "fault", "permanent_node")
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
    eps = _get(cfg, "theory", "eps")
    p_max = _get(cfg, "theory", "p_max")
    theta_max = _get(cfg, "theory", "theta_max")
    with _settings("theory"):
        tbar = theory_mod.theta_bar(p_max, theta_max)
    gap0 = _get(cfg, "theory", "initial_gap_bound")
    rel = build_relationship(model, initial_omega(model, ds.m), gamma,
                             initial_eigenpairs(model, ds.m))
    stats = theory_mod.sigma_stats(ds, rel.mbar)
    consts = loss_constants(kind)
    out = {
        "n": ds.n,
        "m": ds.m,
        "d": ds.d,
        "loss": kind.value,
        "gamma": gamma,
        "sigma_prime": rel.sigma_prime,
        "coupling": ("initial: sigma_prime, s and the round bounds describe the coupling "
                     "a run starts from, not one that it learns"),
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
    # Printed only, unless --out or [output] dir names a directory.
    outdir = args.out
    if outdir is None and cfg.has_option("output", "dir"):
        outdir = _get(cfg, "output", "dir")
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "theory.json"), "w", encoding="ascii") as fh:
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
