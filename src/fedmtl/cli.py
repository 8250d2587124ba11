"""Experiment runner: seeded, config-driven runs with stable file outputs.

Subcommands: generate | train | compare | bench | fault | theory.
Configuration is a flat INI file (key = value under [section] headers); no
environment variables are consulted, so a run is reproducible from the config
file and seed alone.  The config is echoed into the output directory.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import configparser

import numpy as np

from . import baselines
from .data import (
    FederatedDataset,
    SyntheticSpec,
    generate_synthetic,
    load_federated_csv,
    prediction_error,
    save_federated_csv,
    standardize,
)
from .losses import LossKind, loss_constants
from .regularizers import (
    MeanRegularized,
    ProbabilisticPrior,
    build_relationship,
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
from .solver import SolverConfig, write_trace_csv, write_trace_jsonl
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


def _get(cfg, section, key, cast, default=None, required=False):
    if not cfg.has_option(section, key):
        if required:
            raise ConfigError(f"{section}.{key}: required setting missing")
        return default
    raw = cfg.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from None


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
    try:
        return [cast(part.strip()) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{s}.{k}: cannot parse list {raw!r}") from None


def parse_loss(name: str) -> LossKind:
    try:
        return LossKind(name.lower())
    except ValueError:
        raise ConfigError(f"method.loss: unknown loss {name!r}") from None


def _synthetic_spec(cfg, seed: int) -> SyntheticSpec:
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


def build_dataset(cfg, seed: int) -> FederatedDataset:
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
    if _get_bool(cfg, "dataset", "standardize", False):
        ds, _ = standardize(ds)
    return ds


def build_model(cfg, lam_override: float | None = None):
    kind = _get_str(cfg, "model", "kind", "mean_regularized")
    if kind == "mean_regularized":
        return MeanRegularized(
            lambda1=_get_float(cfg, "model", "lambda1", 1.0),
            lambda2=_get_float(cfg, "model", "lambda2", 1.0),
        )
    if kind == "probabilistic":
        return ProbabilisticPrior(
            lam=lam_override if lam_override is not None
            else _get_float(cfg, "model", "lam", 1.0),
            sigma2_prior=_get_float(cfg, "model", "sigma2_prior", 1.0),
            ridge_eps=_get_float(cfg, "model", "ridge_eps", 1e-6),
        )
    raise ConfigError(f"model.kind: unknown coupling model {kind!r}")


def build_preset(cfg) -> NetworkPreset:
    name = _get_str(cfg, "network", "preset", "wifi").lower()
    if name == "custom":
        return NetworkPreset(
            "custom",
            _get_float(cfg, "network", "latency_ms", required=True),
            _get_float(cfg, "network", "bandwidth", required=True),
        )
    if name not in PRESETS:
        raise ConfigError(f"network.preset: unknown preset {name!r}")
    return PRESETS[name]


def build_heterogeneity(cfg, n_min: int) -> HeterogeneityPolicy:
    mode = _get_str(cfg, "systems", "heterogeneity", "none")
    k = _get_int(cfg, "systems", "fixed_k", None)
    try:
        return HeterogeneityPolicy(mode=mode, n_min=n_min, k=k)
    except ValueError as exc:
        raise ConfigError(f"systems.heterogeneity: {exc}") from None


def build_profiles(cfg, m: int) -> list[NodeProfile]:
    clock = _get_float(cfg, "systems", "clock_rate", 1e6)
    p = _get_float(cfg, "systems", "drop_probability", 0.0)
    try:
        return [NodeProfile(clock_rate=clock, drop_probability=p) for _ in range(m)]
    except ValueError as exc:
        raise ConfigError(f"systems: {exc}") from None


def build_solver_config(cfg, seed: int) -> SolverConfig:
    try:
        return SolverConfig(
            gamma=_get_float(cfg, "solver", "gamma", 1.0),
            sigma_prime_mode=_get_str(cfg, "solver", "sigma_prime_mode", "global"),
            inner_rounds=_get_int(cfg, "solver", "inner_rounds", 100),
            outer_rounds=_get_int(cfg, "solver", "outer_rounds", 1),
            gap_tol=_get_float(cfg, "solver", "gap_tol", None),
            workers=_get_int(cfg, "solver", "workers", 1),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None


def method_params(cfg) -> dict:
    return {
        "theta": _get_float(cfg, "method", "theta", 0.1),
        "batch": _get_int(cfg, "method", "batch", 1),
        "beta": _get_float(cfg, "method", "beta", 1.0),
        "step": _get_float(cfg, "method", "step", 0.1),
        "schedule": _get_str(cfg, "method", "schedule", "constant"),
        "max_passes": _get_int(cfg, "method", "max_passes", 500),
    }


def _echo_config(config_path, outdir) -> None:
    os.makedirs(outdir, exist_ok=True)
    shutil.copyfile(config_path, os.path.join(outdir, "config.ini"))


def _write_summary(outdir, summary: dict) -> None:
    with open(os.path.join(outdir, "summary.json"), "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else _get_int(cfg, "run", "seed", 0)
    outdir = args.out or _get_str(cfg, "output", "dir", required=True)
    ds = generate_synthetic(_synthetic_spec(cfg, seed))
    save_federated_csv(ds, outdir)
    sizes = ds.task_sizes()
    print(f"wrote {ds.m} task files to {outdir}")
    print(f"m={ds.m} d={ds.d} n={ds.n} n_t(min/mean/max)="
          f"{min(sizes)}/{np.mean(sizes):.1f}/{max(sizes)}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else _get_int(cfg, "run", "seed", 0)
    outdir = args.out or _get_str(cfg, "output", "dir", "out")
    method = _get_str(cfg, "method", "name", required=True)
    kind = parse_loss(_get_str(cfg, "method", "loss", "hinge"))
    ds = build_dataset(cfg, seed)

    # Each branch reads all of its settings before the config is echoed.
    omega = None
    elapsed = None
    trace = []
    if method in ("local", "global"):
        lam = _get_float(cfg, "method", "lambda", required=True)
        max_epochs = _get_int(cfg, "method", "max_epochs", 20000)
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
        params = method_params(cfg)
        _echo_config(args.config, outdir)
        sim = simulate_run(
            method, ds, kind=kind, model=model, preset=preset,
            heterogeneity=het, seed=seed, rounds=solver_config.inner_rounds,
            gap_tol=solver_config.gap_tol, profiles=profiles,
            method_params=params, solver_config=solver_config,
        )
        trace, primal, omega = sim.trace, sim.primal, sim.omega
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


def _compare_trainers(cfg, kind: LossKind):
    names = _get_list(cfg, "compare", "methods", str, ["global", "local", "mtl"])
    max_epochs = _get_int(cfg, "compare", "max_epochs", 20000)
    trainers = {}
    for name in names:
        if name == "global":
            trainers[name] = baselines.global_trainer(kind, max_epochs=max_epochs)
        elif name == "local":
            trainers[name] = baselines.local_trainer(kind, max_epochs=max_epochs)
        elif name == "mtl":
            model_kind = _get_str(cfg, "model", "kind", "probabilistic")
            if model_kind == "probabilistic":
                sigma2 = _get_float(cfg, "model", "sigma2_prior", 1.0)
                ridge = _get_float(cfg, "model", "ridge_eps", 1e-6)
                factory = lambda lam: ProbabilisticPrior(lam, sigma2, ridge)
            else:
                factory = lambda lam: MeanRegularized(lam, lam)
            trainers[name] = baselines.mocha_trainer(
                factory, kind=kind,
                inner_rounds=_get_int(cfg, "compare", "mtl_inner_rounds", 40),
                outer_rounds=_get_int(cfg, "compare", "mtl_outer_rounds", 3),
                gap_tol=_get_float(cfg, "compare", "mtl_gap_tol", 1e-4),
                budget_epochs=_get_int(cfg, "compare", "mtl_budget_epochs", 1),
            )
        else:
            raise ConfigError(f"compare.methods: unknown method {name!r}")
    return trainers


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else _get_int(cfg, "run", "seed", 0)
    outdir = args.out or _get_str(cfg, "output", "dir", "out")
    kind = parse_loss(_get_str(cfg, "method", "loss", "hinge"))
    ds = build_dataset(cfg, seed)
    grid = _get_list(cfg, "compare", "lambda_grid", float,
                     list(baselines.DEFAULT_LAMBDA_GRID))
    rows = baselines.compare_models(
        ds, _compare_trainers(cfg, kind), grid,
        shuffles=_get_int(cfg, "compare", "shuffles", 10),
        seed=seed,
        k_folds=_get_int(cfg, "compare", "k_folds", 5),
        train_fraction=_get_float(cfg, "compare", "train_fraction", 0.75),
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
    from .solver import ConstantPolicy, run_mocha

    config = SolverConfig(inner_rounds=rounds, gap_tol=1e-9, seed=seed)
    result = run_mocha(
        ds, model, config, ConstantPolicy([t.n for t in ds.tasks]), kind
    )
    last = result.trace[-1]
    return last.primal - last.gap


def cmd_bench(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else _get_int(cfg, "run", "seed", 0)
    outdir = args.out or _get_str(cfg, "output", "dir", "out")
    kind = parse_loss(_get_str(cfg, "method", "loss", "hinge"))
    ds = build_dataset(cfg, seed)
    model = build_model(cfg)
    methods = _get_list(cfg, "bench", "methods", str, list(ROUND_METHODS))
    presets = _get_list(cfg, "bench", "presets", str, ["wifi", "lte", "3g"])
    het_modes = _get_list(cfg, "bench", "heterogeneity", str, ["none", "low", "high"])
    rounds = _get_int(cfg, "bench", "rounds", 200)
    target_rel = _get_float(cfg, "bench", "target_suboptimality", 1e-2)
    params = method_params(cfg)
    profiles = build_profiles(cfg, ds.m)
    n_min = min(ds.task_sizes())
    solver_config = build_solver_config(cfg, seed)
    if not presets:
        raise ConfigError("bench.presets: needs at least one preset")
    for preset_name in presets:
        if preset_name not in PRESETS:
            raise ConfigError(f"bench.presets: unknown preset {preset_name!r}")
    for method in methods:
        if method not in ROUND_METHODS:
            raise ConfigError(f"bench.methods: unknown method {method!r}")
    fixed_k = _get_int(cfg, "systems", "fixed_k", None)
    try:
        hets = [HeterogeneityPolicy(mode, n_min, fixed_k) for mode in het_modes]
    except ValueError as exc:
        raise ConfigError(f"bench.heterogeneity: {exc}") from None

    _echo_config(args.config, outdir)
    floor = _reference_primal_floor(ds, kind, model, seed)
    summary = {"primal_floor": floor, "cells": {}}
    for het in hets:
        for method in methods:
            # The preset changes only the simulated time, so one solve
            # serves every preset.
            trace = simulate_run(
                method, ds, kind=kind, model=model,
                preset=PRESETS[presets[0]], heterogeneity=het, seed=seed,
                rounds=rounds, profiles=profiles, method_params=params,
                solver_config=solver_config,
            ).trace
            for preset_name in presets:
                attach_times(trace, ds.d, profiles, PRESETS[preset_name])
                cell = f"{method}_{preset_name}_{het.mode}"
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
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else _get_int(cfg, "run", "seed", 0)
    outdir = args.out or _get_str(cfg, "output", "dir", "out")
    kind = parse_loss(_get_str(cfg, "method", "loss", "hinge"))
    ds = build_dataset(cfg, seed)
    model = build_model(cfg)
    probabilities = _get_list(
        cfg, "fault", "probabilities", float, [round(0.1 * i, 1) for i in range(10)]
    )
    rounds = _get_int(cfg, "fault", "rounds", 500)
    gap_tol = _get_float(cfg, "fault", "gap_tol", 1e-4)
    clock = _get_float(cfg, "systems", "clock_rate", 1e6)
    n_min = min(ds.task_sizes())
    het = HeterogeneityPolicy("none", n_min)
    solver_config = build_solver_config(cfg, seed)
    preset = build_preset(cfg)

    _echo_config(args.config, outdir)
    summary = {}

    def _run(tag, profiles):
        sim = simulate_run(
            "mocha", ds, kind=kind, model=model, preset=preset,
            heterogeneity=het, seed=seed, rounds=rounds, gap_tol=gap_tol,
            profiles=profiles, solver_config=solver_config,
        )
        write_trace_csv(os.path.join(outdir, f"fault_{tag}.csv"), sim.trace)
        last = sim.trace[-1]
        summary[tag] = {"rounds": len(sim.trace), "final_gap": last.gap}

    for p in probabilities:
        profiles = [NodeProfile(clock_rate=clock, drop_probability=p)
                    for _ in range(ds.m)]
        _run(f"p{p:g}", profiles)
    # One node that never reports, everyone else reliable.
    permanent = _get_int(cfg, "fault", "permanent_node", 0)
    profiles = [
        NodeProfile(clock_rate=clock, drop_probability=1.0 if t == permanent else 0.0)
        for t in range(ds.m)
    ]
    _run("permanent", profiles)
    _write_summary(outdir, summary)
    for tag, row in summary.items():
        print(f"{tag:>10}: rounds={row['rounds']:4d} gap={row['final_gap']:.3e}")
    return 0


def cmd_theory(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else _get_int(cfg, "run", "seed", 0)
    kind = parse_loss(_get_str(cfg, "method", "loss", "hinge"))
    ds = build_dataset(cfg, seed)
    model = build_model(cfg)
    gamma = _get_float(cfg, "theory", "gamma", 1.0)
    rel = build_relationship(model, initial_omega(model, ds.m), gamma)
    stats = theory_mod.sigma_stats(ds, rel.mbar)
    eps = _get_float(cfg, "theory", "eps", 1e-3)
    p_max = _get_float(cfg, "theory", "p_max", 0.0)
    theta_max = _get_float(cfg, "theory", "theta_max", 0.0)
    gap0 = _get_float(cfg, "theory", "initial_gap_bound", None)
    tbar = theory_mod.theta_bar(p_max, theta_max)
    consts = loss_constants(kind)
    out = {
        "n": ds.n,
        "m": ds.m,
        "d": ds.d,
        "loss": kind.value,
        "gamma": gamma,
        "sigma_prime": rel.sigma_prime,
        "sigma_prime_per_task": list(rel.sigma_prime_per_task),
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
    text = json.dumps(out, indent=2, sort_keys=True)
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
