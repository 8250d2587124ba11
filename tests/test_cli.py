import configparser
import json
import os

import numpy as np
import pytest

from fedmtl import baselines, solver
from fedmtl.cli import main
from fedmtl.regularizers import MeanRegularized, ProbabilisticPrior, read_matrix_csv
from fedmtl.solver import PrimalState


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def write_config(path, text):
    path.write_text(text)
    return str(path)


BASE_SYNTH = """
[dataset]
source = synthetic

[synthetic]
m = 3
d = 5
n_min = 12
n_max = 14
clusters = 1
deviation = 0.1
noise = 0.0
seed = 2

[run]
seed = 5
"""


def test_generate_and_roundtrip(tmp_path):
    cfg = write_config(tmp_path / "gen.ini", BASE_SYNTH + f"""
[output]
dir = {tmp_path / 'data'}
""")
    assert main(["generate", "--config", cfg]) == 0
    files = sorted(os.listdir(tmp_path / "data"))
    assert files == ["task_0.csv", "task_1.csv", "task_2.csv"]
    rows = (tmp_path / "data" / "task_0.csv").read_text().splitlines()
    assert 12 <= len(rows) <= 14

    # byte-identical regeneration
    first = {f: (tmp_path / "data" / f).read_bytes() for f in files}
    assert main(["generate", "--config", cfg]) == 0
    for f in files:
        assert (tmp_path / "data" / f).read_bytes() == first[f]


def test_train_mocha_and_reproducibility(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "train.ini", BASE_SYNTH + f"""
[model]
kind = mean_regularized
lambda1 = 1.0
lambda2 = 1.0

[method]
name = mocha
loss = hinge

[solver]
inner_rounds = 400
gap_tol = 1e-4

[network]
preset = wifi

[output]
dir = {out}
""")
    assert main(["train", "--config", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_gap"] <= 1e-4
    assert (out / "omega.csv").exists()
    assert (out / "config.ini").exists()
    w = read_matrix_csv(out / "W.csv")
    assert w.shape == (5, 3)
    first = (out / "summary.json").read_bytes()
    assert main(["train", "--config", cfg]) == 0
    assert (out / "summary.json").read_bytes() == first

    # traces parse and schemas line up
    rows = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    assert rows and rows[-1]["gap"] <= 1e-4
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == "h,elapsed_ms_estimated,dual,primal,gap,dropped,theta"


def test_train_mocha_per_task_sigma_mode(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "train.ini", BASE_SYNTH + f"""
[model]
kind = probabilistic

[method]
name = mocha
loss = hinge

[solver]
sigma_prime_mode = per_task
inner_rounds = 15
outer_rounds = 2

[output]
dir = {out}
""")
    assert main(["train", "--config", cfg]) == 0
    rows = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    assert len(rows) == 30 and rows[-1]["gap"] < rows[0]["gap"]


@pytest.mark.parametrize("method", ["cocoa", "mb_sdca"])
def test_train_baseline_honours_solver_gamma(tmp_path, method):
    traces = []
    for gamma in (1.0, 0.7):
        out = tmp_path / f"out-{gamma}"
        cfg = write_config(tmp_path / f"train-{gamma}.ini", BASE_SYNTH + f"""
[method]
name = {method}
loss = squared

[solver]
gamma = {gamma}
inner_rounds = 5

[output]
dir = {out}
""")
        assert main(["train", "--config", cfg]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] != traces[1]


def test_train_global_omits_omega(tmp_path):
    out = tmp_path / "gout"
    cfg = write_config(tmp_path / "g.ini", BASE_SYNTH + f"""
[method]
name = global
loss = hinge
lambda = 0.5

[output]
dir = {out}
""")
    assert main(["train", "--config", cfg]) == 0
    assert not (out / "omega.csv").exists()
    w = read_matrix_csv(out / "W.csv")
    assert np.allclose(w, w[:, [0]][:, [0, 0, 0]])


def test_cli_error_codes(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.ini")]) == 1
    bad_out = tmp_path / "bad_out"
    bad = write_config(tmp_path / "bad.ini", BASE_SYNTH + f"""
[method]
name = not_a_method

[output]
dir = {bad_out}
""")
    assert main(["train", "--config", bad]) == 1
    assert not bad_out.exists()
    missing = write_config(tmp_path / "missing.ini", """
[dataset]
source = synthetic

[method]
name = mocha
""")
    assert main(["train", "--config", missing]) == 1

    # runtime failure: malformed csv data discovered mid-run
    data_dir = tmp_path / "csvdata"
    data_dir.mkdir()
    (data_dir / "task_0.csv").write_text("1,0.5\n0,0.5\n")
    runtime = write_config(tmp_path / "runtime.ini", f"""
[dataset]
source = csv
csv_dir = {data_dir}

[method]
name = mocha

[output]
dir = {tmp_path / 'r'}
""")
    assert main(["train", "--config", runtime]) == 2


@pytest.mark.parametrize("big, code", [("1e200", 2), ("1e150", 0)])
def test_train_rejects_a_feature_whose_squared_norm_overflows(tmp_path, big, code):
    data_dir = tmp_path / "csvdata"
    data_dir.mkdir()
    (data_dir / "task_0.csv").write_text(f"1,0.5,0.25\n-1,{big},0.5\n1,-0.5,1.0\n")
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "big.ini", f"""
[dataset]
source = csv
csv_dir = {data_dir}

[method]
name = mocha
loss = squared

[solver]
inner_rounds = 5

[output]
dir = {out}
""")
    assert main(["train", "--config", cfg]) == code
    if code:
        assert not out.exists()
    else:
        summary = json.loads((out / "summary.json").read_text(), parse_constant=_no_constant)
        assert np.isfinite(summary["final_gap"])


TINY = BASE_SYNTH + """
[model]
kind = mean_regularized

[method]
name = NAME
loss = squared
lambda = 0.1
theta = 0.5
batch = 4
step = 0.01

[solver]
inner_rounds = 5

[compare]
shuffles = 1
k_folds = 2
lambda_grid = 1.0
mtl_inner_rounds = 5
mtl_outer_rounds = 1

[bench]
presets = wifi
heterogeneity = none
rounds = 3

[fault]
probabilities = 0.0
rounds = 5
"""


def _strict_json_files(root):
    """Every .json and .jsonl file under ``root``, each line parsed as strict
    JSON: NaN and Infinity are refused."""
    files = {}
    for path in sorted([*root.rglob("*.json"), *root.rglob("*.jsonl")]):
        text = path.read_text()
        lines = text.splitlines() if path.suffix == ".jsonl" else [text]
        files[path.relative_to(root).as_posix()] = [
            json.loads(line, parse_constant=_no_constant) for line in lines]
    return files


def test_every_json_output_is_strict(tmp_path):
    runs = [(command, "mocha") for command in ("generate", "compare", "bench", "fault", "theory")]
    runs += [("train", method) for method in ("mocha", "cocoa", "mb_sgd", "mb_sdca",
                                              "local", "global")]
    for command, method in runs:
        cfg = write_config(tmp_path / f"{method}.ini", TINY.replace("NAME", method))
        out = tmp_path / "out" / f"{command}_{method}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0, (command, method)
    files = _strict_json_files(tmp_path / "out")
    assert len(files) == 16
    assert "theory_mocha/theory.json" in files and "train_local/trace.jsonl" in files


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the run overflows by design
def test_a_diverging_run_writes_null_for_its_primal(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "sgd.ini", BASE_SYNTH + """
[model]
kind = mean_regularized

[method]
name = mb_sgd
loss = squared
step = 1e3
batch = 5

[solver]
inner_rounds = 60
""")
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    files = _strict_json_files(out)
    (summary,) = files["summary.json"]
    assert summary["final_primal"] is None
    assert len(files["trace.jsonl"]) == 60 and files["trace.jsonl"][-1]["primal"] is None


def test_cli_seed_override(tmp_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    cfg = write_config(tmp_path / "seed.ini", BASE_SYNTH + """
[model]
kind = mean_regularized

[method]
name = mb_sdca
batch = 3

[solver]
inner_rounds = 5

[output]
dir = PLACEHOLDER
""")
    assert main(["train", "--config", cfg, "--out", str(out1), "--seed", "1"]) == 0
    assert main(["train", "--config", cfg, "--out", str(out2), "--seed", "2"]) == 0
    a = json.loads((out1 / "summary.json").read_text())
    b = json.loads((out2 / "summary.json").read_text())
    assert a["seed"] == 1 and b["seed"] == 2
    assert a["final_dual"] != b["final_dual"]


def test_compare_command(tmp_path):
    out = tmp_path / "cmp"
    cfg = write_config(tmp_path / "cmp.ini", BASE_SYNTH + f"""
[method]
loss = hinge

[model]
kind = probabilistic

[compare]
shuffles = 2
k_folds = 2
lambda_grid = 0.1,1.0
methods = global,local,mtl
mtl_inner_rounds = 10
mtl_outer_rounds = 1

[output]
dir = {out}
""")
    assert main(["compare", "--config", cfg]) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0].startswith("method,mean_error,std_error")
    assert len(lines) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["rows"]) == {"global", "local", "mtl"}
    # noise-free single-cluster data: all three models are close
    means = [row["mean_error"] for row in summary["rows"].values()]
    assert max(means) - min(means) <= 0.005 + 0.15  # sanity band for tiny data


def test_fault_command(tmp_path):
    out = tmp_path / "fault"
    cfg = write_config(tmp_path / "fault.ini", BASE_SYNTH + f"""
[model]
kind = mean_regularized

[method]
name = mocha
loss = squared

[fault]
probabilities = 0.0,0.3
rounds = 120
gap_tol = 1e-3

[output]
dir = {out}
""")
    assert main(["fault", "--config", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"p0", "p0.3", "permanent"}
    assert summary["p0"]["final_gap"] <= 1e-3
    assert summary["p0.3"]["final_gap"] <= 1e-3
    assert summary["p0.3"]["rounds"] >= summary["p0"]["rounds"]
    assert summary["permanent"]["final_gap"] > 1e-3
    assert (out / "fault_p0.3.csv").exists()


def test_fault_rejects_bad_permanent_node_before_writing(tmp_path):
    for i, bad in enumerate(["abc", "3", "-1"]):
        out = tmp_path / f"fault{i}"
        cfg = write_config(tmp_path / f"fault{i}.ini", BASE_SYNTH + f"""
[fault]
probabilities = 0.0
rounds = 5
permanent_node = {bad}

[output]
dir = {out}
""")
        assert main(["fault", "--config", cfg]) == 1, bad
        assert not out.exists(), bad


def test_zero_rounds_rejected_before_writing(tmp_path):
    for command in ("bench", "fault"):
        out = tmp_path / command
        cfg = write_config(tmp_path / f"{command}.ini", BASE_SYNTH + f"""
[{command}]
rounds = 0

[output]
dir = {out}
""")
        assert main([command, "--config", cfg]) == 1, command
        assert not out.exists(), command


def test_fault_records_a_run_that_starts_converged(tmp_path, capsys):
    out = tmp_path / "fault"
    cfg = write_config(tmp_path / "fault.ini", BASE_SYNTH + f"""
[fault]
probabilities = 0.0
rounds = 5
gap_tol = 1e9

[output]
dir = {out}
""")
    assert main(["fault", "--config", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["p0"] == {"rounds": 0, "final_gap": None}
    assert summary["permanent"] == {"rounds": 0, "final_gap": None}
    assert "gap=-" in capsys.readouterr().out


def test_compare_rejects_bad_settings_before_writing(tmp_path):
    for i, bad in enumerate(["k_folds = 1", "train_fraction = 0", "train_fraction = 1",
                             "shuffles = 0", "lambda_grid =", "methods =",
                             "mtl_inner_rounds = -3", "mtl_outer_rounds = -1",
                             "mtl_budget_epochs = 0", "max_epochs = 0"]):
        out = tmp_path / f"cmp{i}"
        cfg = write_config(tmp_path / f"cmp{i}.ini", BASE_SYNTH + f"""
[compare]
{bad}

[output]
dir = {out}
""")
        assert main(["compare", "--config", cfg]) == 1, bad
        assert not out.exists(), bad


def test_compare_rejects_more_folds_than_a_training_split_holds(tmp_path, capsys):
    # Every training split of these 4-example tasks holds 3 examples, so a
    # fourth or fifth fold would hold out none.
    for k_folds, code in ((5, 1), (4, 1), (3, 0)):
        out = tmp_path / f"cmp{k_folds}"
        cfg = write_config(tmp_path / f"cmp{k_folds}.ini", f"""
[dataset]
source = synthetic

[synthetic]
m = 3
d = 4
n_min = 4
n_max = 4
seed = 2

[method]
loss = squared

[compare]
methods = mtl
lambda_grid = 0.1, 1.0
shuffles = 2
k_folds = {k_folds}

[output]
dir = {out}
""")
        assert main(["compare", "--config", cfg]) == code, k_folds
        err = capsys.readouterr().err
        if code:
            assert "compare.k_folds" in err and not out.exists()
        else:
            summary = json.loads((out / "summary.json").read_text())
            assert 0.0 <= summary["rows"]["mtl"]["mean_error"] <= 1.0


def test_bad_method_params_rejected_before_writing(tmp_path):
    cases = [
        ("train", "name = cocoa\ntheta = 1.5"),
        ("train", "name = mb_sdca\nbatch = 2\nbeta = 5"),
        ("train", "name = mb_sgd\nschedule = bogus"),
        ("train", "name = mb_sgd\nstep = nan"),
        ("train", "name = mb_sgd\nstep = inf"),
        ("train", "name = mb_sgd\nstep = -0.1"),
        ("train", "name = mb_sgd\nstep = 0"),
        ("train", "name = cocoa\nmax_passes = 0"),
        ("train", "name = local\nlambda = -1"),
        ("train", "name = global\nlambda = 0"),
        ("train", "name = local\nlambda = 1\nmax_epochs = 0"),
        ("bench", "theta = 1.5"),
    ]
    for i, (command, method) in enumerate(cases):
        out = tmp_path / f"run{i}"
        cfg = write_config(tmp_path / f"run{i}.ini", BASE_SYNTH + f"""
[method]
{method}

[bench]
rounds = 2

[output]
dir = {out}
""")
        assert main([command, "--config", cfg]) == 1, method
        assert not out.exists(), method


def test_bad_solver_settings_rejected_before_writing(tmp_path):
    for i, bad in enumerate(["inner_rounds = 0", "inner_rounds = -4", "outer_rounds = -1",
                             "sigma_prime_mode = bogus"]):
        out = tmp_path / f"run{i}"
        cfg = write_config(tmp_path / f"run{i}.ini", BASE_SYNTH + f"""
[method]
name = mocha

[solver]
{bad}

[output]
dir = {out}
""")
        assert main(["train", "--config", cfg]) == 1, bad
        assert not out.exists(), bad


@pytest.mark.parametrize("command, settings", [
    ("train", "[model]\nlambda2 = 0"),
    ("train", "[synthetic]\nm = 0"),
    ("generate", "[synthetic]\nm = 0"),
    ("train", "[network]\npreset = custom\nlatency_ms = -1\nbandwidth = 100"),
    # Non-finite settings are rejected where they enter, before any output.
    ("train", "[model]\nlambda1 = nan"),
    ("train", "[model]\nlambda2 = nan"),
    ("train", "[model]\nlambda1 = inf"),
    ("train", "[model]\nkind = probabilistic\nlam = nan"),
    ("train", "[model]\nkind = probabilistic\nsigma2_prior = nan"),
    ("train", "[model]\nkind = probabilistic\nridge_eps = nan"),
    ("train", "[systems]\nclock_rate = nan"),
    ("train", "[network]\npreset = custom\nlatency_ms = nan\nbandwidth = 100"),
    ("train", "[synthetic]\ndeviation = nan"),
    ("theory", "[theory]\np_max = 1.5"),
    ("theory", "[theory]\neps = 0"),
    ("theory", "[solver]\ngamma = 2"),
    ("compare", "[compare]\nlambda_grid = -1, 0.5"),
    ("compare", "[model]\nkind = bogus"),
    ("bench", "[bench]\ntarget_suboptimality = -1"),
])
def test_out_of_range_setting_exits_1_before_writing(tmp_path, command, settings):
    parser = configparser.ConfigParser()
    parser.read_string(BASE_SYNTH + "\n[method]\nname = mocha\n")
    parser.read_string(settings)
    with open(tmp_path / "bad.ini", "w") as fh:
        parser.write(fh)
    out = tmp_path / "out"
    assert main([command, "--config", str(tmp_path / "bad.ini"), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("model, expected", [
    ("", MeanRegularized(0.5, 0.5)),
    ("kind = probabilistic\nsigma2_prior = 2", ProbabilisticPrior(0.5, 2.0, 1e-6)),
])
def test_compare_couples_tasks_as_train_does(tmp_path, monkeypatch, model, expected):
    factories = []

    def mocha_trainer(factory, config, **settings):
        factories.append(factory)
        return lambda ds, lam: PrimalState(np.zeros((ds.d, ds.m)))

    monkeypatch.setattr(baselines, "mocha_trainer", mocha_trainer)
    cfg = write_config(tmp_path / "cmp.ini", BASE_SYNTH + f"""
[model]
{model}

[compare]
methods = mtl
shuffles = 1
k_folds = 2
lambda_grid = 0.5

[output]
dir = {tmp_path / "cmp"}
""")
    assert main(["compare", "--config", cfg]) == 0
    (factory,) = factories
    assert factory(0.5) == expected


def test_compare_runs_mtl_with_the_solver_settings(tmp_path, monkeypatch):
    calls = []
    run_mocha = solver.run_mocha

    def spy(ds, model, config, policy, kind):
        calls.append((config.gamma, config.sigma_prime_mode, config.seed,
                      config.inner_rounds, config.outer_rounds, config.gap_tol))
        return run_mocha(ds, model, config, policy, kind)

    monkeypatch.setattr(solver, "run_mocha", spy)
    cfg = write_config(tmp_path / "cmp.ini", BASE_SYNTH + f"""
[model]
kind = probabilistic

[solver]
gamma = 0.5
sigma_prime_mode = per_task
inner_rounds = 7
gap_tol = 0.5

[compare]
methods = mtl
shuffles = 1
k_folds = 2
lambda_grid = 0.5
mtl_inner_rounds = 6
mtl_outer_rounds = 2
mtl_gap_tol = 1e-3

[output]
dir = {tmp_path / "cmp"}
""")
    assert main(["compare", "--config", cfg]) == 0
    # Two folds and the refit; the round counts and gap come from [compare].
    assert len(calls) == 3 and set(calls) == {(0.5, "per_task", 5, 6, 2, 1e-3)}


def test_bench_command(tmp_path):
    out = tmp_path / "bench"
    cfg = write_config(tmp_path / "bench.ini", BASE_SYNTH + f"""
[model]
kind = mean_regularized

[method]
loss = squared
theta = 0.5
batch = 4
step = 0.01

[bench]
methods = mocha,mb_sgd
presets = wifi
heterogeneity = none,high
rounds = 30

[output]
dir = {out}
""")
    assert main(["bench", "--config", cfg]) == 0
    cells = [f for f in os.listdir(out) if f.startswith("bench_")]
    assert len(cells) == 4
    body = (out / "bench_mocha_wifi_none.csv").read_text().splitlines()
    assert body[0] == "elapsed_ms,primal_suboptimality"
    last = body[-1].split(",")
    assert float(last[0]) > 0.0


def test_bench_runs_mocha_against_the_coupling_of_its_floor(tmp_path):
    # The floor solves the problem with the initial coupling.  MOCHA that
    # learned its coupling over [solver] outer_rounds would solve another
    # problem, and its suboptimality could fall below zero.
    out = tmp_path / "bench"
    cfg = write_config(tmp_path / "bench.ini", f"""
[dataset]
source = synthetic

[synthetic]
m = 4
d = 5
n_min = 20
n_max = 20
seed = 2

[model]
kind = probabilistic
lam = 0.1

[method]
loss = squared

[solver]
outer_rounds = 3

[bench]
methods = mocha
presets = wifi
heterogeneity = none
rounds = 30

[output]
dir = {out}
""")
    assert main(["bench", "--config", cfg]) == 0
    rows = (out / "bench_mocha_wifi_none.csv").read_text().splitlines()[1:]
    assert len(rows) == 30
    assert min(float(row.split(",")[1]) for row in rows) >= 0.0


def test_bench_solves_cocoa_once_for_every_mode(tmp_path, monkeypatch):
    from fedmtl import baselines

    calls = []
    original = baselines.cocoa_run

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(baselines, "cocoa_run", counting)
    out = tmp_path / "bench"
    cfg = write_config(tmp_path / "bench.ini", BASE_SYNTH + f"""
[model]
kind = mean_regularized

[method]
loss = squared

[bench]
methods = cocoa,mocha
presets = wifi,lte
heterogeneity = none,high
rounds = 5

[output]
dir = {out}
""")
    assert main(["bench", "--config", cfg]) == 0
    assert len(calls) == 1
    for preset in ("wifi", "lte"):
        assert (out / f"bench_cocoa_{preset}_none.csv").read_bytes() == \
            (out / f"bench_cocoa_{preset}_high.csv").read_bytes()


def test_bench_rejects_bad_names_before_writing(tmp_path):
    for i, bad in enumerate(["presets = wifi, dialup", "presets =",
                             "methods = mocha, sgd", "heterogeneity = none, wild"]):
        out = tmp_path / f"bench{i}"
        cfg = write_config(tmp_path / f"bench{i}.ini", BASE_SYNTH + f"""
[bench]
{bad}

[output]
dir = {out}
""")
        assert main(["bench", "--config", cfg]) == 1, bad
        assert not out.exists(), bad


def test_theory_command(tmp_path, capsys):
    cfg = write_config(tmp_path / "theory.ini", BASE_SYNTH + """
[model]
kind = mean_regularized

[method]
loss = squared

[theory]
eps = 1e-4
p_max = 0.1
theta_max = 0.2
""")
    assert main(["theory", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["loss"] == "squared"
    assert payload["theta_bar"] == pytest.approx(0.1 + 0.9 * 0.2)
    assert "s" in payload and "smooth_rounds" in payload
    assert payload["sigma_max"] >= max(payload["sigma_per_task"]) - 1e-9


def test_unknown_subcommand_is_config_error():
    assert main(["frobnicate", "--config", "x"]) == 1
