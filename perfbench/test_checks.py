"""Tests of the benchmark's own checks and span accounting (numpy only)."""

import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing


def _tasks(rng, m=3, d=4, n=(5, 7, 6)):
    Xs = [rng.standard_normal((d, n[t])) for t in range(m)]
    ys = [np.where(rng.random(n[t]) < 0.5, -1.0, 1.0) for t in range(m)]
    return Xs, ys


def test_weak_duality_flags_negative_and_nan_gaps():
    good = [(0, -5.0, 7.0, 2.0), (1, -6.0, 6.0, 1e-13 - 1e-12)]
    assert checks.weak_duality(good) == []
    assert len(checks.weak_duality([(0, -5.0, 4.0, -1.0)])) == 1
    assert len(checks.weak_duality([(0, -5.0, 4.0, float("nan"))])) == 1


def test_dual_nonincreasing_only_within_an_outer_iteration():
    records = [(0, 3.0, 0, 0), (1, 2.0, 0, 0), (2, 5.0, 0, 0), (3, 4.0, 0, 0)]
    assert checks.dual_nonincreasing(records, inner_rounds=2) == []
    assert len(checks.dual_nonincreasing(records, inner_rounds=4)) == 1


def test_primals_match_a_per_example_loop():
    rng = np.random.default_rng(0)
    Xs, ys = _tasks(rng)
    W = rng.standard_normal((4, 3))
    lam1, lam2 = 0.7, 1.3
    omega = np.eye(3) - np.full((3, 3), 1.0 / 3)
    penalty = lam1 * np.trace(W @ omega @ W.T) + lam2 * np.sum(W ** 2)
    hinge = sum(max(0.0, 1.0 - y[i] * W[:, t] @ X[:, i])
                for t, (X, y) in enumerate(zip(Xs, ys)) for i in range(y.size))
    squared = sum(0.5 * (W[:, t] @ X[:, i] - y[i]) ** 2
                  for t, (X, y) in enumerate(zip(Xs, ys)) for i in range(y.size))
    assert checks.hinge_primal(Xs, ys, W, lam1, lam2) == pytest.approx(hinge + penalty, rel=1e-12)
    assert checks.squared_primal(Xs, ys, W, lam1, lam2) == pytest.approx(squared + penalty, rel=1e-12)


def test_closed_form_optimum_is_a_stationary_minimum():
    rng = np.random.default_rng(1)
    Xs, ys = _tasks(rng)
    W, value = checks.squared_mean_reg_optimum(Xs, ys, 0.5, 2.0)
    assert value == pytest.approx(checks.squared_primal(Xs, ys, W, 0.5, 2.0))
    for _ in range(20):
        step = 1e-3 * rng.standard_normal(W.shape)
        assert checks.squared_primal(Xs, ys, W + step, 0.5, 2.0) > value


def test_omega_problems():
    assert checks.omega_problems(np.eye(4) / 4) == []
    asym = np.eye(2) / 2
    asym[0, 1] = 0.1
    assert any("symmetric" in p for p in checks.omega_problems(asym))
    assert any("PSD" in p for p in checks.omega_problems(np.array([[1.5, 0.0], [0.0, -0.5]])))
    assert any("trace" in p for p in checks.omega_problems(np.eye(2)))


def test_floor_problems():
    assert checks.floor_problems(10.0 - 1e-11, 10.0) == []
    assert len(checks.floor_problems(10.001, 10.0)) == 1
    assert len(checks.floor_problems(9.0, 10.0)) == 1


def _cells(sub=(3.0, 2.0, 1.0)):
    return {
        (method, preset, mode): [(float(i + 1), s) for i, s in enumerate(sub)]
        for method in ("mocha", "cocoa") for preset in ("wifi", "lte")
        for mode in ("none", "high")
    }


def test_bench_cells_pass_and_fail():
    assert checks.bench_cell_problems(_cells(), floor=5.0, rounds=3) == []
    assert len(checks.bench_cell_problems(_cells(), floor=5.0, rounds=4)) == 8
    cells = _cells()
    cells[("mocha", "wifi", "none")] = [(1.0, 3.0), (1.0, 2.0), (2.0, 1.0)]
    assert any("increase" in p for p in checks.bench_cell_problems(cells, 5.0, 3))
    cells = _cells()
    cells[("cocoa", "lte", "high")] = [(1.0, 3.0), (2.0, 2.0), (3.0, 0.5)]
    assert any("presets" in p for p in checks.bench_cell_problems(cells, 5.0, 3))
    assert any("negative" in p
               for p in checks.bench_cell_problems(_cells((3.0, -1.0, 0.0)), 5.0, 3))


def _span(name, start, end, parent=None):
    span = tracing.Span(name, start, parent)
    span.end = end
    return span


def test_self_time_counts_overlapping_children_once():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    b = _span("b", 3.0, 6.0, root)      # overlaps a on another thread
    c = _span("c", 8.0, 12.0, root)     # clipped to the parent's end
    leaf = _span("leaf", 1.5, 2.0, a)
    assert tracing.self_times([root, a, b, c, leaf]) == pytest.approx(
        [10.0 - 5.0 - 2.0, 2.5, 3.0, 4.0, 0.5])


def test_worker_thread_spans_take_the_submitting_span_as_parent():
    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda: time.sleep(0.001), "leaf")

    def round_():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: leaf(), range(4)))

    tracer.wrap(round_, "round")()
    root = tracer.spans[0]
    assert root.name == "round" and root.parent is None
    assert [s.parent for s in tracer.spans[1:]] == [root] * 4
    metrics = tracing.layer_metrics(tracer.spans, root.end - root.start)
    assert metrics["trace.self_share"] >= 0.99


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((Path(run.__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.LAYER_METRICS
    layer_names = set(tracing.layer_metrics([], 1.0)) | {"trace.body_s", "trace.overhead_pct"}
    assert layer_names == {name for name, _, _ in tracing.LAYER_METRICS}
