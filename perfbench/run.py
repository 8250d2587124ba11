#!/usr/bin/env python3
"""Benchmark for fedmtl.

    python3 perfbench/run.py --workload mocha-wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; fedmtl is imported from its ``src``.  The
run sets up the workload several times (``setup_s`` is the median), then
repeats the workload body for about ``--seconds``, checking every output.
With ``--trace 0`` it reports the end-to-end metrics as medians over the
repetitions.  With ``--trace 1`` it runs the body once to warm up, then
alternates untraced and traced repetitions and reports the per-layer
metrics, writing the spans of the last traced repetition to
``.perfbench_work/``.  The last line of standard output is one JSON object.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 9

# (name, unit) of every end-to-end metric, in output order.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rounds_per_s", "rounds/s"),
    ("peak_rss_mb", "MiB"),
]


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


class Tally:
    """Attempted and failed operations, and the problems the checks found.
    One operation is one repetition of the workload body."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, workload, body):
        """Time one body call and check its output; (seconds, rounds) or
        None when the call raised."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = body()
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        elapsed = perf_counter() - start
        try:
            rounds, problems = workload.check(out)
        except (OSError, ValueError, KeyError) as exc:  # unreadable or malformed output
            rounds, problems = 0, [f"output could not be read: {exc!r}"]
        self.problems += problems
        return elapsed, rounds

    def result(self, metrics: dict) -> dict:
        for problem in self.problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def repeat(seconds: float, step) -> None:
    """Call ``step`` at least once, and again while one more call of typical
    length still ends within ``seconds``, so a run overshoots by no more
    than one slow call."""
    start = perf_counter()
    took = []
    while True:
        begin = perf_counter()
        step()
        took.append(perf_counter() - begin)
        if perf_counter() - start + statistics.median(took) > seconds:
            return


def end_to_end(workload, seconds: float) -> dict:
    tally = Tally()
    setup = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        workload.setup()
        setup.append(perf_counter() - start)
    walls, rates = [], []

    def step():
        done = tally.run(workload, workload.body)
        if done is not None:
            walls.append(done[0])
            rates.append(done[1] / done[0])

    repeat(seconds, step)
    tally.problems += workload.final_check()
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls) if walls else 0.0,
        "rounds_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally.result({name: {"value": values[name], "unit": unit}
                         for name, unit in END_TO_END})


def per_layer(workload, seconds: float, spans_path: Path) -> dict:
    import tracing

    tally = Tally()
    workload.setup()
    tally.run(workload, workload.body)  # warm-up, checked but not timed
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []

    def step():
        done = tally.run(workload, workload.body)
        if done is not None:
            plain.append(done[0])
        tracer.reset()
        tracer.install()
        try:
            start = perf_counter()
            workload.load()
            load_s = perf_counter() - start
            done = tally.run(workload, workload.body)
        finally:
            tracer.uninstall()
        if done is not None:
            traced.append(done[0])
            layers.append(tracing.layer_metrics(tracer.spans, load_s + done[0]))

    repeat(seconds, step)
    tally.problems += workload.final_check()
    tracer.dump(spans_path)
    values = {name: statistics.median(row[name] for row in layers)
              for name in (layers[0] if layers else ())}
    body_s = statistics.median(traced) if traced else 0.0
    plain_s = statistics.median(plain) if plain else 0.0
    values["trace.body_s"] = body_s
    values["trace.overhead_pct"] = 100.0 * (body_s - plain_s) / plain_s if plain_s else 0.0
    return tally.result({name: {"value": values.get(name, 0.0), "unit": unit}
                         for name, unit, _ in tracing.LAYER_METRICS})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedmtl" / "__init__.py").is_file():
        print(f"perfbench: no fedmtl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy is imported once here so that setup_s times fedmtl's own import.
    import numpy  # noqa: F401
    import workloads

    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"{args.workload}-{os.getpid()}"
    scratch.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(scratch))
        if args.trace:
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            result = per_layer(workload, args.seconds, spans)
        else:
            result = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
