"""Benchmark of the orepack CLI verbs, corrected for machine-speed drift.

    python3 perfbench/run.py --workload params-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: orepack is imported from ./src.
One process runs one workload as a closed loop with one client: each task
calls ``orepack.cli.main(argv)`` in-process on input files written during
set-up, and the next task starts when it returns. A run is a fixed number
of whole passes over the workload's task list, chosen from ``--seconds``.

Every time is corrected for machine-speed drift (drift.py, README.md).
The last line of standard output is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. Raw figures go to standard error and to a result file
under perfbench/.work/, with the spans of a traced run beside it.
"""

from __future__ import annotations

import sys

# Cache orepack's bytecode in the checkout whatever PYTHONDONTWRITEBYTECODE
# says, so that the timed set-ups all load the same cached bytecode.
sys.dont_write_bytecode = False

# The standard modules orepack uses are imported before any timing, so that
# set-up times only orepack's own import and the input building.
import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402,F401
import enum  # noqa: E402,F401
import fractions  # noqa: E402,F401
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402,F401
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
import typing  # noqa: E402,F401

import checks  # noqa: E402
from drift import UNIT_NOMINAL_S, DriftMeter  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import BUILDERS, Inputs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
MODULES = ("graphs", "coloring", "parameters", "packing", "extremal", "probes", "cli")

SETUP_REPEATS = 11
MIN_TASKS = 100
# wall seconds one pass takes, tasks, reference loops and checks together
PASS_SECONDS = {"params-sweep": 10.0, "pack-refute": 2.3, "pack-find": 0.36}


def forget_orepack() -> None:
    for name in [m for m in sys.modules if m == "orepack" or m.startswith("orepack.")]:
        del sys.modules[name]


def set_up(workload: str, seed: int, workdir: str, tracer: Tracer | None):
    """Import orepack afresh and build the workload's input files."""
    importlib.import_module("orepack")
    importlib.import_module("orepack.cli")
    lib = types.SimpleNamespace(**{m: sys.modules[f"orepack.{m}"] for m in MODULES})
    if tracer is not None:
        tracer.install(vars(lib))
    os.makedirs(workdir, exist_ok=True)
    return lib, BUILDERS[workload](lib, Inputs(lib, seed, workdir))


def run_task(main, argv):
    """(exit code, stdout, error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(argv), out.getvalue(), None
    except (Exception, SystemExit) as exc:
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"


def timed_set_up(meter, args, workdir, tracer):
    """(lib, tasks, raw seconds, drift factor) of one fresh set-up."""
    forget_orepack()
    gc.collect()
    meter.settle()
    (lib, tasks), raw, factor = meter.measure(set_up, args.workload, args.seed, workdir, tracer)
    return lib, tasks, raw, factor


def measure(meter, lib, tasks, checkers, passes, tracer, set_up_again):
    """Run the passes; one row per task with its raw and corrected time.

    ``set_up_again`` (None in a traced run) is called before SETUP_REPEATS
    evenly spaced tasks, so that the set-ups sample the whole run."""
    rows, errors = [], []
    total = passes * len(tasks)
    again = {round(j * total / SETUP_REPEATS) for j in range(SETUP_REPEATS)} if set_up_again else set()
    meter.settle()
    for p in range(passes):
        for i, (task, check) in enumerate(zip(tasks, checkers)):
            if len(rows) in again:
                set_up_again()
            task_id = f"{p}:{i}"
            if tracer is not None:
                tracer.task = task_id
            gc.collect()
            (rc, stdout, error), raw, factor = meter.measure(run_task, lib.cli.main, task.argv)
            if error is None:
                try:
                    error = check(rc, stdout)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            if error:
                errors.append(f"{task.group} {task.argv}: {error}")
            rows.append({
                "task": task_id,
                "group": task.group,
                "raw_ms": raw * 1000,
                "ms": raw * factor * 1000,
                "factor": factor,
                "error": error,
            })
    return rows, errors


def quantile(values, q: int) -> float:
    """The q-th decile of ``values`` (statistics.quantiles, exclusive)."""
    return statistics.quantiles(values, n=10)[q - 1]


def groups_near(rows, q: int) -> dict:
    """Task groups within 3 % of the ranks around the q-th decile, with
    their counts: shows whether a percentile sits inside one group or
    between groups of different cost."""
    ranked = sorted(rows, key=lambda row: row["ms"])
    centre = round(q / 10 * (len(ranked) + 1) - 1)
    width = max(1, round(0.03 * len(ranked)))
    out: dict = {}
    for row in ranked[max(0, centre - width): centre + width + 1]:
        out[row["group"]] = out.get(row["group"], 0) + 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "orepack", "__init__.py")):
        print(f"no orepack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    meter = DriftMeter()
    tracer = Tracer(meter.now) if args.trace else None
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")

    setups = []

    def set_up_again():
        # the tasks keep using the modules and files of the first set-up;
        # a later one imports orepack afresh and rewrites the same files
        setups.append(timed_set_up(meter, args, workdir, None)[2:])

    try:
        # The first set-up creates the input files and caches orepack's
        # bytecode. An untraced run does not count it, but sets up again at
        # SETUP_REPEATS points spread over the run, overwriting the files:
        # the set-up time follows slow spells of the machine and of its file
        # system that the drift correction does not see, and set-ups taken
        # back to back at the start all fell in the same spell. A traced run
        # sets up once, with the tracer in place.
        lib, tasks, raw, factor = timed_set_up(meter, args, workdir, tracer)
        if tracer:
            setups.append((raw, factor))
        if not os.path.abspath(lib.cli.__file__).startswith(SRC + os.sep):
            print(f"orepack was imported from {lib.cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        seen: dict = {}
        checkers = [checks.make_checker(task.check, seen) for task in tasks]
        passes = max(math.ceil(MIN_TASKS / len(tasks)), round(args.seconds / PASS_SECONDS[args.workload]))
        start = time.perf_counter()
        rows, errors = measure(meter, lib, tasks, checkers, passes, tracer, None if tracer else set_up_again)
        measure_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(rows)
    failed = sum(1 for row in rows if row["error"])
    done = [row for row in rows if not row["error"]]
    for message in errors[:5]:
        print(f"failed: {message}", file=sys.stderr)
    if len(done) < 2:
        print("fewer than two tasks succeeded", file=sys.stderr)
        return 1

    corrected = [row["ms"] for row in done]
    raw = [row["raw_ms"] for row in done]
    units = [UNIT_NOMINAL_S / row["factor"] * 1e6 for row in rows]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tasks_per_pass": len(tasks),
        "passes": passes,
        "measure_wall_s": measure_s,
        "tasks_per_s": 1000 * len(done) / sum(corrected),
        "raw_tasks_per_s": 1000 * len(done) / sum(raw),
        "latency_p50_ms": quantile(corrected, 5),
        "raw_latency_p50_ms": quantile(raw, 5),
        "latency_p90_ms": quantile(corrected, 9),
        "raw_latency_p90_ms": quantile(raw, 9),
        "setup_s": statistics.median(r * f for r, f in setups),
        "raw_setup_s": statistics.median(r for r, _ in setups),
        "setups": [[r, r * f] for r, f in setups],
        "unit_us": statistics.median(units),
        "unit_iqr_us": _iqr(units),
        "group_ms": {
            group: statistics.median(row["ms"] for row in done if row["group"] == group)
            for group in dict.fromkeys(row["group"] for row in done)
        },
        "groups_at_p50": groups_near(done, 5),
        "groups_at_p90": groups_near(done, 9),
        "tasks": [[row["group"], row["raw_ms"], row["ms"]] for row in rows],
    }
    os.makedirs(WORK, exist_ok=True)
    stem = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer:
        factors = {row["task"]: row["factor"] for row in rows}
        factors["setup"] = setups[0][1]
        layers = tracer.layer_metrics(factors, attempted)
        summary["layers"] = layers
        summary["group_nodes"] = tracer.nodes_by_group({row["task"]: row["group"] for row in rows})
        tracer.dump(stem + "-spans.json")
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layers.items()}
    else:
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "tasks_per_s": {"value": summary["tasks_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": summary["latency_p50_ms"], "unit": "ms"},
            "latency_p90_ms": {"value": summary["latency_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": summary["setup_s"], "unit": "s"},
        }
    with open(stem + "-result.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(
        f"{args.workload}: {attempted} tasks in {passes} passes, {failed} failed; "
        f"{summary['raw_tasks_per_s']:.2f}/s raw, {summary['tasks_per_s']:.2f}/s corrected; "
        f"unit {summary['unit_us']:.2f} us (IQR {summary['unit_iqr_us']:.2f}); "
        f"p50 near {summary['groups_at_p50']}; p90 near {summary['groups_at_p90']}",
        file=sys.stderr,
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _iqr(values) -> float:
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_per_s"):
        return "1/s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
