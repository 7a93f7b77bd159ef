"""Steadiness check: run each workload repeatedly on one commit and compare
each end-to-end metric's spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workload pack-find]

Run from the root of the checkout. Each run gets its own seed (1, 2, ...;
a second set continues 101, 102, ...). For every metric it prints the
median, the quartiles and the spread (q3 - q1) / median, beside the
bound; with two sets, also how far the second median moved from the
first. The same figures for the uncorrected times come from each run's
result file. Everything is also written to perfbench/.work/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
RAW = ("raw_tasks_per_s", "raw_latency_p50_ms", "raw_latency_p90_ms", "raw_setup_s", "unit_us")


def one_run(bench: dict, workload: str, seed: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(WORK, f"{workload}-seed{seed}-trace0-result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    out["raw"] = {key: result[key] for key in RAW}
    return out


def spread(values) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    report = {}
    worst = 0.0
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = [one_run(bench, workload, 100 * s + i + 1) for i in range(args.runs)]
            sets.append(runs)
        report[workload] = sets
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s); failed share "
              + ", ".join(f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}" for runs in sets))
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s} {'moved':>7s}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            median, q1, q3, sp = stats[0]
            moved = ""
            if len(stats) == 2:
                change = stats[1][0] / median - 1
                worse = -change if metric["better"] == "higher" else change
                moved = f"{worse:+.3f}"
            if name != "setup_s":
                worst = max(worst, sp / bound)
            flag = "ok" if sp < bound / 3 else ("WIDE" if sp >= bound else "wide")
            print(f"  {name:22s} {median:12.4f} {q1:12.4f} {q3:12.4f} {sp:7.3f} {bound:6.2f} {moved:>7s} {flag}")
        for key in RAW:
            median, q1, q3, sp = spread([r["raw"][key] for r in sets[0]])
            print(f"  {key:22s} {median:12.4f} {q1:12.4f} {q3:12.4f} {sp:7.3f}")
    with open(os.path.join(WORK, "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nlargest spread / bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
