#!/usr/bin/env python3
"""Steadiness check: run the benchmark's workloads N times on one commit and
print, for each end-to-end metric, the median, the quartiles and the spread
(interquartile range over median) against the metric's bound.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--out perfbench/evidence/x.txt]
    python3 perfbench/steady.py --summarize perfbench/evidence/x.txt

Run it from the repository root. Every workload in BENCHMARK.json runs at
its run_seconds, run i with seed i (1..runs). With --sets 2 the same seeds
run twice and the table also shows the second set's spread and how far its
median moved from the first's, in the worse direction (the "shift"; "ok"
while it is within the bound). --summarize re-reads the per-run lines of an
earlier --out file and prints the table against the current bounds,
without running. The quartiles are Python's statistics.quantiles(values,
n=4). The verdict goes by the worse set's spread: below a third of the
bound "steady", within the bound "within", else "OVER". The acceptance rule bounds the spread of every
metric except setup_s, whose verdict carries "(ungated)"; the shift of
every metric, setup_s too, is bounded.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {lines[-1]}")
    descriptor = json.loads(lines[-2])["descriptor"] if len(lines) > 1 else {}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, descriptor, elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


RUN_LINE = re.compile(r"^  (\S+) seed (\d+): .*? ms, (\S+=.*)$")


def read_runs(path):
    """Per-run metric values of an earlier report: {workload: [set1, set2]}."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        match = RUN_LINE.match(line)
        if not match:
            continue
        workload, seed, pairs = match.groups()
        values = {k: float(v) for k, v in (p.split("=") for p in pairs.split(", "))}
        sets = runs.setdefault(workload, [[], []])
        seen = [r for r, _ in sets[0]]
        sets[1 if int(seed) in seen else 0].append((int(seed), values))
    return {w: [[v for _, v in s] for s in sets if s] for w, sets in runs.items()}


def table(workload, sets, metrics, emit):
    two = len(sets) == 2
    emit(f"{workload}:")
    emit(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
         f"{'bound':>6}  {'verdict':<17}" + (f"  {'spread2':>8}  set2 shift" if two else ""))
    for m in metrics:
        name, bound = m["name"], m["bound"]
        q1, q2, q3, s = spread([r[name] for r in sets[0]])
        worst = max(s, spread([r[name] for r in sets[1]])[3]) if two else s
        if worst < bound / 3:
            verdict = "steady"
        elif worst <= bound:
            verdict = "within"
        else:
            verdict = "OVER"
        if name == "setup_s":
            verdict += " (ungated)"
        line = (f"  {name:<18} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {s:>8.4f} "
                f"{bound:>6}  {verdict:<17}")
        if two:
            second = [r[name] for r in sets[1]]
            s2 = spread(second)[3]
            m2 = statistics.median(second)
            worse = (m2 - q2) / q2 if m["better"] == "lower" else (q2 - m2) / q2
            line += f"  {s2:>8.4f}  {worse:+.4f} ({'ok' if worse <= bound else 'WORSE'})"
        emit(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--out", default="")
    parser.add_argument("--summarize", default="",
                        help="print the table of an earlier --out file instead of running")
    opts = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    if opts.summarize:
        for workload, sets in read_runs(opts.summarize).items():
            table(workload, sets, metrics, print)
        return
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    report = [f"# steady.py: runs={opts.runs} sets={opts.sets} seconds={seconds}"]

    def emit(line):
        print(line, flush=True)
        report.append(line)

    for workload in workloads:
        sets = []
        for _ in range(opts.sets):
            runs = []
            for seed in range(1, opts.runs + 1):
                values, descriptor, elapsed = run_once(bench["command"], workload, seed, seconds)
                runs.append(values)
                calibration = descriptor.get("calibration_ms", [])
                emit(f"  {workload} seed {seed}: {elapsed:.1f} s wall, "
                     f"calibration {', '.join(f'{c:.1f}' for c in calibration)} ms, "
                     + ", ".join(f"{k}={v:.6g}" for k, v in values.items()))
            sets.append(runs)
        table(workload, sets, metrics, emit)
    if opts.out:
        Path(opts.out).write_text("\n".join(report) + "\n")


if __name__ == "__main__":
    main()
