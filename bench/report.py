#!/usr/bin/env python3
"""Reference figures for the README: two sets of untraced runs over seeds
1-10 per workload, traced runs per workload, and the tracing overhead.

    python3 bench/report.py

Runs ``bench/run.py`` one run at a time, with the run length from
BENCHMARK.json: the first set for every workload, then the second, then
per workload PAIRS pairs of an untraced and a traced run of seed 1 in
alternating order, so that the overhead compares runs made minutes apart
at most.  Prints Markdown tables and keeps the raw results in
``bench/results/report.json``.  Spread is the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median; "worse" is how much the second set's median is worse than the
first's, in the metric's own direction.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = range(1, 11)
SETS = 2
PAIRS = 3


def run(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def _note(notes: list[str], key: str) -> float:
    """The figure ``key=value`` from the comment lines of a run."""
    line = next(n for n in notes if f" {key}=" in n)
    return float(line.split(f" {key}=")[1].split()[0])


def main() -> int:
    runs = [{w: [run(w, s, 0) for s in SEEDS] for w in WORKLOADS}
            for _ in range(SETS)]
    sets = [{w: [r for r, _ in one[w]] for w in WORKLOADS} for one in runs]
    paired = {w: {0: [], 1: []} for w in WORKLOADS}
    for w in WORKLOADS:
        for k in range(PAIRS):
            for trace in ((0, 1) if k % 2 == 0 else (1, 0)):
                paired[w][trace].append(run(w, SEEDS[0], trace))

    print("| workload | metric | median 1 | spread 1 | median 2 | spread 2 "
          "| worse | bound | failed share |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in WORKLOADS:
        shares = {r["failed"] / r["attempted"] for one in sets for r in one[w]}
        for m in SPEC["end_to_end"]:
            cells = []
            medians = []
            for one in sets:
                values = [r["metrics"][m["name"]]["value"] for r in one[w]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                cells += [f"{med:.4g}", f"{(q3 - q1) / med:.1%}"]
            first, second = medians[0], medians[-1]
            worse = (second / first if m["better"] == "lower" else first / second) - 1
            print(f"| {w} | {m['name']} ({m['unit']}) | " + " | ".join(cells) +
                  f" | {worse:+.1%} | {m['bound']:.0%} | "
                  f"{', '.join(f'{s:.4f}' for s in sorted(shares))} |")
    print()
    print("| workload | set | seeds 1-10, in the order run: pts_per_ref (points/ref) "
          "above wall-clock pts_per_s (points/s) |")
    print("|---|---|---|")
    for w in WORKLOADS:
        for i, one in enumerate(runs, 1):
            steady = " ".join(f"{r['metrics']['pts_per_ref']['value']:.4g}"
                              for r, _ in one[w])
            wall = " ".join(f"{_note(notes, 'pts_per_s'):.4g}" for _, notes in one[w])
            print(f"| {w} | {i} | {steady}<br>{wall} |")
    print()
    print("| per-layer metric (traced window) | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---|" * len(WORKLOADS))
    for m in SPEC["per_layer"]:
        cells = []
        for w in WORKLOADS:
            v = paired[w][1][0][0]["metrics"][m["name"]]["value"]
            cells.append(f"{v:.1f}" if m["unit"] == "ms" else f"{v}")
        print(f"| {m['name']} ({m['unit']}) | " + " | ".join(cells) + " |")
    print()
    for w in WORKLOADS:
        untraced = statistics.median(r["metrics"]["pts_per_ref"]["value"]
                                     for r, _ in paired[w][0])
        traced = statistics.median(_note(notes, "pts_per_ref")
                                   for _, notes in paired[w][1])
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if v["unit"] == "count"} for r, _ in paired[w][1]]
        same = all(c == counts[0] for c in counts)
        print(f"- {w}: traced {traced:.4g} points/ref against untraced {untraced:.4g} "
              f"(medians of {PAIRS}): overhead {untraced / traced - 1:.1%}; "
              f"work counters of the {PAIRS} traced runs "
              f"{'identical' if same else 'DIFFER'}")
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    (out / "report.json").write_text(json.dumps(
        {"sets": sets, "paired": paired}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
