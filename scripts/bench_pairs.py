#!/usr/bin/env python3
"""Run the benchmark in two source checkouts, in alternating pairs, and compare.

Each pair runs `perfbench/run.py --workload W --seconds S --trace 0
[--seed N]` once in each checkout, one after the other; odd pairs (1st,
3rd, ...) run the parent first and even pairs the change first, so a
drift of the host's speed falls on both sides alike. A run whose result
does not read `correct: true` stops the comparison. The JSON written to
--out holds, for each end-to-end metric, every run's value per side,
each side's median and quartiles, and in how many pairs the change was
better, in the direction BENCHMARK.json gives for the metric.

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --workload street --pairs 10 --seconds 50 --out pairs_street.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


class RunRefused(Exception):
    """A benchmark run failed or did not read `correct: true`."""


def run_benchmark(checkout: Path, args: list[str]) -> dict:
    """One `perfbench/run.py` run in `checkout`: the result of its last output line."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=checkout, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunRefused(f"{checkout}: no result (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-500:]}") from None


def summary(values: list[float]) -> dict:
    """Every run's value, the median and the quartiles."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(checkouts: dict, workload: str, pairs: int, seconds: float, seed: int | None,
            better: dict, run) -> dict:
    """Run `pairs` alternating pairs through run(checkout, args); returns the comparison."""
    args = ["--workload", workload, "--seconds", repr(seconds), "--trace", "0"]
    if seed is not None:
        args += ["--seed", str(seed)]
    values = {side: {} for side in SIDES}
    calls = {side: {"attempted": 0, "failed": 0} for side in SIDES}
    order = []
    for pair in range(pairs):
        sides = SIDES if pair % 2 == 0 else SIDES[::-1]
        order.append(list(sides))
        for side in sides:
            result = run(checkouts[side], args)
            if result.get("correct") is not True:
                raise RunRefused(f"pair {pair + 1}, {side}: the run does not read correct: true")
            for key in calls[side]:
                calls[side][key] += result[key]
            for name, metric in result["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])
    metrics = {}
    for name in sorted(set(values["parent"]) & set(values["change"])):
        parent, change = values["parent"][name], values["change"][name]
        entry = {"better": better.get(name), "parent": summary(parent), "change": summary(change)}
        if name in better:
            sign = 1 if better[name] == "lower" else -1
            entry["change_better_pairs"] = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        metrics[name] = entry
    return {"workload": workload, "seed": seed, "seconds": seconds, "pairs": pairs,
            "command": ["perfbench/run.py", *args], "order": order, "calls": calls,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark two checkouts in alternating pairs")
    ap.add_argument("--parent", type=Path, required=True, help="the parent's source checkout")
    ap.add_argument("--change", type=Path, required=True, help="the change's source checkout")
    ap.add_argument("--workload", required=True, help="perfbench workload name")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of runs")
    ap.add_argument("--seconds", type=float, default=50.0, help="each run's --seconds")
    ap.add_argument("--seed", type=int, default=None, help="scene seed (default: the workload's)")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    try:
        record = compare(checkouts, args.workload, args.pairs, args.seconds, args.seed, better,
                         run_benchmark)
    except RunRefused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, entry in record["metrics"].items():
        print(f"{name}: parent {entry['parent']['median']:.4g}, "
              f"change {entry['change']['median']:.4g}, "
              f"change better in {entry.get('change_better_pairs', '-')} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
