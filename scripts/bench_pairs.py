#!/usr/bin/env python3
"""Run the benchmark in two source checkouts, in alternating pairs, and compare.

Each pair runs `perfbench/run.py --workload W --seconds S --trace 0
[--seed N]` once in each checkout, one after the other; odd pairs (1st,
3rd, ...) run the parent first and even pairs the change first, so a
drift of the host's speed falls on both sides alike. A run whose result
does not read `correct: true` stops the comparison. The JSON written to
--out holds, for each metric, every run's value per side and each side's
median and quartiles. For each end-to-end metric it adds, in the
direction and against the bound BENCHMARK.json gives for the metric:

- change_better_pairs: in how many pairs the change was better;
- worse_by: the change's median against the parent's, relative to the
  parent's median, positive when worse;
- parent_spread: the parent's quartile distance over its median;
- bound: the metric's bound, relative to the median;
- verdict: "worse" if worse_by exceeds the bound; else "unresolved" if
  parent_spread exceeds it, unless every change run beats every parent
  run; else "better" if the change wins at least 9 of 10 pairs and its
  median is better by more than the parent's quartile distance; else
  "within bound".

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


def verdict(parent: dict, change: dict, better: str, bound: float) -> dict:
    """The change against the parent on one end-to-end metric: see the module docstring."""
    sign = 1 if better == "lower" else -1   # signed values are better when lower
    parent_runs = [sign * value for value in parent["runs"]]
    change_runs = [sign * value for value in change["runs"]]
    scale = abs(parent["median"]) or 1.0   # a zero median reads as an absolute change
    spread = parent["q3"] - parent["q1"]
    gain = sign * (parent["median"] - change["median"])
    won = sum(c < p for p, c in zip(parent_runs, change_runs))
    if -gain / scale > bound:
        outcome = "worse"
    elif spread / scale > bound and max(change_runs) >= min(parent_runs):
        outcome = "unresolved"
    elif 10 * won >= 9 * len(parent_runs) and gain > spread:
        outcome = "better"
    else:
        outcome = "within bound"
    return {"change_better_pairs": won, "worse_by": -gain / scale,
            "parent_spread": spread / scale, "bound": bound, "verdict": outcome}


def compare(checkouts: dict, workload: str, pairs: int, seconds: float, seed: int | None,
            end_to_end: dict, run) -> dict:
    """Run `pairs` alternating pairs through run(checkout, args); returns the comparison.

    end_to_end maps each end-to-end metric's name to its BENCHMARK.json
    entry, whose "better" and "bound" the verdict reads.
    """
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
        spec = end_to_end.get(name, {})
        entry = {"better": spec.get("better"), "parent": summary(parent),
                 "change": summary(change)}
        if spec:
            entry.update(verdict(entry["parent"], entry["change"], spec["better"],
                                 spec["bound"]))
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
    end_to_end = {metric["name"]: metric for metric in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    try:
        record = compare(checkouts, args.workload, args.pairs, args.seconds, args.seed,
                         end_to_end, run_benchmark)
    except RunRefused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, entry in record["metrics"].items():
        line = (f"{name}: parent {entry['parent']['median']:.4g}, "
                f"change {entry['change']['median']:.4g}")
        if "verdict" in entry:
            line += (f", change better in {entry['change_better_pairs']} of {args.pairs}, "
                     f"worse by {entry['worse_by']:+.1%}, parent spread "
                     f"{entry['parent_spread']:.1%}, bound {entry['bound']:.0%}: "
                     f"{entry['verdict']}")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
