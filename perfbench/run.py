#!/usr/bin/env python3
"""curbmap benchmark: run_pipeline on one workload, timed and checked.

    python3 perfbench/run.py --workload street --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; curbmap is imported from its
`src/` directory. Set-up (the first import, scene generation and the
input write) runs SETUP_REPEATS times, each in a fresh interpreter, and
`setup_s` is their median. The calls then run in one more fresh
interpreter (measure.py) that only loads the prepared input, so its peak
RSS excludes set-up.

With --trace 0 the last output line carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced run. The
line before it holds the details: provenance, output digests, samples
and any failed check. Exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
DEADLINE_S = 170.0  # the whole invocation, set-up included

END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "curb_precision": "fraction",
    "grid_accuracy": "fraction",
}

PER_LAYER = {
    "voting.vote_s": "s",
    "voting.candidate_pairs": "count",
    "voting.inradius_pairs": "count",
    "voting.pair_yield": "fraction",
    "voting.ns_per_candidate_pair": "ns",
    "voting.max_block_pairs": "count",
    "voting.thread_speedup": "ratio",
    "cloud.parse_s": "s",
    "cloud.bytes_in": "bytes",
    "cloud.write_s": "s",
    "cloud.bytes_out": "bytes",
    "neighbors.index_s": "s",
    "neighbors.radius_calls": "count",
    "neighbors.radius_s": "s",
    "curb.s": "s",
    "curb.outlier_s": "s",
    "curb.plate_candidates": "count",
    "curb.height_gated": "count",
    "curb.points": "count",
    "curb.recall": "fraction",
    "eigen.decompose_s": "s",
    "eigen.tensors": "count",
    "dem.s": "s",
    "dem.ground_candidates": "count",
    "dem.height_cells": "count",
    "dem.refined_valid_cells": "count",
    "dem.ascii_s": "s",
    "semantic.classify_s": "s",
    "semantic.encode_s": "s",
    "semantic.cells": "count",
    "semantic.label.road_curb": "count",
    "semantic.label.obstacle": "count",
    "semantic.label.wall_vehicle": "count",
    "semantic.label.road": "count",
    "semantic.label.unknown": "count",
    "pipeline.self_s": "s",
    "trace.overhead_frac": "fraction",
}


class BenchError(Exception):
    """A step of the benchmark itself failed; no result is printed."""


def command_output(cmd: list[str]) -> str:
    """Standard output of a read-only host query, or "" when it cannot run."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return proc.stdout if proc.returncode == 0 else ""


def provenance() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "l2": "unknown",
        "l3": "unknown",
        "python": platform.python_version(),
        "commit": "unknown",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for line in command_output(["lscpu"]).splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            info[key.strip()[:2].lower()] = value.strip()
    if (ROOT / ".git").exists():
        info["commit"] = command_output(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"]).strip() or "unknown"
    return info


def child(script: str, args: list[str], deadline: float) -> str:
    """Run a benchmark script in a fresh interpreter; returns its stdout."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for {script}")
    try:
        proc = subprocess.run([sys.executable, str(HERE / script), *args], env=env,
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} did not finish before the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} exited with status {proc.returncode}")
    return lines[-1]


def run(args, work: Path, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--scale", repr(args.scale)]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]

    setup_s, input_digests = [], set()
    for _ in range(1 if args.trace else SETUP_REPEATS):
        for stale in work.iterdir():
            stale.unlink()
        setup_s.append(float(child("prepare.py", common + ["--out", str(work)], deadline)))
        input_digests.update(hashlib.sha256(p.read_bytes()).hexdigest() for p in work.iterdir())

    record = json.loads(child("measure.py", common + [
        "--work", str(work), "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        deadline))

    problems = list(record["problems"])
    if len(input_digests) != 1:
        problems.append("set-up wrote different inputs on repeated runs")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": dict(provenance(), numpy=record["numpy"]),
              "setup_s": setup_s, "input_digest": sorted(input_digests),
              "pipeline_s": record["pipeline_s"], "traced_s": record.get("traced_s"),
              "quality": record.get("quality"), "peak_rss_mb": record.get("peak_rss_mb"),
              "digests": record["digests"], "errors": record["errors"],
              "problems": problems}

    quality = record.get("quality", {})
    if args.trace:
        values = dict(record.get("layers", {}))
        if quality:
            values["curb.recall"] = quality["curb_recall"]
        units = PER_LAYER
    else:
        values = {key: value for key, value in quality.items() if key in END_TO_END}
        if record.get("peak_rss_mb") is not None:
            values["peak_rss_mb"] = record["peak_rss_mb"]
        if record["pipeline_s"]:
            values["pipeline_s"] = statistics.median(record["pipeline_s"])
        values["setup_s"] = statistics.median(setup_s)
        units = END_TO_END
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    result = {
        "correct": record["failed"] == 0 and not problems,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items() if key in values},
    }
    return detail, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="curbmap benchmark: one workload, timed and checked")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="scene seed for the workload (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="how long the calls are measured")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run instead of end-to-end ones")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="scene density factor; below 1 only for quick tests")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "curbmap" / "__init__.py").is_file():
        print(f"error: no curbmap sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        detail, result = run(args, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload}: {len(detail['pipeline_s'])} plain and "
          f"{len(detail['traced_s'] or [])} traced calls timed, error_rate "
          f"{result['failed'] / result['attempted']:.3f} "
          f"({result['failed']} of {result['attempted']} failed)")
    if detail["quality"]:
        print("quality: " + ", ".join(f"{k} {v:.3f}" for k, v in detail["quality"].items()))
    for problem in detail["problems"] + detail["errors"]:
        print(f"check failed: {problem}")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
