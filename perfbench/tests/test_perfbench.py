"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from curbmap import SceneSpec, VotingParams, build_index, generate_scene  # noqa: E402
from curbmap import curb, pipeline  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_scene_emits_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--scale", "0.15")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1  # error_rate 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(tmp_path, "--workload", "street", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_wrappers_are_removed_even_when_the_call_raises():
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in spans.TRACE_POINTS}
    tracer = spans.Tracer()
    with pytest.raises(ValueError):
        with spans.installed(tracer):
            assert pipeline.build_index is not originals[("curbmap.pipeline", "build_index")]
            curb.build_index(generate_scene(SceneSpec(density=5)), -1.0)
    assert all(getattr(sys.modules[m], a) is fn for (m, a), fn in originals.items())
    assert tracer.calls("neighbors.index") == 1 and not tracer.missing


def test_root_self_time_excludes_direct_children_only():
    tracer = spans.Tracer()
    tracer.spans = [[spans.ROOT, None, 0.0, 10.0], ["a", 0, 1.0, 4.0],
                    ["b", 1, 2.0, 3.0], ["c", 0, 5.0, 6.0]]
    totals = tracer.totals()
    assert totals[spans.ROOT + ".self"] == pytest.approx(6.0)
    assert totals["b"] == pytest.approx(1.0)


def test_street_pair_counts():
    """Vote-kernel pair counts of the reference street at the default sigma."""
    cloud = generate_scene(SceneSpec())
    cutoff = VotingParams().cutoff
    index = build_index(cloud, cutoff)
    pairs = spans.block_pairs(index, cutoff)
    inradius = spans.inradius_pairs(cloud.points, index, cutoff)
    assert int(pairs.sum()) == 184_900_533
    assert int(pairs.max()) == 411_742
    assert inradius == 64_310_542
    assert round(inradius / int(pairs.sum()), 3) == 0.348
