"""Every script under scripts/ imports cleanly and prints its help.

The scripts import from curbmap, so a name retired from the package
shows up here as an ImportError. The demo's per-run code runs on a
thinned street, and the labeled cloud it writes runs through the CLI;
its grid points run one fresh process each. The paired benchmark
script runs against a stub of perfbench's run, never a real one.
The package itself imports nothing beyond the standard library and
numpy, and every function the benchmark's tracer wraps still exists
where the tracer looks for it.
"""

import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curbmap import cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_help_runs(script):
    # the demo imports perfbench's modules: no bytecode is written there
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(script), "--help"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_package_needs_only_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # what site and the interpreter loaded at start-up is not the package's
    code = ("import sys; before = set(sys.modules); import curbmap; "
            "print(' '.join({name.partition('.')[0] for name in set(sys.modules) - before}))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    allowed = set(sys.stdlib_module_names) | {"numpy", "curbmap"}
    loaded = set(done.stdout.split())
    assert {"numpy", "curbmap"} <= loaded <= allowed, loaded - allowed


def test_benchmark_trace_points_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for module, attr, _ in spans.TRACE_POINTS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert spans.TRACE_POINTS and not missing, missing


def test_demo_run_prints_scored_report(tmp_path, monkeypatch, capsys):
    # the demo imports perfbench's modules: no bytecode is written there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("demo", ROOT / "scripts" / "run_street_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    scene = demo.SceneSpec(**demo.WORKLOADS["street"].scene_kwargs(0, scale=0.2))
    assert demo.run("street", scene, 0.3, 0.35, 2, tmp_path)
    line = json.loads(capsys.readouterr().out)
    assert (line["workload"], line["seed"], line["sigma"], line["tau"]) == ("street", 0, 0.3, 0.35)
    assert set(line["quality"]) == {"curb_recall", "curb_precision", "grid_accuracy"}
    assert 0.5 < line["quality"]["grid_accuracy"] <= 1.0
    counts = line["counts"]
    assert counts["vote_pairs_examined"] > counts["vote_pairs_in_radius"] > 0
    assert counts["vote_blocks"] > 0 and counts["vote_max_block_pairs"] > 0
    assert line["canopy_curb_points"] <= counts["curb_points"]
    assert line["reparse_exact"] is True
    files = ["street_labeled.xyz", "street_dem.asc", "street_map.ppm", "street_map.sgrd"]
    assert line["sha256"] == {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                              for name in files}

    # the labeled cloud the demo wrote is a CLI input
    grid = tmp_path / "rerun.sgrd"
    assert cli.main(["--input", str(tmp_path / "street_labeled.xyz"), "--format", "xyz",
                     "--out-grid", str(grid)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out)["written"] == [str(grid)]


def test_demo_points_run_in_fresh_processes(tmp_path, monkeypatch, capfd):
    # each point's child imports the script and perfbench's modules: no
    # bytecode is written there
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    demo = importlib.import_module("run_street_demo")
    points = [(name, demo.SceneSpec(**demo.WORKLOADS[name].scene_kwargs(0, scale=0.2)), 0.3, 0.35)
              for name in ("street", "survey")]
    assert demo.run_each(points, 1, tmp_path) == [True, True]
    first, second = map(json.loads, capfd.readouterr().out.splitlines())
    assert (first["workload"], second["workload"]) == ("street", "survey")
    # in one process the survey would start at the street's high-water mark
    assert second["stage_peak_rss_mb"]["parse"] < first["peak_rss_mb"]
    # the survey parses the PCD file a process of its own wrote, as the
    # benchmark reads it; the street runs on its scene in memory
    survey = demo.generate_scene(points[1][1])
    source = tmp_path / "survey_0_input.pcd"
    assert demo.parse_cloud(source.read_bytes(), "pcd")[0].points.tobytes() == \
        survey.points.tobytes()
    assert second["counts"]["parse_points"] == len(survey)
    assert second["seconds"]["parse"] > 10 * first["seconds"]["parse"]
    assert first["counts"]["parse_points"] == len(demo.generate_scene(points[0][1]))
    assert not (tmp_path / "street_0_input.pcd").exists()


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class StubBenchmark:
    """Stands in for perfbench/run.py: records each run, returns made-up metrics.

    The parent reads pipeline_s 10, 11, 12, ... and peak_rss_mb 50 on its
    runs in turn; the change reads 1 s less, and peak_rss_mb 49 except on
    its third run, where it reads 51.
    """

    def __init__(self, incorrect_at=None):
        self.calls = []
        self.incorrect_at = incorrect_at

    def __call__(self, checkout, args):
        self.calls.append((checkout, list(args)))
        side = checkout.name
        k = sum(1 for c, _ in self.calls if c.name == side) - 1
        pipeline = 10.0 + k - (side == "change")
        peak = 50.0 if side == "parent" else (51.0 if k == 2 else 49.0)
        return {"correct": len(self.calls) != self.incorrect_at, "attempted": 3, "failed": 0,
                "metrics": {"pipeline_s": {"value": pipeline, "unit": "s"},
                            "peak_rss_mb": {"value": peak, "unit": "MiB"},
                            "traced_only": {"value": 1.0, "unit": "s"}}}


class TestBenchPairs:
    """scripts/bench_pairs.py over a stubbed benchmark run, no real run."""

    END_TO_END = {"pipeline_s": {"better": "lower", "bound": 0.25},
                  "peak_rss_mb": {"better": "lower", "bound": 0.2}}

    def test_alternates_and_summarises(self, tmp_path):
        bench = load_script("bench_pairs")
        stub = StubBenchmark()
        checkouts = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
        record = bench.compare(checkouts, "street", 4, 50.0, 3, self.END_TO_END, stub)
        assert [c.name for c, _ in stub.calls] == ["parent", "change", "change", "parent"] * 2
        assert record["order"] == [["parent", "change"], ["change", "parent"]] * 2
        assert all(args == ["--workload", "street", "--seconds", "50.0", "--trace", "0",
                            "--seed", "3"] for _, args in stub.calls)
        assert record["calls"]["change"] == {"attempted": 12, "failed": 0}
        pipeline = record["metrics"]["pipeline_s"]
        assert pipeline["parent"] == {"runs": [10.0, 11.0, 12.0, 13.0], "median": 11.5,
                                      "q1": 10.75, "q3": 12.25}
        assert pipeline["change"]["runs"] == [9.0, 10.0, 11.0, 12.0]
        assert pipeline["change_better_pairs"] == 4
        assert record["metrics"]["peak_rss_mb"]["change_better_pairs"] == 3
        # a metric with no direction is summarised but not counted
        assert "change_better_pairs" not in record["metrics"]["traced_only"]
        assert "verdict" not in record["metrics"]["traced_only"]

    @pytest.mark.parametrize("parent, change, verdict", [
        # the median 30% worse, beyond the 25% bound
        ([10.0] * 10, [13.0] * 10, "worse"),
        # the parent's quartiles 7 and 13 spread 60% of its median
        ([7.0, 13.0] * 5, [10.0] * 10, "unresolved"),
        # the same spread, but every change run beats every parent run
        ([7.0, 13.0] * 5, [6.0] * 10, "within bound"),
        # 9 of 10 pairs won, medians 1.1 apart against a spread of 0.2
        ([10.0, 10.2] * 5, [9.0] * 9 + [10.5], "better"),
        # 5 of 10 pairs won
        ([10.0, 10.2] * 5, [10.1] * 10, "within bound"),
    ])
    def test_verdict_per_metric(self, tmp_path, parent, change, verdict):
        bench = load_script("bench_pairs")
        series = {"parent": iter(parent), "change": iter(change)}

        def run(checkout, args):
            value = next(series[checkout.name])
            return {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"pipeline_s": {"value": value, "unit": "s"}}}

        checkouts = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
        entry = bench.compare(checkouts, "street", 10, 50.0, None, self.END_TO_END,
                              run)["metrics"]["pipeline_s"]
        assert entry["verdict"] == verdict
        assert entry["bound"] == 0.25
        median = entry["parent"]["median"]
        assert entry["worse_by"] == pytest.approx((entry["change"]["median"] - median) / median)
        assert entry["parent_spread"] == pytest.approx(
            (entry["parent"]["q3"] - entry["parent"]["q1"]) / median)

    def test_refuses_an_incorrect_run(self, tmp_path):
        bench = load_script("bench_pairs")
        stub = StubBenchmark(incorrect_at=3)
        checkouts = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
        with pytest.raises(bench.RunRefused, match="pair 2, change"):
            bench.compare(checkouts, "survey", 2, 1.0, None, self.END_TO_END, stub)
        assert len(stub.calls) == 3
        assert "--seed" not in stub.calls[0][1]

    def test_main_writes_the_comparison(self, tmp_path, monkeypatch, capsys):
        bench = load_script("bench_pairs")
        stub = StubBenchmark()
        monkeypatch.setattr(bench, "run_benchmark", stub)
        change = tmp_path / "change"
        change.mkdir()
        (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": name, **spec} for name, spec in self.END_TO_END.items()]}))
        out = tmp_path / "pairs.json"
        assert bench.main(["--parent", str(tmp_path / "parent"), "--change", str(change),
                           "--workload", "street", "--pairs", "2", "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["pairs"] == 2 and record["seconds"] == 50.0
        assert record["metrics"]["peak_rss_mb"]["change_better_pairs"] == 2
        assert ("pipeline_s: parent 10.5, change 9.5, change better in 2 of 2, worse by -9.5%, "
                "parent spread 4.8%, bound 25%: better") in capsys.readouterr().out
        stub.incorrect_at = len(stub.calls) + 1
        assert bench.main(["--parent", str(tmp_path / "parent"), "--change", str(change),
                           "--workload", "street", "--pairs", "1", "--out",
                           str(tmp_path / "refused.json")]) == 1
        assert not (tmp_path / "refused.json").exists()
