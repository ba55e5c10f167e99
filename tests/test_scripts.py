"""Every script under scripts/ imports cleanly and prints its help.

The scripts import from curbmap, so a name retired from the package
shows up here as an ImportError. The demo's per-run code runs on a
thinned street, and the labeled cloud it writes runs through the CLI;
its grid points run one fresh process each.
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
