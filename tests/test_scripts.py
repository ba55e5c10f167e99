"""Every script under scripts/ imports cleanly and prints its help.

The scripts import from curbmap, so a name retired from the package
shows up here as an ImportError. The package itself imports nothing
beyond the standard library and numpy, and every function the
benchmark's tracer wraps still exists where the tracer looks for it.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_help_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
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
