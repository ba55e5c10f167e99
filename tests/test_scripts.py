"""Every script under scripts/ imports cleanly and prints its help.

The scripts import from curbmap, so a name retired from the package
shows up here as an ImportError. The package itself imports nothing
beyond the standard library and numpy.
"""

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
