"""The CI lint job as a tier-1 test.

``ruff.toml`` selects syntax errors, undefined names and unused imports
and locals (F401/F841) over the four python trees.  ``ruff`` is a dev
dependency (``requirements-dev.txt``); where it is not installed the
test skips and says so instead of passing silently.
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")


def test_ruff_check_is_clean():
    if importlib.util.find_spec("ruff") is None:
        pytest.skip("ruff is not installed here; CI's lint job runs the same command")
    result = subprocess.run(
        [sys.executable, "-m", "ruff", "check", *TREES],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
