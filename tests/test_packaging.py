"""``setup.py`` describes the package it ships (it used to call
``setup()`` bare: name ``UNKNOWN``, version ``0.0.0``, no packages)."""

import pathlib
import subprocess
import sys

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_setup_py_reports_the_package_name_and_version():
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["repro", repro.__version__]
