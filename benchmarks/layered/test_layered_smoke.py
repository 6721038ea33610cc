"""Smoke test of the layered benchmark (tiny sizes, a few seconds).

Runs the real command line in subprocesses -- the suite once with
``--smoke``, one workload the way the benchmark driver calls it -- and
checks the shape of what comes out against ``BENCHMARK.json``.  Imports
nothing from the benchmark, so collecting it next to the tier-1 tests
adds no module to their import path.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
MANIFEST = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, str(RUN), *map(str, args)],
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    path = tmp_path_factory.mktemp("layered") / "result.json"
    done = run_cli("--smoke", "--output", path)
    assert done.returncode == 0, done.stdout + done.stderr
    return path, json.loads(path.read_text()), done.stdout


def test_names_match_the_manifest(suite):
    _, result, _ = suite
    assert list(result["workloads"]) == [w["name"] for w in MANIFEST["workloads"]]
    declared = {m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    emitted = set()
    for entry in result["workloads"].values():
        emitted.update(entry["end_to_end"], entry["per_layer"])
    assert emitted == declared
    for name in declared | set(result["workloads"]):
        assert NAME_RE.fullmatch(name), name


def test_values_are_finite_or_declared_null(suite):
    _, result, _ = suite
    universal = [m["name"] for m in MANIFEST["end_to_end"]]
    seen = set()
    for workload, entry in result["workloads"].items():
        assert entry["correct"], workload
        for name in universal:
            assert entry["end_to_end"][name]["median"] > 0, (workload, name)
        rows = {n: r["median"] for n, r in entry["end_to_end"].items()}
        rows.update({n: r["value"] for n, r in entry["per_layer"].items()})
        for name, value in rows.items():
            if value is not None:
                assert math.isfinite(value), (workload, name)
                seen.add(name)
    # A null is a metric the workload does not have, or a p99 with too few
    # samples at smoke size; everything else is measured somewhere.
    never = {m["name"] for m in MANIFEST["per_layer"]} - seen
    assert all(name.endswith("_p99") for name in never), sorted(never)


def test_traced_self_times_sum_to_the_wall(suite):
    _, result, _ = suite
    for workload, entry in result["workloads"].items():
        trace = entry["trace"]
        assert trace["self_sum_s"] == pytest.approx(trace["wall_s"], rel=0.05), workload


def test_environment_and_pass_flags(suite):
    _, result, stdout = suite
    assert {"python", "nproc", "cpu_model"} <= set(result["environment"])
    assert all({"load_start", "load_end", "noisy"} <= set(p) for p in result["passes"])
    assert "wall_s" in stdout and "share.engine" in stdout
    assert f"(default {MANIFEST['run_seconds']})" in run_cli("--help").stdout


def test_compare_with_itself_is_all_ok(suite):
    path, _, _ = suite
    done = run_cli("--compare", path, path)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert len(rows) == len(MANIFEST["workloads"])
    assert all(row[2] == "0" and row[3] == "0" for row in rows), done.stdout


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_line(trace, section):
    done = run_cli("--workload", "wire-writes", "--seed", 7, "--seconds", 0.2,
                   "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] >= 0
    declared = {m["name"]: m["unit"] for m in MANIFEST[section]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
