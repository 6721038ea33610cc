"""The scale bench (``benchmarks/bench_scale.py``) and the section it
commits: cells in ascending N, a heap audit and a peak-RSS reading per
cell, and a bound breach that fails both the bench and the gate.

The bench runs here on tiny populations; the committed section holds
the full matrix.
"""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = str(ROOT / "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import bench_scale  # noqa: E402
import check_regression  # noqa: E402

TINY_CELLS = (32, 64)


@pytest.fixture
def tiny_matrix(monkeypatch):
    monkeypatch.setattr(bench_scale, "CELLS", TINY_CELLS)


def test_cells_run_in_ascending_population():
    # peak_rss_mb is the process high-water mark: it is a cell's own
    # reading only while every earlier cell is smaller.
    assert list(bench_scale.CELLS) == sorted(set(bench_scale.CELLS))


def test_a_cell_records_its_heap_audit_and_peak_rss():
    cell = bench_scale.run_cell(64, seed=bench_scale.SEED, duration_scale=0.05)
    assert cell["n_peers"] == 64
    assert cell["events"] > 0 and cell["queries"] > 0
    assert cell["pending_bound"] == (
        bench_scale.PENDING_PER_PEER * 64 + bench_scale.PENDING_SLACK
    )
    assert 0 < cell["pending_peak"] <= cell["pending_bound"]
    assert cell["pending_bound_ok"] is True
    assert cell["peak_rss_mb"] > 0


def test_main_merges_the_scale_section_and_keeps_the_others(
    tmp_path, tiny_matrix, capsys
):
    output = tmp_path / "BENCH_core.json"
    scenarios = {"backend": "dataplane", "results": {}}
    output.write_text(json.dumps({"schema": "bench-core/v1", "scenarios": scenarios}))
    assert bench_scale.main(["--output", str(output)]) == 0
    payload = json.loads(output.read_text())
    assert payload["scenarios"] == scenarios
    section = payload["scale"]
    assert section["schema"] == "scale/v1"
    assert section["seed"] == bench_scale.SEED
    assert section["duration_scale"] == bench_scale.DURATION_SCALE
    assert [cell["n_peers"] for cell in section["cells"]] == list(TINY_CELLS)
    readings = [cell["peak_rss_mb"] for cell in section["cells"]]
    assert readings == sorted(readings)  # one process: a high-water mark
    assert "updated" in capsys.readouterr().out


def test_a_heap_bound_breach_fails_the_bench_and_the_gate(
    tmp_path, tiny_matrix, monkeypatch, capsys
):
    monkeypatch.setattr(bench_scale, "PENDING_PER_PEER", 0)
    monkeypatch.setattr(bench_scale, "PENDING_SLACK", 0)
    output = tmp_path / "BENCH_core.json"
    assert bench_scale.main(["--output", str(output)]) == 1
    assert "exceeds bound" in capsys.readouterr().err
    # The section is still written, and the gate refuses it on its own.
    gate = check_regression.scale_bounds_gate({}, json.loads(output.read_text()))
    assert len(gate.rows) == len(TINY_CELLS)
    assert all(row.breached for row in gate.rows)


def test_committed_section_holds_the_full_matrix():
    section = json.loads((ROOT / "BENCH_core.json").read_text())["scale"]
    assert section["scenario"] == bench_scale.SCENARIO
    assert section["seed"] == bench_scale.SEED
    assert section["duration_scale"] == bench_scale.DURATION_SCALE
    cells = section["cells"]
    assert [cell["n_peers"] for cell in cells] == list(bench_scale.CELLS)
    for cell in cells:
        assert cell["pending_bound_ok"] is True, cell["n_peers"]
        assert cell["pending_peak"] <= cell["pending_bound"]
        assert cell["pending_bound"] == (
            bench_scale.PENDING_PER_PEER * cell["n_peers"] + bench_scale.PENDING_SLACK
        )
        assert cell["peak_rss_mb"] > 0


def test_committed_smallest_cell_matches_the_code():
    # The run is deterministic: a committed cell the code no longer
    # produces is stale.  Host readings (wall_s, events_per_s,
    # peak_rss_mb) are not compared.
    committed = json.loads((ROOT / "BENCH_core.json").read_text())["scale"]["cells"][0]
    cell = bench_scale.run_cell(
        4096, seed=bench_scale.SEED, duration_scale=bench_scale.DURATION_SCALE
    )
    assert committed["n_peers"] == 4096
    for field in check_regression.SCALE_FIELDS:
        assert cell[field] == committed[field], field
