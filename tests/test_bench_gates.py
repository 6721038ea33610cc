"""CI gate plumbing: the regression check and snapshot merging.

The ``deterministic-gates`` job's promise is behavioral: it must *fail*
on a regression beyond tolerance, *pass* on unchanged numbers and
*refuse* (exit 2) a candidate no gate can read, and ``BENCH_core.json``
must come out the same whichever benchmark script writes it first.
These tests drive the actual scripts (``benchmarks/check_regression.py``,
``bench_scenarios.merge_into_snapshot``) against synthetic snapshots
and against the committed one.
"""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = str(ROOT / "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import bench_scenarios  # noqa: E402
import check_regression  # noqa: E402


def scale_section(pending_peak=935, pending_ok=True):
    return {
        "schema": "scale/v1",
        "scenario": "uniform-baseline",
        "seed": 20050830,
        "duration_scale": 0.05,
        "cells": [
            {
                "n_peers": 16384,
                "wall_s": 6.5, "events": 15456, "events_per_s": 6400.0,
                "pending_peak": pending_peak, "pending_bound": 66560,
                "pending_bound_ok": pending_ok,
            },
            {
                "n_peers": 4096,
                "wall_s": 6.5, "events": 4287, "events_per_s": 6400.0,
                "pending_peak": 318, "pending_bound": 17408,
                "pending_bound_ok": True,
            },
        ],
    }


def snapshot(extra=None):
    """A healthy snapshot; its ``scale`` section gives the pending-bound
    gate rows, so a candidate with no other section is still readable."""
    payload = {"schema": "bench-core/v1", "scale": scale_section()}
    if extra:
        payload.update(extra)
    return payload


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


#: The console heading of every kept gate, as ``main`` prints it.
KEPT_GATES = (
    "scenario gate [scenarios]",
    "scenario gate [scenarios_message]",
    "recovery gate",
    "serving gate",
    "mdim gate",
    "scale gate (intra-snapshot",
)


class TestCheckRegression:
    def test_unreadable_snapshot_is_a_gate_error(self, tmp_path):
        base = tmp_path / "missing.json"
        cand = write(tmp_path, "cand.json", snapshot())
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 2

    def test_empty_candidate_is_a_gate_error(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", snapshot())
        cand = write(tmp_path, "cand.json", {})
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 2
        assert "no gate yielded a row" in capsys.readouterr().err

    def test_candidate_of_unrelated_keys_is_a_gate_error(self, tmp_path, capsys):
        # A snapshot of timings alone (the shape of a retired section)
        # gives no gate anything to read: refused, never a silent pass.
        base = write(tmp_path, "base.json", snapshot())
        cand = write(tmp_path, "cand.json", {
            "schema": "bench-core/v1",
            "results": {"lookup_us": {"256": 5.0}},
            "timestamp": "2026-07-28T18:10:38Z",
        })
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 2
        assert "no gate yielded a row" in capsys.readouterr().err

    def test_committed_snapshot_has_rows_under_every_gate(self, capsys):
        # A commit that drops a section of BENCH_core.json, or one whose
        # gate stops yielding rows, fails here rather than in CI alone.
        committed = str(ROOT / "BENCH_core.json")
        assert check_regression.main(
            ["--baseline", committed, "--candidate", committed]
        ) == 0
        console = blocks(capsys.readouterr().out, CONSOLE_HEADINGS)
        for heading in KEPT_GATES:
            assert any(
                h.startswith(heading) and rows for h, rows in console.items()
            ), heading


def scenario_section(mass_leave=0.97, churn=0.94, *, n_peers=4096, scale=1.0):
    return {
        "backend": "message",
        "n_peers": n_peers,
        "duration_scale": scale,
        "seed": 20050830,
        "results": {
            "mass-leave": {"success_rate": mass_leave, "queries": 3600},
            "paper-sec51-churn": {"success_rate": churn, "queries": 4400},
        },
    }


class TestScenarioSuccessGate:
    """The message-backend success-rate gate: repair regressions must
    fail the job even when raw perf is fine."""

    def test_matching_rates_pass(self, tmp_path, capsys):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": scenario_section()}))
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios_message": scenario_section()}))
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 0
        assert "scenario gate [scenarios_message]" in capsys.readouterr().out

    def test_success_drop_beyond_tolerance_fails(self, tmp_path, capsys):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": scenario_section()}))
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios_message": scenario_section(mass_leave=0.64)}))
        code = check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        )
        assert code == 1
        out = capsys.readouterr()
        assert "mass-leave" in out.err

    def test_drop_inside_tolerance_passes(self, tmp_path):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": scenario_section()}))
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios_message": scenario_section(mass_leave=0.93)}))
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 0

    def test_scenario_tolerance_is_configurable(self, tmp_path):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": scenario_section()}))
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios_message": scenario_section(mass_leave=0.93)}))
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand),
             "--scenario-tolerance", "0.01"]
        ) == 1

    def test_improvements_never_fail(self, tmp_path):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": scenario_section(mass_leave=0.64)}))
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios_message": scenario_section(mass_leave=0.97)}))
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 0

    def test_incomparable_populations_skip_the_scenario_gate(self, tmp_path, capsys):
        # The quick CI candidate (N=256) is incomparable to the
        # committed N=4096 section: skipped, never a false failure.
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": scenario_section()}))
        cand = write(tmp_path, "cand.json", snapshot(extra={
            "scenarios_message": scenario_section(mass_leave=0.50, n_peers=256, scale=0.25)
        }))
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 0
        assert "skipped" in capsys.readouterr().out

    def test_scenario_missing_from_candidate_fails(self, tmp_path, capsys):
        # A partial candidate must not pass by omitting the regressed
        # scenario: a baseline-gated scenario absent from the candidate
        # section is itself a failure.
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": scenario_section()}))
        partial = scenario_section()
        del partial["results"]["mass-leave"]
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios_message": partial}))
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 1
        assert "missing from candidate" in capsys.readouterr().err

    def test_scenario_new_in_candidate_is_not_gated(self, tmp_path):
        base = scenario_section()
        del base["results"]["mass-leave"]  # baseline predates the scenario
        basep = write(tmp_path, "base.json",
                      snapshot(extra={"scenarios_message": base}))
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios_message": scenario_section()}))
        assert check_regression.main(
            ["--baseline", str(basep), "--candidate", str(cand)]
        ) == 0

    def test_missing_section_skips_the_scenario_gate(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", snapshot())
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios_message": scenario_section()}))
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 0
        assert "skipped" in capsys.readouterr().out


def write_section(
    write_sr=0.98, divergence=0.01, bytes_update=500_000, *,
    bytes_maintenance=4_000_000, section_backend="message",
):
    section = scenario_section()
    section["backend"] = section_backend
    section["results"]["read-write-balanced"] = {
        "success_rate": 0.99,
        "write_success_rate": write_sr,
        "divergence_final": divergence,
        "bytes_update": bytes_update,
        "bytes_maintenance": bytes_maintenance,
        "queries": 2400,
        "writes": 1200,
    }
    return section


class TestWriteMetricGates:
    """The write-path gate: write success, replica divergence and update
    bandwidth are first-class gated metrics, not silently ignored keys."""

    def pair(self, tmp_path, base_section, cand_section):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": base_section}))
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios_message": cand_section}))
        return ["--baseline", str(base), "--candidate", str(cand)]

    def test_matching_write_metrics_pass(self, tmp_path):
        argv = self.pair(tmp_path, write_section(), write_section())
        assert check_regression.main(argv) == 0

    def test_write_success_drop_fails(self, tmp_path, capsys):
        argv = self.pair(tmp_path, write_section(), write_section(write_sr=0.80))
        assert check_regression.main(argv) == 1
        assert "write_success_rate" in capsys.readouterr().err

    def test_divergence_rise_fails(self, tmp_path, capsys):
        argv = self.pair(tmp_path, write_section(), write_section(divergence=0.30))
        assert check_regression.main(argv) == 1
        assert "divergence_final" in capsys.readouterr().err

    def test_divergence_drop_never_fails(self, tmp_path):
        argv = self.pair(tmp_path, write_section(divergence=0.30), write_section())
        assert check_regression.main(argv) == 0

    def test_update_bytes_blowup_fails(self, tmp_path, capsys):
        argv = self.pair(
            tmp_path, write_section(), write_section(bytes_update=1_000_000)
        )
        assert check_regression.main(argv) == 1
        assert "bytes_update" in capsys.readouterr().err

    def test_update_bytes_within_ratio_pass(self, tmp_path):
        argv = self.pair(
            tmp_path, write_section(), write_section(bytes_update=700_000)
        )
        assert check_regression.main(argv) == 0

    def test_maintenance_bytes_blowup_fails(self, tmp_path, capsys):
        # The probe tax creeping back (PR 18 cut it by more than half).
        argv = self.pair(
            tmp_path, write_section(), write_section(bytes_maintenance=8_000_000)
        )
        assert check_regression.main(argv) == 1
        assert "bytes_maintenance" in capsys.readouterr().err

    def test_maintenance_bytes_within_ratio_pass(self, tmp_path):
        argv = self.pair(
            tmp_path, write_section(), write_section(bytes_maintenance=5_000_000)
        )
        assert check_regression.main(argv) == 0

    def test_ratio_tolerance_is_configurable(self, tmp_path):
        argv = self.pair(
            tmp_path, write_section(), write_section(bytes_maintenance=5_400_000)
        )
        assert check_regression.main(argv) == 0
        assert check_regression.main(argv + ["--tolerance", "1.2"]) == 1

    def test_byte_improvements_never_fail(self, tmp_path):
        argv = self.pair(
            tmp_path, write_section(),
            write_section(bytes_update=50_000, bytes_maintenance=400_000),
        )
        assert check_regression.main(argv) == 0

    def test_dataplane_section_is_gated_too(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", snapshot(
            extra={"scenarios": write_section(section_backend="dataplane")}
        ))
        cand = write(tmp_path, "cand.json", snapshot(
            extra={"scenarios": write_section(0.5, section_backend="dataplane")}
        ))
        code = check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        )
        assert code == 1
        assert "scenarios/read-write-balanced" in capsys.readouterr().err


class TestStepSummary:
    """The CI-readability satellite: gate results as a markdown table."""

    def run_with_summary(self, tmp_path, cand_payload):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": write_section()}))
        cand = write(tmp_path, "cand.json", cand_payload)
        summary = tmp_path / "summary.md"
        code = check_regression.main([
            "--baseline", str(base), "--candidate", str(cand),
            "--summary", str(summary),
        ])
        return code, summary.read_text()

    def test_passing_gate_writes_markdown_tables(self, tmp_path):
        code, text = self.run_with_summary(
            tmp_path, snapshot(extra={"scenarios_message": write_section()})
        )
        assert code == 0
        assert "## Regression gates — ✅ pass" in text
        assert "| scenario | metric | baseline | candidate | verdict |" in text
        assert "`scenarios_message`" in text
        assert "| read-write-balanced | write_success_rate |" in text

    def test_failing_gate_marks_rows_and_lists_failures(self, tmp_path):
        code, text = self.run_with_summary(
            tmp_path,
            snapshot(extra={"scenarios_message": write_section(write_sr=0.5)}),
        )
        assert code == 1
        assert "## Regression gates — ❌ FAIL" in text
        assert "❌ fail" in text
        assert "**Regressions beyond tolerance:**" in text
        assert "write_success_rate" in text

    def test_skipped_sections_are_noted(self, tmp_path):
        code, text = self.run_with_summary(tmp_path, snapshot())
        # Candidate has no scenario sections at all: both gates skip,
        # and the scale section's rows keep it readable.
        assert code == 0
        assert text.count("_skipped:") == 2

    def test_summary_env_var_is_honored(self, tmp_path, monkeypatch):
        base = write(tmp_path, "base.json", snapshot())
        cand = write(tmp_path, "cand.json", snapshot())
        summary = tmp_path / "ghsummary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 0
        assert "## Regression gates" in summary.read_text()

    def test_summary_appends_not_overwrites(self, tmp_path):
        base = write(tmp_path, "base.json", snapshot())
        cand = write(tmp_path, "cand.json", snapshot())
        summary = tmp_path / "summary.md"
        summary.write_text("previous step output\n")
        check_regression.main([
            "--baseline", str(base), "--candidate", str(cand),
            "--summary", str(summary),
        ])
        text = summary.read_text()
        assert text.startswith("previous step output\n")
        assert "## Regression gates" in text


class TestSnapshotMergeOrder:
    """The BENCH_core.json ordering footgun: the bench scripts may run
    in any order."""

    SECTIONS = (
        ("scenarios", {"backend": "dataplane", "results": {"uniform-baseline": {"queries": 1}}}),
        ("scenarios_message", {"backend": "message", "results": {"uniform-baseline": {"queries": 1}}}),
        ("scale", {"schema": "scale/v1", "cells": []}),
    )

    def merged(self, path, sections):
        for key, section in sections:
            bench_scenarios.merge_into_snapshot(section, path, key)
        return json.loads(path.read_text())

    def both_orders(self, tmp_path):
        return (
            self.merged(tmp_path / "a.json", self.SECTIONS),
            self.merged(tmp_path / "b.json", self.SECTIONS[::-1]),
        )

    def test_sections_survive_either_order(self, tmp_path):
        first, second = self.both_orders(tmp_path)
        for payload in (first, second):
            assert payload["schema"] == "bench-core/v1"
            assert payload["scenarios"]["backend"] == "dataplane"
            assert payload["scenarios_message"]["backend"] == "message"
            assert payload["scale"]["schema"] == "scale/v1"

    def test_content_identical_across_orders(self, tmp_path):
        first, second = self.both_orders(tmp_path)
        assert first == second

    def test_refresh_replaces_its_own_section(self, tmp_path):
        path = tmp_path / "c.json"
        self.merged(path, self.SECTIONS)
        fresh = {"backend": "dataplane", "results": {"uniform-baseline": {"queries": 2}}}
        payload = self.merged(path, [("scenarios", fresh)])  # fresh numbers win
        assert payload["scenarios"] == fresh
        assert payload["scenarios_message"]["backend"] == "message"  # foreign kept


def recovery_section(
    warm_time=2.0,
    warm_bytes=100_000,
    cold_time=50.0,
    cold_bytes=400_000,
    lost=0,
    resurrected=0,
    *,
    crashes=0,
    durability=True,
):
    """A scenario section carrying one restart entry with inline cold pass."""
    section = scenario_section()
    section["results"]["restart-storm"] = {
        "success_rate": 0.99,
        "queries": 3600,
        "recovery_time_s": warm_time,
        "recovery_maint_bytes": warm_bytes,
        "lost_acked_writes": lost,
        "tombstone_resurrections": resurrected,
        "recovery": {
            "durability_enabled": durability,
            "restarts": 24,
            "clean_shutdowns": 24 - crashes,
            "crashes": crashes,
            "cold": {
                "time_to_converged_divergence_s": cold_time,
                "recovery_maint_bytes": cold_bytes,
                "lost_acked_writes": 3,
                "tombstone_resurrections": 2,
            },
        },
    }
    return section


class TestRecoveryGate:
    """The persistence gate: warm rejoin must beat the inline cold pass,
    and clean-shutdown durable runs must lose nothing -- intra-snapshot
    checks that run even without a comparable baseline."""

    def pair(self, tmp_path, cand_section):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": scenario_section()}))
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios_message": cand_section}))
        return ["--baseline", str(base), "--candidate", str(cand)]

    def test_healthy_recovery_passes(self, tmp_path, capsys):
        argv = self.pair(tmp_path, recovery_section())
        assert check_regression.main(argv) == 0
        assert "recovery gate" in capsys.readouterr().out

    def test_warm_time_exceeding_cold_fails(self, tmp_path, capsys):
        argv = self.pair(tmp_path, recovery_section(warm_time=60.0))
        assert check_regression.main(argv) == 1
        assert "time-to-converged-divergence" in capsys.readouterr().err

    def test_warm_bytes_must_be_strictly_below_cold(self, tmp_path, capsys):
        argv = self.pair(tmp_path, recovery_section(warm_bytes=400_000))
        assert check_regression.main(argv) == 1
        assert "maintenance bytes" in capsys.readouterr().err

    def test_clean_shutdown_loss_fails(self, tmp_path, capsys):
        argv = self.pair(tmp_path, recovery_section(lost=1))
        assert check_regression.main(argv) == 1
        assert "lost_acked_writes" in capsys.readouterr().err

    def test_clean_shutdown_resurrection_fails(self, tmp_path, capsys):
        argv = self.pair(tmp_path, recovery_section(resurrected=2))
        assert check_regression.main(argv) == 1
        assert "tombstone_resurrections" in capsys.readouterr().err

    def test_crash_runs_are_not_zero_gated(self, tmp_path):
        argv = self.pair(
            tmp_path, recovery_section(lost=4, resurrected=1, crashes=8)
        )
        assert check_regression.main(argv) == 0

    def test_durability_off_runs_are_not_zero_gated(self, tmp_path):
        argv = self.pair(
            tmp_path, recovery_section(lost=4, resurrected=1, durability=False)
        )
        assert check_regression.main(argv) == 0

    def test_recovery_rows_reach_the_step_summary(self, tmp_path):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": scenario_section()}))
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios_message": recovery_section()}))
        summary = tmp_path / "summary.md"
        assert check_regression.main([
            "--baseline", str(base), "--candidate", str(cand),
            "--summary", str(summary),
        ]) == 0
        text = summary.read_text()
        assert "### Recovery" in text
        assert "warm_bytes<cold_bytes" in text


def serving_section(
    p99_on=0.4,
    p99_off=30.5,
    gini_on=0.22,
    gini_off=0.34,
    succ_on=0.99,
    succ_off=0.99,
    *,
    enabled=True,
    hit_rate=0.5,
    stale_rate=0.1,
):
    """A scenario section carrying one serving entry with inline off pass."""
    section = scenario_section()
    section["results"]["zipf-serving"] = {
        "success_rate": succ_on,
        "queries": 7200,
        "cache_hit_rate": hit_rate,
        "stale_read_rate": stale_rate,
        "serving_p99_s": p99_on,
        "load_gini": gini_on,
        "serving": {
            "enabled": enabled,
            "off": {
                "success_rate": succ_off,
                "serving_p99_s": p99_off,
                "load_gini": gini_off,
            },
        },
    }
    return section


class TestServingGate:
    """The serving gate: caches on must beat the inline cache-off pass
    on tail latency and load spread without losing query success --
    intra-snapshot checks that run even without a comparable baseline."""

    def pair(self, tmp_path, cand_section):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": scenario_section()}))
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios_message": cand_section}))
        return ["--baseline", str(base), "--candidate", str(cand)]

    def test_healthy_serving_passes(self, tmp_path, capsys):
        argv = self.pair(tmp_path, serving_section())
        assert check_regression.main(argv) == 0
        assert "serving gate" in capsys.readouterr().out

    def test_p99_not_below_off_fails(self, tmp_path, capsys):
        argv = self.pair(tmp_path, serving_section(p99_on=30.5, p99_off=30.5))
        assert check_regression.main(argv) == 1
        assert "serving p99" in capsys.readouterr().err

    def test_gini_not_below_off_fails(self, tmp_path, capsys):
        argv = self.pair(tmp_path, serving_section(gini_on=0.34, gini_off=0.34))
        assert check_regression.main(argv) == 1
        assert "load Gini" in capsys.readouterr().err

    def test_success_drop_beyond_tolerance_fails(self, tmp_path, capsys):
        argv = self.pair(tmp_path, serving_section(succ_on=0.80, succ_off=0.99))
        assert check_regression.main(argv) == 1
        assert "query success" in capsys.readouterr().err

    def test_success_drop_inside_tolerance_passes(self, tmp_path):
        argv = self.pair(tmp_path, serving_section(succ_on=0.97, succ_off=0.99))
        assert check_regression.main(argv) == 0

    def test_disabled_entries_are_not_gated(self, tmp_path):
        # An enabled=False headline entry carries baseline-only numbers;
        # there is no cache win to enforce.
        argv = self.pair(
            tmp_path,
            serving_section(p99_on=30.5, p99_off=30.5, enabled=False),
        )
        assert check_regression.main(argv) == 0

    def test_dataplane_entries_without_latency_gate_gini_only(self, tmp_path, capsys):
        section = serving_section(gini_on=0.50, gini_off=0.34)
        entry = section["results"]["zipf-serving"]
        entry["serving_p99_s"] = None
        entry["serving"]["off"]["serving_p99_s"] = None
        section["backend"] = "dataplane"
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios": scenario_section()}))
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios": section}))
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 1
        err = capsys.readouterr().err
        assert "load Gini" in err and "p99" not in err

    def test_hit_rate_drop_vs_baseline_fails(self, tmp_path, capsys):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": serving_section()}))
        cand = write(
            tmp_path, "cand.json",
            snapshot(extra={"scenarios_message": serving_section(hit_rate=0.3)}),
        )
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 1
        assert "cache_hit_rate" in capsys.readouterr().err

    def test_stale_rate_rise_vs_baseline_fails(self, tmp_path, capsys):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": serving_section()}))
        cand = write(
            tmp_path, "cand.json",
            snapshot(extra={"scenarios_message": serving_section(stale_rate=0.3)}),
        )
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 1
        assert "stale_read_rate" in capsys.readouterr().err

    def test_p99_ratio_blowup_vs_baseline_fails(self, tmp_path, capsys):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": serving_section()}))
        cand = write(
            tmp_path, "cand.json",
            snapshot(extra={"scenarios_message": serving_section(
                p99_on=0.9, p99_off=30.5)}),
        )
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 1
        assert "serving_p99_s" in capsys.readouterr().err

    def test_serving_rows_reach_the_step_summary(self, tmp_path):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": scenario_section()}))
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios_message": serving_section()}))
        summary = tmp_path / "summary.md"
        assert check_regression.main([
            "--baseline", str(base), "--candidate", str(cand),
            "--summary", str(summary),
        ]) == 0
        text = summary.read_text()
        assert "### Serving" in text
        assert "gini_on<gini_off" in text


def mdim_section(
    recall=1.0,
    ppb=1.4,
    *,
    ppb_p90=2,
    boxes=46,
):
    """A scenario section carrying one multi-dimensional box entry."""
    section = scenario_section()
    section["results"]["geo-box-serving"] = {
        "success_rate": 0.99,
        "queries": 4200,
        "box_recall": recall,
        "partitions_per_box": ppb,
        "mdim": {
            "dims": 2,
            "bits_per_dim": 26,
            "boxes": boxes,
            "box_success_rate": 1.0,
            "partitions_per_box_p90": ppb_p90,
        },
    }
    return section


class TestMdimGate:
    """The multi-dimensional gate: box recall must hold its floor -- an
    intra-snapshot check that runs even without a comparable baseline;
    partitions per box is compared against a baseline only."""

    def pair(self, tmp_path, cand_section):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": scenario_section()}))
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios_message": cand_section}))
        return ["--baseline", str(base), "--candidate", str(cand)]

    def test_healthy_mdim_passes(self, tmp_path, capsys):
        argv = self.pair(tmp_path, mdim_section())
        assert check_regression.main(argv) == 0
        assert "mdim gate" in capsys.readouterr().out

    def test_recall_below_floor_fails(self, tmp_path, capsys):
        argv = self.pair(tmp_path, mdim_section(recall=0.90))
        assert check_regression.main(argv) == 1
        assert "box recall" in capsys.readouterr().err

    def test_recall_inside_tolerance_passes(self, tmp_path):
        argv = self.pair(tmp_path, mdim_section(recall=0.96))
        assert check_regression.main(argv) == 0

    def test_many_partitions_per_box_pass_without_a_baseline(self, tmp_path, capsys):
        # No budget bounds the shower: a box over many partitions is
        # legitimate, and only a baseline says it grew.
        argv = self.pair(tmp_path, mdim_section(ppb=17.2))
        assert check_regression.main(argv) == 0
        assert "partitions_per_box" not in capsys.readouterr().err

    def test_partitions_p90_has_no_intra_snapshot_bound(self, tmp_path):
        argv = self.pair(tmp_path, mdim_section(ppb_p90=99))
        assert check_regression.main(argv) == 0

    def test_boxless_entries_are_not_gated(self, tmp_path):
        # A run whose phases issued no boxes pins nothing: recall is
        # vacuous without boxes behind it.
        argv = self.pair(tmp_path, mdim_section(recall=0.0, boxes=0))
        assert check_regression.main(argv) == 0

    def test_recall_drop_vs_baseline_fails(self, tmp_path, capsys):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": mdim_section()}))
        cand = write(
            tmp_path, "cand.json",
            snapshot(extra={"scenarios_message": mdim_section(recall=0.80)}),
        )
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 1
        # The cross-snapshot drop gate trips by metric name (the intra
        # floor fires too -- a real recall loss should fail loudly).
        assert "box_recall:" in capsys.readouterr().err

    def test_ppb_ratio_blowup_vs_baseline_fails(self, tmp_path, capsys):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": mdim_section(ppb=2.0)}))
        cand = write(
            tmp_path, "cand.json",
            snapshot(extra={"scenarios_message": mdim_section(ppb=8.0)}),
        )
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 1
        assert "partitions_per_box" in capsys.readouterr().err

    def test_mdim_rows_reach_the_step_summary(self, tmp_path):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": scenario_section()}))
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios_message": mdim_section()}))
        summary = tmp_path / "summary.md"
        assert check_regression.main([
            "--baseline", str(base), "--candidate", str(cand),
            "--summary", str(summary),
        ]) == 0
        text = summary.read_text()
        assert "### Mdim" in text
        assert "recall>=0.95" in text

    def test_recall_exactly_at_floor_passes(self, tmp_path):
        argv = self.pair(tmp_path, mdim_section(recall=0.95))
        assert check_regression.main(argv) == 0


class TestScaleGate:
    """The scale bounds gate: the bounded-heap invariant holds on the
    candidate alone."""

    def pair(self, tmp_path, base_section, cand_section):
        base = write(tmp_path, "base.json", snapshot(extra={"scale": base_section}))
        cand = write(tmp_path, "cand.json", snapshot(extra={"scale": cand_section}))
        return ["--baseline", str(base), "--candidate", str(cand)]

    def test_identical_scale_sections_pass(self, tmp_path, capsys):
        argv = self.pair(tmp_path, scale_section(), scale_section())
        assert check_regression.main(argv) == 0
        out = capsys.readouterr().out
        assert "scale gate" in out and "FAIL" not in out

    def test_pending_bound_breach_fails(self, tmp_path, capsys):
        argv = self.pair(
            tmp_path, scale_section(),
            scale_section(pending_peak=99999, pending_ok=False),
        )
        assert check_regression.main(argv) == 1
        assert "pending peak" in capsys.readouterr().err

    def test_scale_rows_reach_the_step_summary(self, tmp_path):
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scale": scale_section()}))
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scale": scale_section()}))
        summary = tmp_path / "summary.md"
        assert check_regression.main([
            "--baseline", str(base), "--candidate", str(cand),
            "--summary", str(summary),
        ]) == 0
        text = summary.read_text()
        assert "### Scale" in text
        assert "pending_peak<=bound" in text

    def test_candidate_without_scale_section_yields_no_scale_rows(self, tmp_path, capsys):
        # The quick CI candidate carries scenario sections but no scale
        # cells: the bounds gate pins nothing, the other gates still read.
        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": recovery_section()}))
        cand_payload = snapshot(extra={"scenarios_message": recovery_section()})
        del cand_payload["scale"]
        cand = write(tmp_path, "cand.json", cand_payload)
        assert check_regression.main(
            ["--baseline", str(base), "--candidate", str(cand)]
        ) == 0
        out = capsys.readouterr().out
        assert "scale gate" not in out and "recovery gate" in out

    def test_a_cell_the_code_no_longer_produces_fails(self, tmp_path, capsys):
        stale = scale_section()
        stale["cells"][0]["events"] += 1
        argv = self.pair(tmp_path, scale_section(), stale)
        assert check_regression.main(argv) == 1
        err = capsys.readouterr().err
        assert "scale/N=16384: events 15457 vs 15456" in err and "N=4096" not in err

    def test_host_readings_of_a_cell_are_not_compared(self, tmp_path, capsys):
        cand = scale_section()
        cand["cells"][0].update(wall_s=60.0, events_per_s=250.0, peak_rss_mb=999.0)
        argv = self.pair(tmp_path, scale_section(), cand)
        assert check_regression.main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("deterministic==baseline") == 2 and "FAIL" not in out

    def test_a_scale_run_of_other_knobs_is_not_compared(self, tmp_path, capsys):
        cand = scale_section()
        cand["duration_scale"] = 0.1
        cand["cells"][0]["events"] += 1
        argv = self.pair(tmp_path, scale_section(), cand)
        assert check_regression.main(argv) == 0
        assert "deterministic==baseline" not in capsys.readouterr().out

    def test_every_cell_is_audited(self, tmp_path, capsys):
        argv = self.pair(tmp_path, scale_section(), scale_section())
        assert check_regression.main(argv) == 0
        out = capsys.readouterr().out
        assert "scale/N=16384" in out and "scale/N=4096" in out


class TestZeroBaselineRatio:
    """Growth from a zero baseline is unbounded: the committed data-plane
    section has ``bytes_maintenance: 0`` entries, and one that starts
    emitting maintenance bytes must not pass for want of a divisor."""

    def pair(self, tmp_path, base_section, cand_section):
        base = write(tmp_path, "base.json", snapshot(extra={"scenarios": base_section}))
        cand = write(tmp_path, "cand.json", snapshot(extra={"scenarios": cand_section}))
        return ["--baseline", str(base), "--candidate", str(cand)]

    def test_growth_from_zero_fails(self, tmp_path, capsys):
        argv = self.pair(
            tmp_path,
            write_section(bytes_maintenance=0, section_backend="dataplane"),
            write_section(bytes_maintenance=5_000, section_backend="dataplane"),
        )
        assert check_regression.main(argv) == 1
        captured = capsys.readouterr()
        assert "scenarios/read-write-balanced bytes_maintenance" in captured.err
        assert "FAIL" in captured.out

    def test_recovery_bytes_from_zero_fail(self, tmp_path, capsys):
        argv = self.pair(
            tmp_path, recovery_section(warm_bytes=0), recovery_section(warm_bytes=1)
        )
        assert check_regression.main(argv) == 1
        assert "recovery_maint_bytes" in capsys.readouterr().err

    def test_zero_to_zero_passes(self, tmp_path):
        argv = self.pair(
            tmp_path,
            write_section(bytes_maintenance=0, bytes_update=0),
            write_section(bytes_maintenance=0, bytes_update=0),
        )
        assert check_regression.main(argv) == 0


#: Per direction: (baseline, a candidate past the default bound, a
#: candidate that moved the good way).
#: Each gated scenario metric and the direction it regresses in, stated
#: here rather than read from the table under test.
WORSE_DIRECTION = {
    "success_rate": "drop",
    "write_success_rate": "drop",
    "divergence_final": "rise",
    "bytes_update": "ratio",
    "bytes_maintenance": "ratio",
    "recovery_time_s": "ratio",
    "recovery_maint_bytes": "ratio",
    "lost_acked_writes": "rise",
    "tombstone_resurrections": "rise",
    "cache_hit_rate": "drop",
    "stale_read_rate": "rise",
    "serving_p99_s": "ratio",
    "box_recall": "drop",
    "partitions_per_box": "ratio",
}

DIRECTION_VALUES = {
    "drop": (0.9, 0.8, 1.0),
    "rise": (0.1, 0.2, 0.0),
    "ratio": (100.0, 200.0, 50.0),
}


class TestEveryScenarioMetric:
    """Every gated scenario metric is gated in the direction that is
    worse for it: moved past the default bound it fails by name, moved
    the other way it never does.  The probe entry carries the one metric
    and no inline baseline, so only the scenario gate reads it."""

    def test_the_table_gates_these_metrics_in_these_directions(self):
        assert dict(check_regression.SCENARIO_METRICS) == WORSE_DIRECTION

    def pair(self, tmp_path, metric, base_value, cand_value):
        def section(value):
            payload = scenario_section()
            payload["results"]["probe"] = {metric: value, "queries": 100}
            return payload

        base = write(tmp_path, "base.json",
                     snapshot(extra={"scenarios_message": section(base_value)}))
        cand = write(tmp_path, "cand.json",
                     snapshot(extra={"scenarios_message": section(cand_value)}))
        return ["--baseline", str(base), "--candidate", str(cand)]

    @pytest.mark.parametrize(
        "metric, direction", WORSE_DIRECTION.items(), ids=list(WORSE_DIRECTION)
    )
    def test_regression_past_the_bound_fails(self, tmp_path, capsys, metric, direction):
        base, worse, _ = DIRECTION_VALUES[direction]
        argv = self.pair(tmp_path, metric, base, worse)
        assert check_regression.main(argv) == 1
        err = capsys.readouterr().err
        assert f"scenarios_message/probe {metric}:" in err
        assert "mass-leave" not in err  # the untouched scenarios still pass

    @pytest.mark.parametrize(
        "metric, direction", WORSE_DIRECTION.items(), ids=list(WORSE_DIRECTION)
    )
    def test_improvement_never_fails(self, tmp_path, capsys, metric, direction):
        base, _, better = DIRECTION_VALUES[direction]
        argv = self.pair(tmp_path, metric, base, better)
        assert check_regression.main(argv) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.split()[-4:-2] == ["probe", metric]
        )
        assert row.startswith("  [ok  ]")


class TestSummaryFileErrors:
    def test_unwritable_summary_never_fails_the_gate(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", snapshot())
        cand = write(tmp_path, "cand.json", snapshot())
        summary = tmp_path / "no-such-dir" / "summary.md"
        assert check_regression.main([
            "--baseline", str(base), "--candidate", str(cand),
            "--summary", str(summary),
        ]) == 0
        assert "cannot write summary" in capsys.readouterr().err

    def test_unwritable_summary_keeps_a_failing_verdict(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", snapshot())
        cand = write(tmp_path, "cand.json", snapshot(
            extra={"scale": scale_section(pending_peak=99999, pending_ok=False)}
        ))
        summary = tmp_path / "no-such-dir" / "summary.md"
        assert check_regression.main([
            "--baseline", str(base), "--candidate", str(cand),
            "--summary", str(summary),
        ]) == 1
        err = capsys.readouterr().err
        assert "cannot write summary" in err and "pending peak" in err


def every_gate_payload():
    """A healthy snapshot with at least one row under every gate."""
    section = write_section()
    for other in (recovery_section(), serving_section(), mdim_section()):
        for name, entry in other["results"].items():
            section["results"].setdefault(name, entry)
    return snapshot(extra={"scenarios_message": section})


def _results(payload):
    return payload["scenarios_message"]["results"]


#: gate -> (console heading, summary heading, a doctoring of the candidate
#: that breaches this gate and no other).  The intra-snapshot gates are
#: tripped through the *inline* baseline, which no other gate reads.
ONE_GATE = {
    "scenarios": (
        "scenario gate [scenarios_message]", "### Scenarios — `scenarios_message`",
        lambda p: _results(p)["read-write-balanced"].update(bytes_maintenance=9e9),
    ),
    "recovery": (
        "recovery gate", "### Recovery",
        lambda p: _results(p)["restart-storm"]["recovery"]["cold"].update(
            recovery_maint_bytes=1
        ),
    ),
    "serving": (
        "serving gate", "### Serving",
        lambda p: _results(p)["zipf-serving"]["serving"]["off"].update(load_gini=0.01),
    ),
    "mdim": (
        "mdim gate", "### Mdim",
        # A scenario the baseline lacks, so the recall drop gate skips it.
        lambda p: _results(p).update({
            "correlated-hotspot-2d": dict(_results(p)["geo-box-serving"], box_recall=0.5)
        }),
    ),
    "scale bounds": (
        "scale gate (intra-snapshot", "### Scale bounds",
        lambda p: p["scale"]["cells"][1].update(pending_bound_ok=False),
    ),
}


#: A console heading starts at column 0 with the gate's lowercase name;
#: verdict rows are indented.
CONSOLE_HEADINGS = ("scenario", "recovery", "serving", "mdim", "scale")


def blocks(text, heading_prefixes):
    """``{heading line: [lines under it]}`` of a console or summary dump."""
    out, current = {}, None
    for line in text.splitlines():
        if line.startswith(heading_prefixes):
            current = out.setdefault(line, [])
        elif current is not None:
            current.append(line)
    return out


class TestEveryGateTakesOnePath:
    """A gate is declared once: its rows reach the console block, the
    summary table, the failure list and the exit code with no code of
    its own in ``main`` or ``build_step_summary``."""

    def run(self, tmp_path, capsys, candidate):
        base = write(tmp_path, "base.json", every_gate_payload())
        cand = write(tmp_path, "cand.json", candidate)
        summary = tmp_path / "summary.md"
        code = check_regression.main([
            "--baseline", str(base), "--candidate", str(cand),
            "--summary", str(summary),
        ])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, summary.read_text()

    def test_healthy_payload_has_rows_under_every_gate(self, tmp_path, capsys):
        code, out, err, text = self.run(tmp_path, capsys, every_gate_payload())
        assert code == 0 and "FAIL" not in out and "❌" not in text and not err
        console = blocks(out, CONSOLE_HEADINGS)
        tables = blocks(text, ("### ",))
        for heading, title, _ in ONE_GATE.values():
            assert any(h.startswith(heading) and rows for h, rows in console.items())
            assert any(h.startswith(title) and rows for h, rows in tables.items())

    @pytest.mark.parametrize("gate", ONE_GATE)
    def test_a_breach_reaches_console_summary_and_exit_code(self, tmp_path, capsys, gate):
        heading, title, doctor = ONE_GATE[gate]
        candidate = every_gate_payload()
        doctor(candidate)
        code, out, err, text = self.run(tmp_path, capsys, candidate)
        assert code == 1
        # The FAIL row sits under this gate's console heading, and only there.
        for block, rows in blocks(out, CONSOLE_HEADINGS).items():
            failed = any(row.startswith("  [FAIL]") for row in rows)
            assert failed == block.startswith(heading), block
        # Likewise in the summary: one table marks a row, the others none.
        tables = blocks(text, ("### ", "**Regressions"))
        listed = tables.pop("**Regressions beyond tolerance:**")
        for block, rows in tables.items():
            failed = any("❌ fail" in row for row in rows)
            assert failed == block.startswith(title), block
        # One failure list: what stderr says is what the summary lists.
        failures = [line.strip() for line in err.splitlines() if line.startswith("  ")]
        assert failures and [f"- {f}" for f in failures] == [l for l in listed if l]

    def test_a_metric_added_to_the_table_alone_is_gated(
        self, tmp_path, capsys, monkeypatch
    ):
        # The shape ROADMAP items 1-3 add gates in: one table entry.
        monkeypatch.setattr(
            check_regression, "SCENARIO_METRICS",
            check_regression.SCENARIO_METRICS + (("dead_refs_final", "rise"),),
        )
        base = every_gate_payload()
        _results(base)["mass-leave"]["dead_refs_final"] = 0.01
        write(tmp_path, "base.json", base)
        candidate = every_gate_payload()
        _results(candidate)["mass-leave"]["dead_refs_final"] = 0.40
        cand = write(tmp_path, "cand.json", candidate)
        summary = tmp_path / "summary.md"
        assert check_regression.main([
            "--baseline", str(tmp_path / "base.json"), "--candidate", str(cand),
            "--summary", str(summary),
        ]) == 1
        captured = capsys.readouterr()
        row = next(l for l in captured.out.splitlines() if "dead_refs_final" in l)
        assert row.startswith("  [FAIL] mass-leave")
        assert "scenarios_message/mass-leave dead_refs_final: 0.4" in captured.err
        assert "| mass-leave | dead_refs_final | 0.01 | 0.4 | ❌ fail |" in summary.read_text()
