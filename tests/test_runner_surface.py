"""The scenario runners' shape, pinned.

* **Hook surface**: the exact set of ``ScenarioRunnerBase`` methods a
  backend overrides.  Every hook is a decision the two backends make
  separately, so a new one should arrive as a reviewed one-line diff to
  this file (in the manner of ``test_config_surface.py``), not unnoticed.
* **Tracer names**: ``benchmarks/layered/tracing.py`` wraps runner
  methods by ``owner.__dict__[attr]``; moving one of them to another
  class must fail here with a sentence, not with a ``KeyError`` in the
  traced benchmark pass.
* **A runner runs once**, **bytes go to one ledger** (per-phase and
  per-bin figures add up to the totals on both backends, by the
  bin-window rule of ``scenarios/report.py``), and **a range query is a
  box of one range** (one fold, one tally record per query).
"""

import dataclasses
import random

import pytest

from repro.exceptions import SimulationError
from repro.scenarios import (
    BACKENDS,
    SCENARIOS,
    MessageScenarioRunner,
    QueryMix,
    ScenarioRunner,
    ScenarioRunnerBase,
    base as scenario_base,
    scenario,
)
from repro.scenarios.message_runner import _PendingBox
from repro.simnet.node import QueryOutcome

HOOKS = {
    "_derive_extra_streams", "_setup", "_population", "_depart",
    "_churn_toggle", "_join", "_run_maintenance", "_set_partitions",
    "_heal_partitions", "_run_one_query", "_run_one_write",
    "_checkpoint_all", "_restart_shutdown", "_restart_return",
    "_durable_key_view", "_sample_state", "_finish", "_load_by_peer",
    "_message_section", "_serving_counters", "_serving_latency",
}
#: Hooks whose base default is all the data plane needs.
MESSAGE_ONLY = {
    "_derive_extra_streams", "_finish", "_message_section", "_serving_latency",
    "_sample_state",
}


def overridden(cls):
    return {
        name
        for name, value in ScenarioRunnerBase.__dict__.items()
        if callable(value)
        and not (name.startswith("__") and name.endswith("__"))
        and name in cls.__dict__
    }


class TestHookSurface:
    def test_backends_override_exactly_the_pinned_hooks(self):
        assert overridden(MessageScenarioRunner) == HOOKS
        assert overridden(ScenarioRunner) == HOOKS - MESSAGE_ONLY

    def test_names_the_layered_tracer_patches_live_where_it_looks(self):
        for attr in (
            "_setup", "_run_one_query", "_run_one_write", "_run_maintenance",
            "_query_done", "_range_done", "_write_done", "_sample_state",
            "_churn_toggle",
        ):
            assert attr in MessageScenarioRunner.__dict__, (
                f"benchmarks/layered/tracing.py wraps MessageScenarioRunner.{attr}"
            )
        assert "_assemble" in ScenarioRunnerBase.__dict__, (
            "benchmarks/layered/tracing.py wraps ScenarioRunnerBase._assemble"
        )
        assert "workload_keys" in vars(scenario_base), (
            "benchmarks/layered/tracing.py patches workload_keys in scenarios.base"
        )


class TestRunsOnce:
    # A second run() used to return a *different* report: latencies,
    # audits and the state store set in __init__ leaked into it.
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize(
        "name",
        ["uniform-baseline", "geo-box-serving", "zipf-serving", "restart-storm"],
    )
    def test_second_run_raises(self, name, backend):
        spec = scenario(name, n_peers=48, seed=5, duration_scale=0.1)
        runner = BACKENDS[backend](spec)
        runner.run()
        with pytest.raises(SimulationError, match="runs once"):
            runner.run()


def bin_window_bytes(report, column):
    """Per-phase bytes by the documented rule, formulated independently
    of the implementation: a bin belongs to the phase that holds its
    last instant (so a straddling bin counts toward the later phase),
    and bins past the end belong to the last phase."""
    sums = [0.0] * len(report.phases)
    for row in report.series:
        last_instant = row["minute"] * 60.0 + report.bin_s * (1 - 1e-6)
        owner = len(report.phases) - 1
        for i, phase in enumerate(report.phases):
            if phase["start_min"] * 60.0 <= last_instant < phase["end_min"] * 60.0:
                owner = i
        sums[owner] += row.get(column, 0.0) * report.bin_s
    return [round(total) for total in sums]


def assert_ledger_adds_up(report):
    totals = report.totals
    assert sum(p["query_bytes"] for p in report.phases) == totals["bytes_query"]
    assert sum(p.get("update_bytes", 0) for p in report.phases) == totals.get(
        "bytes_update", 0
    )
    for column, total in (
        ("query_Bps", totals["bytes_query"]),
        ("maint_Bps", totals["bytes_maintenance"]),
        ("update_Bps", totals.get("bytes_update", 0)),
    ):
        assert round(
            sum(row.get(column, 0.0) for row in report.series) * report.bin_s
        ) == total
    assert [p["query_bytes"] for p in report.phases] == bin_window_bytes(
        report, "query_Bps"
    )
    assert [p.get("update_bytes", 0) for p in report.phases] == bin_window_bytes(
        report, "update_Bps"
    )


class TestOneLedger:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_phase_and_bin_bytes_add_up_to_the_totals(self, name, backend):
        spec = scenario(name, n_peers=64, seed=5, duration_scale=0.1)
        assert_ledger_adds_up(BACKENDS[backend](spec).run())

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_unaligned_phases_follow_the_bin_window_rule(self, backend):
        spec = scenario("read-write-balanced", n_peers=64, seed=5, duration_scale=0.2)
        spec = dataclasses.replace(spec, report_bin_s=spec.report_bin_s * 0.7)
        report = BACKENDS[backend](spec).run()
        assert any(
            (phase["end_min"] * 60.0 / report.bin_s) % 1 > 0.01
            for phase in report.phases[:-1]
        ), "the custom spec is supposed to have phases that straddle bins"
        assert_ledger_adds_up(report)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_whole_bin_phases_keep_their_bins_when_floats_floor_short(self, backend):
        # At duration_scale=0.37 a phase boundary is 6 bins exactly, yet
        # 133.2 // 22.2 == 5.0: flooring handed a whole bin of the
        # earlier phase to the later one (on the wire, before the two
        # backends shared the rule).
        spec = scenario("read-write-balanced", n_peers=32, seed=5, duration_scale=0.37)
        boundary = spec.boundaries()[0][1]
        assert boundary // spec.report_bin_s < round(boundary / spec.report_bin_s)
        assert_ledger_adds_up(BACKENDS[backend](spec).run())


def finished_runner(name):
    """A message runner after its run: nodes, tally and simulator live."""
    spec = scenario(name, n_peers=24, seed=3, duration_scale=0.1)
    runner = MessageScenarioRunner(spec)
    runner.run()
    return runner


def tallied(runner):
    counters = runner._tally.phase_counters[0]
    return (
        counters["queries"], counters["ranges"], counters["successes"],
        runner._tally.range_incomplete,
    )


class TestRangeIsABoxOfOne:
    def test_scalar_range_whose_origin_goes_away_is_moot_and_tallied_nowhere(self):
        runner = finished_runner("uniform-baseline")
        before, moot_before = tallied(runner), runner._moot
        ranges_only = QueryMix(point_weight=0.0, range_weight=1.0).to_sampler()
        runner._run_one_query(
            runner._tally, runner.spec.phases[0], 0, ranges_only, random.Random(1)
        )
        (box,) = runner._box_of.values()
        assert box.remaining == 1 and box.oracle is None
        for node in runner.nodes.values():
            node.abort_inflight()  # the origin's process dies mid-query
        assert not runner._box_of
        assert runner._moot == moot_before + 1
        assert tallied(runner) == before

    def test_box_with_one_failed_sub_range_counts_once(self):
        runner = finished_runner("geo-box-serving")
        queries, ranges, successes, incomplete = tallied(runner)
        audit = dict(runner._mdim_stats)
        box = _PendingBox(idx=0, issued_at=0.0, remaining=3, oracle={1, 2, 3})
        runner._box_of.update({-1: box, -2: box, -3: box})
        ok = QueryOutcome(
            issued_at=0.0, latency=1.0, hops=0, success=True, attempts=1,
            timeouts=0, messages=2, found_keys=(1,),
        )
        failed = dataclasses.replace(ok, success=False, found_keys=())
        for qid, outcome in ((-1, ok), (-2, failed), (-3, ok)):
            assert tallied(runner) == (queries, ranges, successes, incomplete)
            runner._range_done(0, qid, outcome)
        assert tallied(runner) == (queries + 1, ranges + 1, successes, incomplete + 1)
        assert runner._mdim_stats["box_successes"] == audit["box_successes"]
        assert runner._mdim_stats["oracle_expected"] == audit["oracle_expected"] + 3
        assert runner._mdim_stats["oracle_found"] == audit["oracle_found"] + 1
        assert not runner._box_of

    def test_range_left_pending_after_the_drain_is_an_error(self):
        spec = scenario("uniform-baseline", n_peers=24, seed=3, duration_scale=0.1)
        runner = MessageScenarioRunner(spec)
        runner._box_of[-1] = _PendingBox(idx=0, issued_at=0.0, remaining=1, oracle=None)
        with pytest.raises(SimulationError, match="1 ranges .* still pending"):
            runner.run()
