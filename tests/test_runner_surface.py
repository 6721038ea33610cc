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
  bin-window rule of ``scenarios/report.py``), and **a box is one range
  query** (one tally record per query, retries only where the box is).
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
from repro.pgrid.keyspace import KEY_BITS

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


def audited(runner):
    """The box audit's accumulators (``_tally_range``)."""
    stats = runner._mdim_stats
    return (
        stats["box_successes"], stats["oracle_expected"], stats["oracle_found"],
        len(stats["partitions"]),
    )


class TestBoxIsOneRangeQuery:
    def centre_box_query(self, runner):
        """A box of four cells around the centre of the unit square, and
        an origin whose partition it misses.  Its z-span runs from the
        low quadrant's last code to the high quadrant's first, so the
        span crosses most partitions and the box meets only a few."""
        codec = runner.spec.codec
        half = codec.cells_per_dim // 2
        box = codec.box((half - 1, half - 1), (half, half))
        origin = next(
            node for _, node in sorted(runner.nodes.items())
            if not box.meets(*node.path.key_range(KEY_BITS))
        )
        return box, origin

    def test_box_that_loses_one_slice_retries_only_the_gap_meeting_the_box(self):
        runner = finished_runner("geo-box-serving")
        box, origin = self.centre_box_query(runner)
        lost = []
        deliver = origin._on_range_part

        def lossy(msg):  # the network loses the first slice sent home
            if not lost and msg.payload["slice"] is not None:
                lost.append(msg.payload["slice"])
                return
            deliver(msg)

        launched, uncovered = [], []
        route = origin._route_range

        def launches(payload):  # the origin's own launches, per attempt
            if payload["origin"] == origin.node_id and payload["hops"] == 0:
                if payload["attempt"] == 2 and not uncovered:
                    (pending,) = origin._ranges.values()
                    uncovered.extend(dataclasses.replace(pending, box=None).gaps())
                launched.append((payload["attempt"], payload["lo"], payload["hi"]))
            return route(payload)

        origin._on_range_part, origin._route_range = lossy, launches
        # The one lost slice above is the only loss: the default random
        # loss would otherwise decide whether a retry's pieces arrive.
        runner.transport.loss_rate = 0.0
        outcomes = []
        origin.on_range_done = lambda nid, qid, outcome: outcomes.append(outcome)
        origin.issue_range_query(*box.span, box)
        runner.simulator.run_until(runner.simulator.now + 120.0)
        (outcome,) = outcomes
        assert outcome.success and (outcome.attempts, outcome.timeouts) == (2, 1)
        assert set(outcome.found_keys) == set(filter(box.contains, runner._universe))
        (lost_lo, lost_hi), = lost
        (_, gap_lo, gap_hi), = [launch for launch in launched if launch[0] == 2]
        # The retry re-issues the one gap that meets the box -- the lost
        # slice -- and none of the gaps the box's pruned subtrees left.
        assert gap_lo <= lost_lo < lost_hi <= gap_hi and box.meets(gap_lo, gap_hi)
        assert len(uncovered) > 1
        assert [gap for gap in uncovered if box.meets(*gap)] == [(gap_lo, gap_hi)]

    def test_moot_box_is_tallied_nowhere(self):
        runner = finished_runner("geo-box-serving")
        before, moot_before = tallied(runner), runner._moot
        audit = audited(runner)
        boxes_only = QueryMix(
            point_weight=0.0, range_weight=1.0, box_spans=(0.1, 0.1)
        ).to_sampler(codec=runner.spec.codec)
        runner._run_one_query(
            runner._tally, runner.spec.phases[0], 0, boxes_only, random.Random(1)
        )
        ((idx, oracle),) = runner._rmeta.values()
        assert idx == 0 and oracle is not None
        for node in runner.nodes.values():
            node.abort_inflight()  # the origin's process dies mid-query
        assert not runner._rmeta
        assert runner._moot == moot_before + 1
        assert tallied(runner) == before
        assert audited(runner) == audit

    def test_range_left_pending_after_the_drain_is_an_error(self):
        spec = scenario("uniform-baseline", n_peers=24, seed=3, duration_scale=0.1)
        runner = MessageScenarioRunner(spec)
        runner._rmeta[-1] = (0, None)
        with pytest.raises(SimulationError, match="1 ranges .* still pending"):
            runner.run()
