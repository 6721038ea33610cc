"""Message-level scenario backend: determinism, protocol and reporting.

Four layers of protection for ``MessageScenarioRunner``:

* **Golden trace**: a small scenario's full report is pinned byte-for-
  byte (``tests/data/scenario_message_golden.json``).  Regenerate
  deliberately with::

      PYTHONPATH=src python -c "
      from repro.scenarios import run_scenario, scenario
      spec = scenario('uniform-baseline', n_peers=24, seed=11, duration_scale=0.2)
      print(run_scenario(spec, backend='message').to_json())" \
          > tests/data/scenario_message_golden.json

* **Full-population digests**: every library scenario at N=1024 is
  pinned as a SHA-256 of its report JSON
  (``tests/data/scenario_message_digests.json``; see
  ``tests/data/regen_message_digests.py``) -- the acceptance-level
  "the whole library runs deterministically at N>=1024" guarantee.
  The same file's ``long`` tier pins the library at N=48 with unscaled
  durations, the only scenario pin that runs past 225 simulated seconds.
* **Protocol-level tests** drive the message-level range traversal and
  timeout/retry paths on hand-built overlays.
* **Structural invariants**: :meth:`MessageScenarioRunner.as_network`
  exposes the end state to the same checks as the data-plane backend.
"""

import hashlib
import json
import pathlib

import pytest

from repro.exceptions import DomainError, SimulationError
from repro.pgrid.bits import Path
from repro.pgrid.keyspace import float_to_key
from repro.scenarios import (
    BACKENDS,
    MessageNetConfig,
    MessageScenarioRunner,
    Phase,
    RouteRepairPolicy,
    ScenarioSpec,
    run_scenario,
    runner_for,
    scenario,
)
from repro.scenarios.invariants import (
    check_partition_tiling,
    check_routing_complementarity,
)
from repro.simnet.engine import Simulator
from repro.simnet.node import NodeConfig, PGridNode
from repro.simnet.transport import ConstantLatency, Network

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_PATH = DATA / "scenario_message_golden.json"
DIGESTS_PATH = DATA / "scenario_message_digests.json"

#: The pinned configuration of the message-backend golden trace.
GOLDEN_SPEC = dict(n_peers=24, seed=11, duration_scale=0.2)


def run_json(name, **kwargs):
    return run_scenario(scenario(name, **kwargs), backend="message").to_json()


class TestDeterminism:
    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("uniform-baseline", dict(n_peers=24, seed=11, duration_scale=0.1)),
            ("paper-sec51-churn", dict(n_peers=32, seed=3, duration_scale=0.1)),
            ("mass-join", dict(n_peers=32, seed=3, duration_scale=0.1)),
        ],
    )
    def test_same_seed_reproduces_byte_identical_reports(self, name, kwargs):
        assert run_json(name, **kwargs) == run_json(name, **kwargs)

    def test_different_seeds_differ(self):
        a = run_json("uniform-baseline", n_peers=24, seed=1, duration_scale=0.1)
        b = run_json("uniform-baseline", n_peers=24, seed=2, duration_scale=0.1)
        assert a != b

    def test_backends_differ_but_share_the_spec(self):
        spec = scenario("uniform-baseline", n_peers=24, seed=11, duration_scale=0.1)
        wire = run_scenario(spec, backend="message")
        fast = run_scenario(spec, backend="dataplane")
        assert wire.scenario == fast.scenario
        assert wire.n_peers_start == fast.n_peers_start
        assert wire.message_level is not None
        assert fast.message_level is None

    def test_golden_trace_matches_fixture(self):
        produced = run_json("uniform-baseline", **GOLDEN_SPEC)
        pinned = GOLDEN_PATH.read_text().strip()
        if produced != pinned:
            got, want = json.loads(produced), json.loads(pinned)
            for key in want:
                assert got[key] == want[key], f"golden mismatch in section {key!r}"
        assert produced == pinned

    @staticmethod
    def assert_tier_unchanged(tier: dict) -> dict:
        """Recompute one tier of the digest file; returns its parameters."""
        params = {k: tier[k] for k in ("n_peers", "seed", "duration_scale")}
        for name, want in sorted(tier["digests"].items()):
            produced = hashlib.sha256(run_json(name, **params).encode()).hexdigest()
            assert produced == want, f"message-backend digest drift in {name!r}"
        return params

    def test_all_library_scenarios_deterministic_at_full_population(self):
        """Acceptance: every library scenario runs deterministically
        under MessageScenarioRunner at N=1024 (digest-pinned)."""
        params = self.assert_tier_unchanged(json.loads(DIGESTS_PATH.read_text()))
        assert params["n_peers"] >= 1024

    def test_all_library_scenarios_deterministic_over_a_long_horizon(self):
        """The ``long`` tier: every library scenario at unscaled durations
        (600-1,200 simulated seconds), so the probe back-off ladder, cache
        expiry and retry exhaustion run under a pin too."""
        params = self.assert_tier_unchanged(json.loads(DIGESTS_PATH.read_text())["long"])
        assert params["duration_scale"] == 1.0


class TestBackendSelector:
    def test_registry_names(self):
        assert set(BACKENDS) == {"dataplane", "message"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(DomainError):
            runner_for("carrier-pigeon")

    def test_runner_for_returns_classes(self):
        assert runner_for("message") is MessageScenarioRunner

    def test_run_scenario_forwards_net_config(self):
        spec = scenario("uniform-baseline", n_peers=24, seed=11, duration_scale=0.1)
        lossless = run_scenario(
            spec,
            backend="message",
            net_config=MessageNetConfig(latency=ConstantLatency(0.01), loss_rate=0.0),
        )
        assert lossless.message_level["drops"]["loss"] == 0
        assert lossless.message_level["config"]["latency_model"] == "ConstantLatency"
        assert lossless.totals["success_rate"] == 1.0


class TestMessageLevelReport:
    @pytest.fixture(scope="class")
    def report(self):
        spec = scenario("paper-sec51-churn", n_peers=48, seed=7, duration_scale=0.15)
        return run_scenario(spec, backend="message")

    def test_wire_metrics_present(self, report):
        ml = report.message_level
        assert ml["messages_sent"] > 0
        assert ml["latency_s"]["count"] > 0
        assert 0 < ml["latency_s"]["p50"] <= ml["latency_s"]["p99"] <= ml["latency_s"]["max"]
        assert ml["inflight_peak"] >= 1
        assert ml["links"]["used"] > 0
        assert ml["links"]["max_bytes"] >= ml["links"]["mean_bytes"]
        assert set(ml["drops"]) == {"offline", "loss", "partition"}
        assert (
            ml["drops"]["offline"] + ml["drops"]["loss"] + ml["drops"]["partition"]
            == ml["messages_dropped"]
        )

    def test_totals_come_from_the_wire(self, report):
        # Bandwidth totals are transport-accounted, not the nominal model.
        assert report.totals["messages"] == report.message_level["messages_sent"]
        assert report.totals["bytes_total"] > 0
        assert report.totals["success_rate"] > 0.5  # churn, but retries recover

    def test_series_carries_wire_bandwidth(self, report):
        assert any(row["query_Bps"] > 0 for row in report.series)

    def test_churn_and_timeouts_observed(self, report):
        assert report.totals["churn_transitions"] > 0
        ml = report.message_level
        assert ml["timeouts"] + ml["retries"] + ml["messages_dropped"] > 0


class TestExactlyOnceTally:
    def test_operation_left_pending_after_the_drain_is_an_error(self):
        # The drain outlasts every retry window, so each issued op has
        # reached its observer; one that has not must fail the run, not
        # be counted quietly as a failed query.
        spec = scenario("uniform-baseline", n_peers=24, seed=3, duration_scale=0.1)
        runner = MessageScenarioRunner(spec)
        runner._wmeta[-1] = (0, "insert", 1)  # a write no node holds
        with pytest.raises(SimulationError, match="still pending after the drain"):
            runner.run()


class TestMembershipAndStructure:
    def test_mass_join_grows_population_over_the_wire(self):
        spec = scenario("mass-join", n_peers=32, seed=3, duration_scale=0.1)
        runner = MessageScenarioRunner(spec)
        report = runner.run()
        assert report.totals["joins"] > 0
        assert report.n_peers_end == 32 + report.totals["joins"]
        # Newcomers really joined the transport.
        assert len(runner.nodes) == report.n_peers_end

    def test_mass_leave_degrades_but_keeps_coverage(self):
        spec = scenario("mass-leave", n_peers=32, seed=3, duration_scale=0.1)
        report = run_scenario(spec, backend="message")
        assert report.totals["leaves"] > 0
        assert report.totals["final_coverage"] == 1.0

    def test_as_network_passes_structural_invariants(self):
        # No maintenance -> no exchanges -> the ideal structure must
        # survive a query/churn-only scenario untouched.
        spec = ScenarioSpec(
            name="invariant-probe",
            phases=(Phase(name="steady", duration_s=120.0, query_rate=2.0),),
            n_peers=32,
            seed=13,
            report_bin_s=30.0,
        )
        runner = MessageScenarioRunner(spec)
        runner.run()
        net = runner.as_network()
        check_partition_tiling(net)
        check_routing_complementarity(net)
        assert net.is_consistent()


def build_wire(paths_and_keys, *, latency=0.01, loss=0.0, config=None):
    """Hand-built message-level overlay: one node per path string."""
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(latency), loss_rate=loss, rng=1)
    config = config or NodeConfig(query_retries=2, query_timeout=5.0)
    nodes = []
    for node_id, (path, keys) in enumerate(paths_and_keys):
        node = PGridNode(node_id, sim, net, config=config, rng=node_id + 1)
        node.path = Path.from_string(path)
        node.keys = set(keys)
        node.joined = True
        nodes.append(node)
    # Full complementary routing for the standard 2-level quadrant split.
    for node in nodes:
        for other in nodes:
            if other is node:
                continue
            cpl = node.path.common_prefix_length(other.path)
            if cpl < node.path.length:
                node.add_route(cpl, other.node_id)
    return sim, net, nodes


QUADRANTS = [
    ("00", [float_to_key(0.05), float_to_key(0.2)]),
    ("01", [float_to_key(0.3), float_to_key(0.45)]),
    ("10", [float_to_key(0.55), float_to_key(0.7)]),
    ("11", [float_to_key(0.8), float_to_key(0.95)]),
]


class TestLazyTimerHeapHygiene:
    """A timeout storm must not pile placeholders on the heap: the
    lazy-timer scheme re-arms one event per pending op instead of
    scheduling one per attempt, so the heap stays within what its
    owners account for even when the timers actually fire."""

    def test_wire_level_timeout_storm_never_cancels(self):
        # 60% loss: most attempts die on the wire, so their deadline
        # timers genuinely expire instead of being superseded.
        sim, net, nodes = build_wire(QUADRANTS, loss=0.6)
        outcomes = []
        nodes[0].on_query_done = lambda nid, qid, out: outcomes.append(out)
        for i in range(40):
            nodes[0].issue_query(float_to_key(0.55 + i * 0.01))
        sim.run_until(400.0)
        assert len(outcomes) == 40  # every query resolved, pass or fail
        assert sum(out.timeouts for out in outcomes) > 10  # a real storm
        # Every heap entry had an owner: one timer event per query, one
        # delivery per message in flight, one timeout per probe sent.
        probes = sum(node.liveness.probes for node in nodes)
        assert sim.pending_peak <= 40 + net.inflight_peak + probes
        assert sim.pending == 0  # and every one of them has run

    def test_lossy_scenario_keeps_the_heap_clean_end_to_end(self):
        spec = scenario("uniform-baseline", n_peers=32, seed=5, duration_scale=0.1)
        runner = MessageScenarioRunner(
            spec, net_config=MessageNetConfig(loss_rate=0.3)
        )
        report = runner.run()
        assert report.message_level["timeouts"] > 0  # storm premise
        # One timer event per operation, one timeout per probe, one
        # delivery per message in flight, and the runner's own ticks
        # (phase start, sampler, query arrivals, maintenance).
        operations = report.totals["queries"] + report.message_level["moot_queries"]
        probes = report.message_level["repair"]["probes"]
        assert runner.simulator.pending_peak <= (
            operations + probes + runner.transport.inflight_peak + 4
        )


class TestRangeProtocol:
    def test_range_traverses_partitions_in_key_order(self):
        sim, net, nodes = build_wire(QUADRANTS)
        outcomes = []
        nodes[0].on_range_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_range_query(float_to_key(0.1), float_to_key(0.9))
        sim.run_until(60.0)
        assert len(outcomes) == 1
        out = outcomes[0]
        assert out.success
        # Keys 0.2 .. 0.8 fall inside [0.1, 0.9): six of the eight.
        assert out.keys_found == 6
        assert out.attempts == 1
        # Three partition boundaries crossed after the origin's own slice.
        assert out.hops == 3
        assert out.messages >= out.hops

    def test_range_confined_to_origin_partition_completes_locally(self):
        sim, net, nodes = build_wire(QUADRANTS)
        outcomes = []
        nodes[0].on_range_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_range_query(float_to_key(0.01), float_to_key(0.24))
        sent_before = net.messages_sent
        sim.run_until(60.0)
        assert outcomes and outcomes[0].success
        assert outcomes[0].keys_found == 2
        assert net.messages_sent == sent_before  # never left the node

    def test_lost_middle_slice_triggers_retry_not_silent_success(self):
        # Drop the first result slice arriving from quadrant 10: the
        # final done-flagged part still arrives, but the origin must
        # notice the coverage gap and retry instead of reporting a
        # silently incomplete success.
        sim, net, nodes = build_wire(QUADRANTS)
        original = nodes[0]._on_range_part
        dropped = []

        def lossy(msg):
            if msg.src == 2 and not dropped:
                dropped.append(msg)
                return  # simulate the wire eating this one slice
            original(msg)

        nodes[0]._on_range_part = lossy
        outcomes = []
        nodes[0].on_range_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_range_query(float_to_key(0.1), float_to_key(0.9))
        sim.run_until(120.0)
        assert dropped, "test premise: a slice from node 2 was dropped"
        assert len(outcomes) == 1
        out = outcomes[0]
        assert out.success
        assert out.keys_found == 6  # nothing silently missing
        assert out.attempts == 2  # the gap forced exactly one retry

    def test_stale_timers_do_not_burn_the_retry_budget(self):
        # Slow links + early stuck replies: each attempt's timeout timer
        # must be superseded by the retry its dead-end reply triggered,
        # not fire against the newer attempt (phantom timeouts used to
        # exhaust the budget while an attempt was still in flight).
        config = NodeConfig(query_retries=2, query_timeout=5.0)
        sim, net, nodes = build_wire(QUADRANTS, latency=2.0, config=config)
        nodes[1].routing.pop(0, None)  # dead end after quadrant 01
        outcomes = []
        nodes[0].on_range_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_range_query(float_to_key(0.1), float_to_key(0.9))
        sim.run_until(300.0)
        assert len(outcomes) == 1
        out = outcomes[0]
        assert not out.success
        assert out.attempts == 3  # full budget spent on real attempts
        assert out.timeouts == 0  # every retry came from a stuck reply

    def test_transient_dead_end_recovers_on_retry(self):
        config = NodeConfig(query_retries=2, query_timeout=5.0)
        sim, net, nodes = build_wire(QUADRANTS, latency=2.0, config=config)
        saved = nodes[1].routing.pop(0)  # sever, then heal mid-flight
        sim.schedule(5.0, lambda: nodes[1].routing.__setitem__(0, saved))
        outcomes = []
        nodes[0].on_range_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_range_query(float_to_key(0.1), float_to_key(0.9))
        sim.run_until(300.0)
        assert len(outcomes) == 1
        assert outcomes[0].success
        assert outcomes[0].keys_found == 6
        assert outcomes[0].attempts >= 2

    def test_dead_end_exhausts_retries_and_fails(self):
        sim, net, nodes = build_wire(QUADRANTS)
        # Sever the forward path out of quadrant 01: the traversal from
        # 00 reaches 01 and then has nowhere to send the remainder.
        nodes[1].routing.pop(0, None)
        outcomes = []
        nodes[0].on_range_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_range_query(float_to_key(0.1), float_to_key(0.9))
        sim.run_until(120.0)
        assert len(outcomes) == 1
        out = outcomes[0]
        assert not out.success
        assert out.attempts == 3  # 1 + query_retries
        # The partial slices that did arrive were still collected.
        assert out.keys_found >= 2


class TestPointQueryOutcomes:
    def test_offline_responsible_times_out_then_fails_without_repair(self):
        # Blind routing (the PR-3 baseline, repair disabled): nobody
        # observes the refused connects, so every attempt burns a full
        # timeout before failing.
        config = NodeConfig(
            query_retries=2, query_timeout=5.0,
            repair=RouteRepairPolicy(enabled=False),
        )
        sim, net, nodes = build_wire(QUADRANTS, config=config)
        nodes[3].online = False  # the only holder of quadrant 11
        outcomes = []
        nodes[0].on_query_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_query(float_to_key(0.85))
        sim.run_until(120.0)
        assert len(outcomes) == 1
        out = outcomes[0]
        assert not out.success
        assert out.timeouts >= 1
        assert out.attempts == 3

    def test_offline_responsible_fails_fast_with_repair(self):
        # With repair on, the refused connects are evidence: the dead
        # quadrant's references are evicted and the attempts dead-end
        # immediately instead of waiting out timeouts.
        sim, net, nodes = build_wire(QUADRANTS)
        nodes[3].online = False
        outcomes = []
        nodes[0].on_query_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_query(float_to_key(0.85))
        sim.run_until(120.0)
        assert len(outcomes) == 1
        out = outcomes[0]
        assert not out.success
        assert out.timeouts == 0  # every failure was locally observed
        assert out.latency < 1.0  # no 5s timeout windows burned
        assert nodes[0].liveness.evictions >= 1

    def test_local_hit_still_reports_via_callback(self):
        sim, net, nodes = build_wire(QUADRANTS)
        outcomes = []
        nodes[0].on_query_done = lambda nid, qid, out: outcomes.append(out)
        qid = nodes[0].issue_query(float_to_key(0.05))
        assert not outcomes  # resolution is an event, never re-entrant
        sim.run_until(10.0)
        assert [out for out in outcomes if out.success]
        assert outcomes[0].hops == 0
        assert qid > 0

    def test_origin_going_offline_marks_query_moot(self):
        # Repair off keeps the attempts on the slow timeout path, so the
        # origin is offline by the time its timer fires -- the moot case.
        config = NodeConfig(
            query_retries=2, query_timeout=5.0,
            repair=RouteRepairPolicy(enabled=False),
        )
        sim, net, nodes = build_wire(QUADRANTS, config=config)
        nodes[3].online = False
        outcomes = []
        nodes[0].on_query_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_query(float_to_key(0.85))
        sim.schedule(2.0, lambda: nodes[0].set_online(False))
        sim.run_until(120.0)
        assert len(outcomes) == 1
        assert outcomes[0].moot
        assert not outcomes[0].success
        # Moot queries stay out of the experiment-level statistics.
        assert nodes[0].query_results == []
