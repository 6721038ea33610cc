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
* **Protocol-level tests** drive the message-level range shower and
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
    ScenarioSpec,
    run_scenario,
    runner_for,
    scenario,
)
from repro.scenarios.invariants import (
    check_partition_tiling,
    check_routing_complementarity,
)
from repro.simnet import protocol as P
from repro.simnet.engine import Simulator
from repro.simnet.node import KEY_BITS, NodeConfig, PGridNode
from repro.simnet.transport import ConstantLatency, Network, PerLinkLatency

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
        # delivery per message in flight (a probe arms no timer).
        assert sim.pending_peak <= 40 + net.inflight_peak
        assert sim.pending == 0  # and every one of them has run

    def test_lossy_scenario_keeps_the_heap_clean_end_to_end(self):
        spec = scenario("uniform-baseline", n_peers=32, seed=5, duration_scale=0.1)
        runner = MessageScenarioRunner(
            spec, net_config=MessageNetConfig(loss_rate=0.3)
        )
        report = runner.run()
        assert report.message_level["timeouts"] > 0  # storm premise
        # One timer event per operation, one delivery per message in
        # flight, and the runner's own ticks (phase start, sampler, query
        # arrivals, maintenance); a probe arms no timer.
        operations = report.totals["queries"] + report.message_level["moot_queries"]
        assert runner.simulator.pending_peak <= (
            operations + runner.transport.inflight_peak + 4
        )


def tap_sends(net):
    """Record ``(time, src, dst, kind, payload)`` of every message
    offered to ``net`` from now on (drops included)."""
    log, send = [], net.send

    def recording(src, dst, kind, payload, **kwargs):
        log.append((net.sim.now, src, dst, kind, payload))
        return send(src, dst, kind, payload, **kwargs)

    net.send = recording
    return log


def quarter(q):
    """Key of the quadrant boundary ``q / 4``."""
    return q << (KEY_BITS - 2)


class TestRangeProtocol:
    def test_range_showers_each_partition_once(self):
        sim, net, nodes = build_wire(QUADRANTS)
        sent = tap_sends(net)
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
        # The origin answers [0.1, 0.25) itself and sends one sub-range
        # into each of its two complementary subtrees; the half [0.5,
        # 0.9) is split once more where it lands.  Depth is the trie's
        # two levels, not the three partitions after the origin's.
        assert out.hops == 2
        queries = [(src, p["lo"], p["hi"]) for _, src, _, kind, p in sent
                   if kind == P.RANGE_QUERY]
        assert len(queries) == 3
        assert (0, quarter(1), quarter(2)) in queries
        assert (0, quarter(2), float_to_key(0.9)) in queries
        # Each of the three other partitions sends exactly one slice home.
        parts = sorted(src for _, src, _, kind, _ in sent if kind == P.RANGE_PART)
        assert parts == [1, 2, 3]
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

    def test_empty_range_is_covered_at_once(self):
        # [k, k) holds no key anywhere: covered before it starts, with
        # no message sent -- not a query that waits out every timeout.
        sim, net, nodes = build_wire(QUADRANTS)
        outcomes = []
        nodes[0].on_range_done = lambda nid, qid, out: outcomes.append(out)
        key = float_to_key(0.8)
        nodes[0].issue_range_query(key, key)
        sim.run_until(60.0)
        assert len(outcomes) == 1
        out = outcomes[0]
        assert out.success and (out.keys_found, out.attempts, out.latency) == (0, 1, 0.0)
        assert net.messages_sent == 0

    def test_slice_overtaking_an_earlier_one_is_no_retry(self):
        # Zero loss, but the link to quadrant 01 is slow: the slices of
        # quadrants 10 and 11 reach the origin long before 01's.  The
        # range completes when the last slice closes the coverage -- an
        # early slice that ends at ``hi`` proves nothing and retries
        # nothing.
        sim, net, nodes = build_wire(QUADRANTS)
        net.latency = PerLinkLatency(lo=0.01, hi=0.01, overrides={(0, 1): 1.0})
        sent = tap_sends(net)
        outcomes = []
        nodes[0].on_range_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_range_query(float_to_key(0.1), float_to_key(0.9))
        sim.run_until(60.0)
        assert len(outcomes) == 1
        out = outcomes[0]
        assert out.success and out.keys_found == 6
        assert (out.attempts, out.timeouts) == (1, 0)
        slices = [src for _, src, dst, kind, _ in sent
                  if kind == P.RANGE_PART and dst == 0]
        assert slices[-1] == 1  # premise: 01's slice left last, on the slow link
        assert out.latency == pytest.approx(2.0)  # the slow round trip
        from_origin = [p for _, src, _, kind, p in sent
                       if kind == P.RANGE_QUERY and src == 0]
        assert len(from_origin) == 2  # one per subtree, never a second round

    def test_lost_middle_slice_triggers_retry_not_silent_success(self):
        # Drop the first result slice arriving from quadrant 10: the
        # other slices still arrive, but the origin must notice the
        # coverage gap and retry instead of reporting a silently
        # incomplete success -- and re-issue only the gap.
        sim, net, nodes = build_wire(QUADRANTS)
        original = nodes[0]._on_range_part
        dropped = []

        def lossy(msg):
            if msg.src == 2 and not dropped:
                dropped.append(msg)
                return  # simulate the wire eating this one slice
            original(msg)

        nodes[0]._on_range_part = lossy
        struck = []
        nodes[0]._suspect_ref = struck.append
        outcomes = []
        nodes[0].on_range_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_range_query(float_to_key(0.1), float_to_key(0.9))
        sim.run_until(1.0)
        sent = tap_sends(net)  # from here on: the retry only
        sim.run_until(120.0)
        assert dropped, "test premise: a slice from node 2 was dropped"
        assert len(outcomes) == 1
        out = outcomes[0]
        assert out.success
        assert out.keys_found == 6  # nothing silently missing
        assert (out.attempts, out.timeouts) == (2, 1)  # one timeout, one retry
        retry = [(p["lo"], p["hi"], p["attempt"]) for _, _, _, kind, p in sent
                 if kind == P.RANGE_QUERY]
        assert retry and set(retry) == {(quarter(2), quarter(3), 2)}
        # A range timeout names no first hop: no reference is struck.
        assert struck == []

    def test_stale_timers_do_not_burn_the_retry_budget(self):
        # Slow links + early stuck replies: each attempt's timeout timer
        # must be superseded by the retry its dead-end reply triggered,
        # not fire against the newer attempt (phantom timeouts used to
        # exhaust the budget while an attempt was still in flight).
        config = NodeConfig(query_retries=2, query_timeout=5.0)
        sim, net, nodes = build_wire(QUADRANTS, latency=2.0, config=config)
        nodes[0].routing[0] = [2]  # the half [0.5, 0.9) lands on 10 ...
        nodes[2].routing.pop(1, None)  # ... which cannot pass 11 its part
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
        nodes[0].routing[0] = [2]
        saved = nodes[2].routing.pop(1)  # sever, then heal mid-flight
        sim.schedule(5.0, lambda: nodes[2].routing.__setitem__(1, saved))
        outcomes = []
        nodes[0].on_range_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_range_query(float_to_key(0.1), float_to_key(0.9))
        sim.run_until(300.0)
        assert len(outcomes) == 1
        assert outcomes[0].success
        assert outcomes[0].keys_found == 6
        assert outcomes[0].attempts >= 2

    def test_local_dead_end_ends_the_launch(self):
        # The origin has no reference at level 0, so its launch dead-ends
        # on the first sub-range, and the report retries -- and at last
        # fails -- the op inside that very launch.  The rest of each
        # launch is stale: the sub-range for quadrant 01 must not leave
        # once per superseded attempt.
        sim, net, nodes = build_wire(QUADRANTS)
        nodes[0].routing.pop(0)
        sent = tap_sends(net)
        outcomes = []
        nodes[0].on_range_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_range_query(float_to_key(0.1), float_to_key(0.9))
        sim.run_until(60.0)
        assert len(outcomes) == 1
        out = outcomes[0]
        assert not out.success
        assert (out.attempts, out.timeouts, out.keys_found) == (3, 0, 1)
        assert sent == []

    def test_local_dead_end_ends_a_gap_retry(self):
        # The wire eats the slices of quadrants 01 and 11, so the retry
        # re-issues two gaps; by then the origin has lost its reference
        # into 01, and the first gap dead-ends at once.  The second gap
        # belongs to a superseded attempt and must stay home.
        sim, net, nodes = build_wire(QUADRANTS)
        original = nodes[0]._on_range_part
        nodes[0]._on_range_part = lambda msg: msg.src in (1, 3) or original(msg)
        outcomes = []
        nodes[0].on_range_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_range_query(float_to_key(0.1), float_to_key(0.9))
        sim.run_until(1.0)
        nodes[0].routing.pop(1)
        sent = tap_sends(net)
        sim.run_until(60.0)
        assert len(outcomes) == 1
        out = outcomes[0]
        assert not out.success
        assert (out.attempts, out.timeouts, out.keys_found) == (3, 1, 3)
        assert sent == []

    def test_dead_end_exhausts_retries_and_fails(self):
        sim, net, nodes = build_wire(QUADRANTS)
        # Sever the way from quadrant 10 into 11: the half [0.5, 0.9)
        # lands on 10, which answers its own slice and has nowhere to
        # send the rest.
        nodes[0].routing[0] = [2]
        nodes[2].routing.pop(1, None)
        outcomes = []
        nodes[0].on_range_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_range_query(float_to_key(0.1), float_to_key(0.9))
        sim.run_until(120.0)
        assert len(outcomes) == 1
        out = outcomes[0]
        assert not out.success
        assert out.attempts == 3  # 1 + query_retries
        # The slices that did arrive were still collected: all but 0.8.
        assert out.keys_found == 5


class TestPointQueryOutcomes:
    def test_offline_responsible_fails_fast_with_repair(self):
        # The refused connects are evidence: the dead
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

