"""Persistence & recovery: snapshots, the crash model, warm rejoin.

Four layers, mirroring the subsystem's span (see
:mod:`repro.pgrid.state`):

* **Snapshot layer**: versioned dict round-trips on both backends
  (data-plane ``PGridPeer`` via ``PGridNetwork.checkpoint_peer`` /
  ``restore_peer``; message-backend ``PGridNode.snapshot_state`` /
  ``restore_state``), schema/identity guards, ``StateStore``.
* **Clock semantics**: tombstone TTLs keep aging across downtime;
  re-gossip does not refresh a certificate's birth stamp; restored
  routing refs come back *unconfirmed* so the liveness machine probes
  them before trusting them.
* **Restart hygiene**: ``abort_inflight`` + ``set_online(False)`` with
  in-flight queries/writes/ranges must not leak pending timers or let
  stale attempts burn retry budgets after a warm rejoin.
* **Scenario properties**: across clean shutdown + restore no acked
  write is lost and no tombstone resurrects (both backends); the crash
  and cold-rejoin models quantify both through the report's
  ``recovery`` section; restart scenarios stay deterministic; warm
  rejoin beats cold on recovery time and maintenance bytes.
"""

import random

import pytest

from repro.exceptions import DomainError, PartitionError, SimulationError
from repro.pgrid.bits import Path
from repro.pgrid.keyspace import float_to_key
from repro.pgrid.liveness import CONFIRM_INTERVAL_MAX_S, CONFIRM_INTERVAL_S
from repro.pgrid.network import PGridNetwork
from repro.pgrid.state import (
    SCHEMA,
    DurabilityPolicy,
    StateStore,
)
from repro.scenarios import (
    MessageNetConfig,
    MessageScenarioRunner,
    ScenarioRunner,
    run_scenario,
    scenario,
)
from repro.scenarios.invariants import check_partition_tiling
from repro.scenarios.spec import RestartSpec
from repro.simnet.engine import Simulator
from repro.simnet.node import NodeConfig, PGridNode
from repro.simnet.transport import ConstantLatency, Network


def ideal_net(n_peers=32, n_keys=300, seed=3):
    rand = random.Random(seed)
    keys = [float_to_key(rand.random()) for _ in range(n_keys)]
    return PGridNetwork.ideal(keys, n_peers, d_max=40, n_min=3, rng=1)


def build_wire(*, latency=0.01, config=None):
    """Quadrant overlay with a replica twin of quadrant 11 (same shape
    as the write-path tests)."""
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(latency), rng=1)
    config = config or NodeConfig(query_retries=2, query_timeout=5.0)
    nodes = []
    quads = [
        ("00", [0.05, 0.2]), ("01", [0.3, 0.45]),
        ("10", [0.55, 0.7]), ("11", [0.8, 0.95]),
    ]
    for node_id, (path, floats) in enumerate(quads):
        node = PGridNode(node_id, sim, net, config=config, rng=node_id + 1)
        node.path = Path.from_string(path)
        node.keys = {float_to_key(f) for f in floats}
        node.joined = True
        nodes.append(node)
    for node in nodes:
        for other in nodes:
            if other is not node:
                cpl = node.path.common_prefix_length(other.path)
                if cpl < node.path.length:
                    node.add_route(cpl, other.node_id)
    twin = PGridNode(4, sim, net, config=config, rng=9)
    twin.path = Path.from_string("11")
    twin.keys = set(nodes[3].keys)
    twin.joined = True
    nodes[3].replicas = {4}
    twin.replicas = {3}
    nodes.append(twin)
    return sim, net, nodes


class TestDurabilityPolicyAndStore:
    def test_store_keeps_latest_only_and_counts(self):
        store = StateStore()
        snap = {"schema": SCHEMA, "x": 1}
        store.put(7, snap)
        store.put(7, {"schema": SCHEMA, "x": 2})
        assert store.checkpoints == 2
        assert len(store) == 1
        assert store.get(7)["x"] == 2
        store.discard(7)
        assert store.get(7) is None

    def test_store_rejects_foreign_schema(self):
        with pytest.raises(DomainError):
            StateStore().put(1, {"schema": "something/v9"})


class TestPeerSnapshotRoundTrip:
    def test_checkpoint_restore_checkpoint_is_identity(self):
        net = ideal_net()
        pid = sorted(net.peers)[0]
        peer = net.peers[pid]
        peer.erase(sorted(peer.keys)[0])  # give it a tombstone too
        before = net.checkpoint_peer(pid, now=42.0)
        # Trash the live state, then restore.
        peer.keys = type(peer.keys)([])
        peer.tombstones = type(peer.tombstones)([])
        peer.routing.levels = {}
        net.restore_peer(pid, before)
        after = net.checkpoint_peer(pid, now=42.0)
        assert before == after

    def test_snapshot_collections_are_sorted(self):
        net = ideal_net()
        snap = net.checkpoint_peer(sorted(net.peers)[0])
        assert snap["schema"] == SCHEMA and snap["kind"] == "peer"
        assert snap["keys"] == sorted(snap["keys"])
        assert snap["replicas"] == sorted(snap["replicas"])
        assert [lvl for lvl, _ in snap["routing"]] == sorted(
            lvl for lvl, _ in snap["routing"]
        )

    def test_restore_rejects_wrong_peer_and_schema(self):
        net = ideal_net()
        a, b = sorted(net.peers)[:2]
        snap = net.checkpoint_peer(a)
        with pytest.raises(DomainError):
            net.restore_peer(b, snap)
        bad = dict(snap, schema="pgrid-state/v0")
        with pytest.raises(DomainError):
            net.restore_peer(a, bad)
        wrong_kind = dict(snap, kind="node")
        with pytest.raises(DomainError):
            net.restore_peer(a, wrong_kind)


class TestNodeSnapshotRoundTrip:
    def test_snapshot_restore_snapshot_is_identity(self):
        sim, net, nodes = build_wire()
        node = nodes[3]
        key = float_to_key(0.8)
        nodes[0].issue_delete(key)
        sim.run_until(30.0)
        assert key in node.tombstones
        before = node.snapshot_state()
        node.keys = set()
        node.tombstones = set()
        node._tombstone_born = {}
        node.routing = {}
        node.restore_state(before)
        after = node.snapshot_state()
        # Liveness ages are deliberately NOT identity: restore caps
        # last_confirmed so every ref reads as due for re-confirmation.
        confirm = CONFIRM_INTERVAL_S
        assert {k: v for k, v in before.items() if k != "liveness"} == {
            k: v for k, v in after.items() if k != "liveness"
        }
        assert after["liveness"]["evicted"] == before["liveness"]["evicted"]
        for (ref_b, age_b), (ref_a, age_a) in zip(
            before["liveness"]["last_confirmed"],
            after["liveness"]["last_confirmed"],
        ):
            assert ref_a == ref_b
            assert age_a == pytest.approx(max(age_b, confirm))

    def test_restored_liveness_refs_need_confirmation(self):
        sim, net, nodes = build_wire()
        node = nodes[0]
        # A recent confirmation would normally suppress the next probe.
        node.liveness.last_confirmed[1] = sim.now
        node.liveness.strike(2, sim.now)  # suspect, no probe yet
        snap = node.snapshot_state()
        node.restore_state(snap)
        assert node.liveness.needs_confirmation(1, sim.now)
        # Strikes never survive a restart.
        assert not node.liveness.strikes

    def test_earned_backoff_does_not_survive_a_restart(self):
        # Contract point 2: references trusted up to the cap before the
        # restart are unconfirmed after it -- one probe per level on the
        # next sweep, the spares confirmed on first use.
        sim, net, nodes = build_wire()
        node, tracker = nodes[0], nodes[0].liveness
        assert node.routing == {0: [2, 3], 1: [1]}
        sim.run_until(100.0)
        for ref in (1, 2, 3):
            tracker.last_confirmed[ref] = sim.now
            tracker.confirm_interval[ref] = CONFIRM_INTERVAL_MAX_S
        assert node.refresh_routes() == 0  # covered (and nothing armed the sweep)
        node.restore_state(node.snapshot_state())
        assert not tracker.confirm_interval
        assert all(tracker.needs_confirmation(ref, sim.now) for ref in (1, 2, 3))
        assert node.refresh_routes() == 2  # one per level
        # Their accepted connects confirmed the two probed; the spare
        # waits for its first use.
        assert [tracker.needs_confirmation(ref, sim.now) for ref in (1, 2, 3)] == [
            False, False, True,
        ]

    def test_snapshot_keeps_stamps_of_routing_references_only(self):
        sim, net, nodes = build_wire()
        node = nodes[0]
        sim.run_until(5.0)
        for stranger in range(100, 150):  # e.g. queries it answered
            node.liveness.note_alive(stranger, sim.now)
        node.liveness.note_alive(2, sim.now)
        sim.run_until(8.0)
        snap = node.snapshot_state()
        # Reference 2 was heard 3 s ago, the others never (since t=0).
        assert snap["liveness"]["last_confirmed"] == [[1, 8.0], [2, 3.0], [3, 8.0]]

    def test_old_style_snapshot_with_stranger_stamps_restores(self):
        sim, net, nodes = build_wire()
        node = nodes[0]
        sim.run_until(100.0)
        snap = node.snapshot_state()
        snap["liveness"]["last_confirmed"] = [[2, 1.0], [100, 2.0], [101, 3.0]]
        node.restore_state(snap)
        assert node.routing == {0: [2, 3], 1: [1]}
        assert all(node.liveness.needs_confirmation(ref, sim.now) for ref in (1, 2, 3))

    def test_restore_clears_transient_state(self):
        sim, net, nodes = build_wire()
        node = nodes[0]
        snap = node.snapshot_state()
        node.idle_strikes = 3
        node._inflight_exchange = (99, 1)
        node.restore_state(snap)
        assert node.idle_strikes == 0
        assert node._inflight_exchange is None


class TestTombstoneClocks:
    def ttl_node(self, ttl=100.0):
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01), rng=1)
        config = NodeConfig(tombstone_ttl_s=ttl)
        node = PGridNode(0, sim, net, config=config, rng=1)
        node.path = Path.from_string("0")
        node.joined = True
        return sim, node

    def test_ttl_keeps_aging_across_downtime(self):
        sim, node = self.ttl_node(ttl=100.0)
        sim.run_until(10.0)
        node._note_tombstones([5])
        snap = node.snapshot_state()
        # Restart lands before expiry: certificate survives, birth
        # rebased so only the *remaining* TTL is left.
        sim.run_until(60.0)
        node.restore_state(snap)
        assert 5 in node.tombstones
        assert node._tombstone_born[5] == pytest.approx(10.0)
        # A second restart after the original expiry: stays dead.
        snap2 = node.snapshot_state()
        sim.run_until(111.0)
        node.restore_state(snap2)
        assert 5 not in node.tombstones

    def test_regossip_does_not_refresh_ttl_clock(self):
        sim, node = self.ttl_node(ttl=100.0)
        sim.run_until(10.0)
        node._note_tombstones([5])
        sim.run_until(90.0)
        node._note_tombstones([5])  # re-gossip of the same certificate
        assert node._tombstone_born[5] == pytest.approx(10.0)
        sim.run_until(110.5)  # past 10 + ttl, before 90 + ttl
        node._prune_tombstones()
        assert 5 not in node.tombstones

    def test_exchange_regossip_does_not_refresh_replica_clock(self):
        sim, net, nodes = build_wire()
        owner, twin = nodes[3], nodes[4]
        key = float_to_key(0.8)
        nodes[0].issue_delete(key)
        sim.run_until(30.0)
        born = twin._tombstone_born[key]
        sim.run_until(200.0)
        owner._begin_exchange(4)  # anti-entropy re-ships the certificate
        sim.run_until(230.0)
        assert twin._tombstone_born[key] == pytest.approx(born)

    @pytest.mark.parametrize(
        "name, ttl", [("restart-storm", 120.0), ("uniform-baseline", 600.0)]
    )
    def test_nodes_get_the_spec_ttl_else_the_node_default(self, name, ttl):
        # restart-storm provisions 1200 s (dilated by 0.1); uniform-baseline
        # provisions none and keeps NodeConfig's default.
        spec = scenario(name, n_peers=24, seed=1, duration_scale=0.1)
        runner = MessageScenarioRunner(spec)
        runner.run()
        [node_ttl] = {node.config.tombstone_ttl_s for node in runner.nodes.values()}
        assert node_ttl == pytest.approx(ttl)

    def test_spec_ttl_validation(self):
        spec = scenario("uniform-baseline", n_peers=24, seed=1, duration_scale=0.1)
        from dataclasses import replace

        with pytest.raises(SimulationError):
            replace(spec, tombstone_ttl_s=0.0).validate()


class TestOfflineTimerHygiene:
    def test_abort_inflight_voids_pending_operations_as_moot(self):
        sim, net, nodes = build_wire()
        origin = nodes[0]
        done = {"query": [], "write": [], "range": []}
        origin.on_query_done = lambda nid, qid, out: done["query"].append(out)
        origin.on_write_done = lambda nid, wid, out: done["write"].append(out)
        origin.on_range_done = lambda nid, qid, out: done["range"].append(out)
        origin.issue_query(float_to_key(0.9))
        origin.issue_insert(float_to_key(0.85))
        origin.issue_range_query(float_to_key(0.3), float_to_key(0.9))
        assert origin._queries and origin._writes and origin._ranges
        # Shutdown while everything is in flight.
        origin.abort_inflight()
        origin.set_online(False)
        assert not origin._queries and not origin._writes and not origin._ranges
        # Observers fired exactly once each, all moot: the runner's
        # bookkeeping drains instead of leaking.
        assert [o.moot for o in done["query"]] == [True]
        assert [o.moot for o in done["write"]] == [True]
        assert [o.moot for o in done["range"]] == [True]

    def test_stale_timers_do_not_burn_retries_after_warm_rejoin(self):
        sim, net, nodes = build_wire()
        origin = nodes[0]
        done = []
        origin.on_query_done = lambda nid, qid, out: done.append(out)
        origin.issue_query(float_to_key(0.9))
        snap = origin.snapshot_state()
        origin.abort_inflight()
        origin.set_online(False)
        assert len(done) == 1 and done[0].moot
        # Downtime long enough for every stale attempt timer to expire.
        sim.run_until(30.0)
        origin.restore_state(snap)
        origin.set_online(True, warm=True)
        sim.run_until(40.0)
        # The stale timers found no pending entry: no extra outcomes.
        assert len(done) == 1
        # A fresh query starts with a full retry budget and one attempt.
        origin.issue_query(float_to_key(0.9))
        sim.run_until(70.0)
        assert len(done) == 2
        fresh = done[1]
        assert fresh.success and not fresh.moot and fresh.attempts == 1

    def test_armed_lazy_timers_survive_abort_without_double_resolution(self):
        # Lazy-timer extension of the exactly-once suite: let the
        # zero-delay attempts actually go out so every pending op's
        # DeadlineTimer is armed with one outstanding heap event, then
        # abort.  The disarmed events fire into no-ops when the stale
        # deadlines pass -- exactly one (moot) outcome per op, no
        # timeout charged, and nothing ever cancelled in the heap.
        sim, net, nodes = build_wire()
        origin = nodes[0]
        done = {"query": [], "write": [], "range": []}
        origin.on_query_done = lambda nid, qid, out: done["query"].append(out)
        origin.on_write_done = lambda nid, wid, out: done["write"].append(out)
        origin.on_range_done = lambda nid, qid, out: done["range"].append(out)
        qid = origin.issue_query(float_to_key(0.9))
        wid = origin.issue_insert(float_to_key(0.85))
        rid = origin.issue_range_query(float_to_key(0.3), float_to_key(0.9))
        sim.run_until(0.001)  # attempts sent: all three timers armed
        assert origin._queries[qid].timer.armed
        assert origin._writes[wid].timer.armed
        assert origin._ranges[rid].timer.armed
        origin.abort_inflight()
        origin.set_online(False)
        # Well past every stale deadline: the fires must all no-op.
        sim.run_until(60.0)
        for kind, outcomes in done.items():
            assert len(outcomes) == 1, f"{kind} resolved {len(outcomes)} times"
            assert outcomes[0].moot and outcomes[0].timeouts == 0
        # One heap event per operation (launch, then timer), one per
        # message in flight, one timeout per probe; all have run but the
        # repair steps the offline origin's refused replies scheduled.
        probes = sum(node.liveness.probes for node in nodes)
        assert sim.pending_peak <= 3 + net.inflight_peak + probes
        assert sim.pending == sum(node.liveness.step_pending for node in nodes)

    def test_warm_rejoin_initiates_one_replica_exchange(self):
        sim, net, nodes = build_wire()
        owner = nodes[3]
        snap = owner.snapshot_state()
        owner.abort_inflight()
        owner.set_online(False)
        # The twin learns a key while the owner is down.
        nodes[4].keys.add(float_to_key(0.99))
        sim.run_until(30.0)
        owner.restore_state(snap)
        owner.set_online(True, warm=True)
        sim.run_until(60.0)
        assert float_to_key(0.99) in owner.keys  # delta reconciled


class TestRestartSpec:
    def test_validate_rejects_bad_fields(self):
        for bad in (
            RestartSpec(fraction=0.0),
            RestartSpec(fraction=1.5),
            RestartSpec(min_down_s=0.0),
            RestartSpec(min_down_s=90.0, max_down_s=30.0),
            RestartSpec(stagger_s=-1.0),
            RestartSpec(crash_fraction=1.5),
        ):
            with pytest.raises(SimulationError):
                bad.validate()

    def test_defaults_are_valid(self):
        RestartSpec().validate()

    def test_scaled_dilates_times_but_not_fractions(self):
        spec = scenario("restart-storm", n_peers=24, seed=1, duration_scale=0.5)
        restarts = [p.restarts for p in spec.phases if p.restarts is not None]
        assert len(restarts) == 1
        full = scenario("restart-storm", n_peers=24, seed=1).phases
        ref = [p.restarts for p in full if p.restarts is not None][0]
        got = restarts[0]
        assert got.min_down_s == pytest.approx(ref.min_down_s * 0.5)
        assert got.max_down_s == pytest.approx(ref.max_down_s * 0.5)
        assert got.stagger_s == pytest.approx(ref.stagger_s * 0.5)
        assert got.fraction == ref.fraction
        assert got.crash_fraction == ref.crash_fraction


class _StubPeer:
    def __init__(self, path):
        self.path = Path.from_string(path)


class _StubNet:
    def __init__(self, *paths):
        self.peers = {i: _StubPeer(p) for i, p in enumerate(paths)}


class TestRefinementTolerantTiling:
    def test_exact_tiling_passes_both_modes(self):
        net = _StubNet("00", "01", "1")
        check_partition_tiling(net)
        check_partition_tiling(net, allow_refinement=True)

    def test_parent_child_overlap_needs_refinement_mode(self):
        # Mid-refinement: one member of group "0" already specialized
        # to "00"/"01" while a straggler still sits at "0".
        net = _StubNet("0", "00", "01", "1")
        with pytest.raises(PartitionError):
            check_partition_tiling(net)
        check_partition_tiling(net, allow_refinement=True)

    def test_gap_fails_even_with_refinement(self):
        net = _StubNet("00", "1")  # "01" uncovered
        with pytest.raises(PartitionError):
            check_partition_tiling(net, allow_refinement=True)

    def test_missing_tail_fails_with_refinement(self):
        net = _StubNet("0", "10")  # "11" uncovered
        with pytest.raises(PartitionError):
            check_partition_tiling(net, allow_refinement=True)

    def test_parent_covers_straggler_children_everywhere(self):
        # The parent alone covers the space; children merely nest.
        net = _StubNet("0", "1", "11", "110")
        check_partition_tiling(net, allow_refinement=True)


SMALL = dict(n_peers=48, seed=7, duration_scale=0.25)


class TestRecoveryProperties:
    """Scenario-level crash-model properties on both backends."""

    @pytest.mark.parametrize("backend", ["dataplane", "message"])
    def test_clean_shutdown_loses_nothing(self, backend):
        # restart-storm has crash_fraction=0: every restart is a clean
        # shutdown, so with durability on no acked write may be lost
        # and no tombstone may resurrect.
        report = run_scenario(scenario("restart-storm", **SMALL), backend=backend)
        rec = report.recovery
        assert rec is not None and rec["durability_enabled"]
        assert rec["restarts"] > 0
        assert rec["crashes"] == 0
        assert rec["clean_shutdowns"] == rec["restarts"]
        assert rec["warm_rejoins"] == rec["restarts"]
        assert rec["cold_rejoins"] == 0
        assert rec["checkpoints"] > 0
        assert rec["acked_writes_tracked"] > 0
        assert rec["lost_acked_writes"] == 0
        assert rec["tombstone_resurrections"] == 0

    @pytest.mark.parametrize("backend", ["dataplane", "message"])
    def test_crash_model_quantifies_staleness(self, backend):
        # datacenter-power-cycle has crash_fraction=1.0: every restore
        # falls back to the last periodic checkpoint.  The audit still
        # runs and reports the damage as numbers (possibly zero at this
        # small scale) rather than silently.
        report = run_scenario(
            scenario("datacenter-power-cycle", **SMALL), backend=backend
        )
        rec = report.recovery
        assert rec is not None
        assert rec["crashes"] == rec["restarts"] > 0
        assert rec["clean_shutdowns"] == 0
        assert rec["warm_rejoins"] == rec["restarts"]
        assert rec["acked_writes_tracked"] > 0
        assert rec["lost_acked_writes"] >= 0
        assert rec["tombstone_resurrections"] >= 0

    @pytest.mark.parametrize("backend", ["dataplane", "message"])
    def test_durability_off_forces_cold_rejoins(self, backend):
        spec = scenario("restart-storm", **SMALL)
        cold = DurabilityPolicy(enabled=False)
        if backend == "message":
            runner = MessageScenarioRunner(
                spec, net_config=MessageNetConfig(durability=cold)
            )
        else:
            runner = ScenarioRunner(spec, durability=cold)
        rec = runner.run().recovery
        assert rec is not None and not rec["durability_enabled"]
        assert rec["cold_rejoins"] == rec["restarts"] > 0
        assert rec["warm_rejoins"] == 0
        assert rec["checkpoints"] == 0

    def test_warm_beats_cold_on_time_and_bytes(self):
        # The headline A/B at test scale, dataplane backend (fast):
        # warm rejoin must converge no later and spend strictly fewer
        # maintenance bytes than the cold sponsored-join baseline.
        spec = scenario("restart-storm", n_peers=128, seed=7, duration_scale=0.25)
        warm = ScenarioRunner(spec).run().recovery
        cold = ScenarioRunner(
            spec, durability=DurabilityPolicy(enabled=False)
        ).run().recovery
        assert warm["converged"]
        assert (
            warm["time_to_converged_divergence_s"]
            <= cold["time_to_converged_divergence_s"]
        )
        assert warm["recovery_maint_bytes"] < cold["recovery_maint_bytes"]

    def test_non_restart_reports_have_no_recovery_section(self):
        report = run_scenario(
            scenario("uniform-baseline", n_peers=24, seed=11, duration_scale=0.1)
        )
        assert report.recovery is None
        assert "recovery" not in report.to_dict()

    def test_structural_invariants_survive_restart_storm(self):
        from repro.scenarios.invariants import check_routing_complementarity

        runner = MessageScenarioRunner(scenario("restart-storm", **SMALL))
        runner.run()
        net = runner.as_network()
        check_routing_complementarity(net)
        check_partition_tiling(net, allow_refinement=True)

    @pytest.mark.parametrize("backend", ["dataplane", "message"])
    @pytest.mark.parametrize(
        "name", ["restart-storm", "rolling-deploy", "datacenter-power-cycle"]
    )
    def test_restart_scenarios_are_deterministic(self, name, backend):
        small = dict(n_peers=32, seed=3, duration_scale=0.1)
        a = run_scenario(scenario(name, **small), backend=backend).to_json()
        b = run_scenario(scenario(name, **small), backend=backend).to_json()
        assert a == b
