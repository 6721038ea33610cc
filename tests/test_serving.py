"""The query-serving front end: caches, dedup, coherence, reporting.

Four layers, mirroring the subsystem's span (ROADMAP open item 2):

* **Primitives** (:mod:`repro.pgrid.serving`): ``CachePolicy``
  validation/scaling, ``ResultCache`` TTL + invalidation + eviction
  semantics (a TTL of 0 never serves), ``RouteCache`` round-robin
  rotation, and the ``gini`` load-spread statistic.
* **Protocol** (:mod:`repro.simnet.node`): cache hits answer locally at
  zero wire cost, identical in-flight lookups join as waiters and
  resolve exactly once -- including through ``abort_inflight`` (the
  waiter-leak regression), writes invalidate result caches on every
  hearer (origin, owner, replica-sync receivers) while route entries
  survive writes.
* **Scenario layer**: the report's ``serving`` section, the measured
  ``stale_read_rate`` (zero by construction at TTL=0), the
  ``CachePolicy(enabled=False)`` A/B contract (identical report modulo
  the serving section), and determinism on both backends.
* **Stats**: nearest-rank percentile correctness of the message
  backend's latency summaries (p50 of two samples is the *smaller*
  one; single-sample bins are their own mean; p999 exists).
"""

import dataclasses

import pytest

from repro.exceptions import DomainError, SimulationError
from repro.pgrid.bits import Path
from repro.pgrid.keyspace import float_to_key
from repro.pgrid.serving import CachePolicy, ResultCache, RouteCache, gini
from repro.scenarios import QueryMix, run_scenario, scenario
from repro.scenarios.message_runner import _latency_stats
from repro.simnet.engine import Simulator
from repro.simnet.node import NodeConfig, PGridNode
from repro.simnet.transport import ConstantLatency, Network


class TestCachePolicy:
    def test_defaults_validate(self):
        CachePolicy().validate()
        CachePolicy(result_ttl_s=0.0).validate()  # trivially coherent

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"result_ttl_s": -1.0},
            {"route_ttl_s": -0.5},
            {"hot_threshold": 0},
            {"hot_threshold": float("nan")},
            {"decay_interval_s": 0.0},
            {"grant_ttl_s": 0.0},
            {"front_ends": -1},
            {"front_ends": 2.5},
            {"front_ends": float("nan")},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(DomainError):
            CachePolicy(**kwargs).validate()

    def test_scaled_dilates_time_knobs_only(self):
        policy = CachePolicy(
            result_ttl_s=30.0, route_ttl_s=240.0, decay_interval_s=60.0,
            grant_ttl_s=300.0, front_ends=16,
        )
        half = policy.scaled(0.5)
        assert half.result_ttl_s == pytest.approx(15.0)
        assert half.route_ttl_s == pytest.approx(120.0)
        assert half.decay_interval_s == pytest.approx(30.0)
        assert half.grant_ttl_s == pytest.approx(150.0)
        # Structural knobs are not time quantities.
        assert half.hot_threshold == policy.hot_threshold
        assert half.front_ends == 16

    def test_scaled_identity_returns_self(self):
        policy = CachePolicy()
        assert policy.scaled(1.0) is policy

    def test_batch_size_validation(self):
        with pytest.raises(SimulationError):
            QueryMix(batch_size=0).validate()
        with pytest.raises(SimulationError):
            QueryMix(zipf_keys=-1).validate()
        with pytest.raises(SimulationError):
            QueryMix(zipf_exponent=0.0).validate()


class TestResultCache:
    def test_round_trip_within_ttl(self):
        cache = ResultCache(10.0, 8)
        cache.put(5, True, now=0.0)
        assert cache.get(5, now=9.99) is True

    def test_ttl_zero_never_serves(self):
        cache = ResultCache(0.0, 8)
        cache.put(5, True, now=3.0)
        assert cache.get(5, now=3.0) is None

    def test_expiry_boundary_is_exclusive(self):
        cache = ResultCache(10.0, 8)
        cache.put(5, False, now=0.0)
        assert cache.get(5, now=10.0) is None  # age == ttl -> expired
        assert len(cache) == 0  # and the entry was dropped

    def test_invalidate_reports_presence(self):
        cache = ResultCache(10.0, 8)
        cache.put(5, True, now=0.0)
        assert cache.invalidate(5) is True
        assert cache.invalidate(5) is False
        assert cache.get(5, now=1.0) is None

    def test_capacity_evicts_oldest_inserted(self):
        cache = ResultCache(100.0, 2)
        cache.put(1, True, now=0.0)
        cache.put(2, True, now=1.0)
        cache.put(3, True, now=2.0)
        assert cache.get(1, now=3.0) is None
        assert cache.get(2, now=3.0) is True
        assert cache.get(3, now=3.0) is True

    def test_reput_refreshes_instead_of_evicting(self):
        cache = ResultCache(100.0, 2)
        cache.put(1, True, now=0.0)
        cache.put(2, True, now=1.0)
        cache.put(1, False, now=2.0)  # refresh, not a third entry
        assert cache.get(2, now=3.0) is True
        assert cache.get(1, now=3.0) is False


class TestRouteCache:
    def test_pick_rotates_round_robin(self):
        cache = RouteCache(100.0, 8)
        cache.put(5, [7, 9], now=0.0)
        picks = [cache.pick(5, now=1.0) for _ in range(4)]
        assert picks == [7, 9, 7, 9]

    def test_duplicate_targets_collapse(self):
        cache = RouteCache(100.0, 8)
        cache.put(5, [7, 7, 9, 7], now=0.0)
        assert [cache.pick(5, now=1.0) for _ in range(3)] == [7, 9, 7]

    def test_ttl_expiry(self):
        cache = RouteCache(10.0, 8)
        cache.put(5, [7], now=0.0)
        assert cache.pick(5, now=10.0) is None

    def test_empty_target_list_is_not_stored(self):
        cache = RouteCache(10.0, 8)
        cache.put(5, [], now=0.0)
        assert len(cache) == 0

    def test_invalidate(self):
        cache = RouteCache(10.0, 8)
        cache.put(5, [7], now=0.0)
        assert cache.invalidate(5) is True
        assert cache.pick(5, now=1.0) is None


class TestGini:
    def test_even_load_is_zero(self):
        assert gini([3, 3, 3, 3]) == pytest.approx(0.0)

    def test_concentrated_load_is_high(self):
        assert gini([0, 0, 0, 10]) == pytest.approx(0.75)

    def test_degenerate_inputs(self):
        assert gini([]) == 0.0
        assert gini([0, 0]) == 0.0

    def test_scale_invariant(self):
        assert gini([1, 2, 3, 4]) == pytest.approx(gini([10, 20, 30, 40]))


class TestLatencyStats:
    """Nearest-rank percentiles (the former int(q*n) index was biased
    one rank high on small samples)."""

    def test_p50_of_two_is_the_smaller(self):
        stats = _latency_stats([2.0, 1.0])
        assert stats["p50"] == 1.0

    def test_p50_of_three_is_the_middle(self):
        stats = _latency_stats([3.0, 1.0, 2.0])
        assert stats["p50"] == 2.0

    def test_percentiles_on_a_known_ladder(self):
        stats = _latency_stats([float(i) for i in range(1, 1001)])
        assert stats["p50"] == 500.0
        assert stats["p90"] == 900.0
        assert stats["p99"] == 990.0
        assert stats["p999"] == 999.0
        assert stats["max"] == 1000.0

    def test_single_sample_is_its_own_summary(self):
        stats = _latency_stats([0.37])
        assert stats["count"] == 1
        assert stats["mean"] == 0.37
        assert stats["p50"] == stats["p99"] == stats["p999"] == 0.37
        assert stats["max"] == 0.37

    def test_empty_bin_shape(self):
        assert _latency_stats([]) == {"count": 0}


def build_wire(*, policy=None, twin=True):
    """Quadrant overlay (optionally with a replica twin of "11"),
    mirroring the write-path tests' fixture but serving-enabled."""
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01), loss_rate=0.0, rng=1)
    config = NodeConfig(query_retries=2, query_timeout=5.0, serving=policy)
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
    if twin:
        peer = PGridNode(4, sim, net, config=config, rng=9)
        peer.path = Path.from_string("11")
        peer.keys = set(nodes[3].keys)
        peer.joined = True
        nodes[3].replicas = {4}
        peer.replicas = {3}
        nodes.append(peer)
    return sim, net, nodes


POLICY = CachePolicy(result_ttl_s=30.0, route_ttl_s=60.0)


class TestNodeCacheHits:
    def test_repeat_query_served_locally_at_zero_wire_cost(self):
        sim, net, nodes = build_wire(policy=POLICY)
        outcomes = []
        nodes[0].on_query_done = lambda nid, qid, out: outcomes.append(out)
        audits = []
        nodes[0].on_cache_hit = lambda nid, key, present: audits.append(
            (nid, key, present)
        )
        key = float_to_key(0.87)
        nodes[0].issue_query(key)
        sim.run_until(10.0)
        assert len(outcomes) == 1 and outcomes[0].success
        delivered_before = dict(net.delivered)
        nodes[0].issue_query(key)
        sim.run_until(20.0)
        assert len(outcomes) == 2 and outcomes[1].success
        assert outcomes[1].messages == 0 and outcomes[1].hops == 0
        assert net.delivered == delivered_before  # nothing touched the wire
        assert nodes[0].serving_stats["result_hits"] == 1
        assert audits == [(0, key, key in nodes[3].keys)]

    def test_ttl_zero_policy_never_hits(self):
        policy = dataclasses.replace(POLICY, result_ttl_s=0.0)
        sim, net, nodes = build_wire(policy=policy)
        key = float_to_key(0.87)
        nodes[0].issue_query(key)
        sim.run_until(10.0)
        nodes[0].issue_query(key)
        sim.run_until(20.0)
        assert nodes[0].serving_stats["result_hits"] == 0
        assert nodes[0].serving_stats["result_misses"] == 2

    def test_expired_entry_never_serves_on_the_node(self):
        policy = dataclasses.replace(POLICY, result_ttl_s=5.0)
        sim, net, nodes = build_wire(policy=policy)
        key = float_to_key(0.87)
        nodes[0].issue_query(key)
        sim.run_until(1.0)  # resolves well inside the TTL
        sim.run_until(30.0)  # ... which has long expired by now
        nodes[0].issue_query(key)
        sim.run_until(40.0)
        assert nodes[0].serving_stats["result_hits"] == 0
        assert nodes[0].serving_stats["result_misses"] == 2


class TestNodeDedup:
    def test_identical_inflight_lookup_joins_as_waiter(self):
        sim, net, nodes = build_wire(policy=POLICY)
        outcomes = {}
        nodes[0].on_query_done = (
            lambda nid, qid, out: outcomes.setdefault(qid, []).append(out)
        )
        key = float_to_key(0.87)
        qid_a = nodes[0].issue_query(key)
        qid_b = nodes[0].issue_query(key)
        sim.run_until(10.0)
        assert nodes[0].serving_stats["dedup_joined"] == 1
        assert sorted(outcomes) == sorted([qid_a, qid_b])
        for qid, fired in outcomes.items():
            assert len(fired) == 1, f"qid {qid} resolved {len(fired)} times"
            assert fired[0].success
        # The waiter shares the primary's wire traffic.
        assert outcomes[qid_b][0].messages == 0
        assert outcomes[qid_a][0].messages > 0

    def test_abort_inflight_resolves_waiters_exactly_once(self):
        # The waiter-leak regression: abort while a primary+waiter pair
        # is in flight must fire each observer exactly once (moot), not
        # twice (once via the primary's waiter fan-out, once via the
        # abort loop's own iteration).
        sim, net, nodes = build_wire(policy=POLICY)
        outcomes = {}
        nodes[0].on_query_done = (
            lambda nid, qid, out: outcomes.setdefault(qid, []).append(out)
        )
        key = float_to_key(0.87)
        qid_a = nodes[0].issue_query(key)
        qid_b = nodes[0].issue_query(key)
        nodes[0].abort_inflight()
        assert sorted(outcomes) == sorted([qid_a, qid_b])
        for qid, fired in outcomes.items():
            assert len(fired) == 1, f"qid {qid} resolved {len(fired)} times"
            assert fired[0].moot and not fired[0].success
        # No pending state leaks, and the already-scheduled zero-delay
        # attempt finds nothing to resume.
        assert not nodes[0]._queries
        assert not nodes[0]._inflight_by_key and not nodes[0]._waiters
        sim.run_until(30.0)
        assert all(len(fired) == 1 for fired in outcomes.values())

    def test_abort_after_armed_lazy_timer_never_double_resolves(self):
        # Lazy-timer twin of the waiter-leak test: abort *after* the
        # attempt went out, so the primary's DeadlineTimer is armed and
        # its one heap event is outstanding.  The abort disarms it (the
        # event stays queued); when the stale deadline
        # passes, the fire must no-op -- each observer resolves exactly
        # once, and no timeout is ever charged to the aborted attempt.
        sim, net, nodes = build_wire(policy=POLICY)
        outcomes = {}
        nodes[0].on_query_done = (
            lambda nid, qid, out: outcomes.setdefault(qid, []).append(out)
        )
        key = float_to_key(0.87)
        qid_a = nodes[0].issue_query(key)
        qid_b = nodes[0].issue_query(key)
        sim.run_until(0.001)  # zero-delay attempt sent, timer armed
        assert nodes[0]._queries[qid_a].timer.armed
        nodes[0].abort_inflight()
        assert sorted(outcomes) == sorted([qid_a, qid_b])
        sim.run_until(30.0)  # the stale 5s deadline fires into a no-op
        for qid, fired in outcomes.items():
            assert len(fired) == 1, f"qid {qid} resolved {len(fired)} times"
            assert fired[0].moot and not fired[0].success
            assert fired[0].timeouts == 0
        # One heap event per query (launch, then timer) plus the
        # messages in flight: the abort left nothing behind to cancel.
        assert sim.pending_peak <= 2 + net.inflight_peak
        assert sim.pending == 0


class TestWriteInvalidation:
    def test_write_at_origin_drops_its_cached_result(self):
        sim, net, nodes = build_wire(policy=POLICY)
        key = float_to_key(0.87)
        nodes[0].issue_query(key)
        sim.run_until(10.0)
        assert nodes[0].result_cache.get(key, sim.now) is not None
        nodes[0].issue_insert(key)
        sim.run_until(20.0)
        assert nodes[0].result_cache.get(key, sim.now) is None
        assert nodes[0].serving_stats["invalidations"] >= 1

    def test_replica_sync_invalidates_the_hearer(self):
        sim, net, nodes = build_wire(policy=POLICY, twin=True)
        key = float_to_key(0.87)
        # The replica twin holds a (manually planted) cached result for
        # a key in its own range; the owner's replica_sync fan-out for
        # the write must kill it.
        nodes[4].result_cache.put(key, False, sim.now)
        nodes[0].issue_insert(key)
        sim.run_until(30.0)
        assert key in nodes[4].keys  # the sync arrived
        assert nodes[4].result_cache.get(key, sim.now) is None

    def test_route_entries_survive_writes(self):
        # The partition owner did not move because a key changed: only
        # routing evidence or TTL kills a route entry.
        sim, net, nodes = build_wire(policy=POLICY)
        key = float_to_key(0.87)
        nodes[0].issue_query(key)
        sim.run_until(10.0)
        assert nodes[0].route_cache.pick(key, sim.now) is not None
        nodes[0].issue_insert(key)
        sim.run_until(20.0)
        assert nodes[0].route_cache.pick(key, sim.now) is not None


def serving_spec(name="zipf-serving", n_peers=64, seed=9, scale=0.1, **cache_kw):
    spec = scenario(name, n_peers=n_peers, seed=seed, duration_scale=scale)
    if cache_kw:
        spec = dataclasses.replace(
            spec, cache=dataclasses.replace(spec.cache, **cache_kw)
        )
    return spec


class TestServingScenarios:
    @pytest.mark.parametrize("backend", ["dataplane", "message"])
    def test_ttl_zero_reports_zero_stale_reads(self, backend):
        report = run_scenario(serving_spec(result_ttl_s=0.0), backend=backend)
        srv = report.serving
        assert srv is not None and srv["enabled"]
        assert srv["cache_hits"] == 0  # TTL=0 never serves
        assert srv["stale_reads"] == 0
        assert srv["stale_read_rate"] == 0.0

    @pytest.mark.parametrize("backend", ["dataplane", "message"])
    def test_caches_actually_hit_under_zipf(self, backend):
        report = run_scenario(serving_spec(), backend=backend)
        srv = report.serving
        assert srv["cache_hits"] > 0
        assert 0.0 < srv["cache_hit_rate"] <= 1.0
        assert srv["audited_hits"] == srv["cache_hits"]
        assert 0.0 <= srv["stale_read_rate"] <= 1.0

    @pytest.mark.parametrize("backend", ["dataplane", "message"])
    def test_disabled_policy_changes_nothing_but_the_section(self, backend):
        # The A/B contract: CachePolicy(enabled=False, front_ends=0) is
        # the measured-but-inert configuration -- byte-identical report
        # modulo the serving section itself.
        base = scenario("read-write-balanced", n_peers=48, seed=7,
                        duration_scale=0.1)
        off = dataclasses.replace(
            base, cache=CachePolicy(enabled=False, front_ends=0)
        )
        plain = run_scenario(base, backend=backend).to_dict()
        with_off = run_scenario(off, backend=backend).to_dict()
        section = with_off.pop("serving")
        assert section["enabled"] is False
        assert section["cache_hits"] == 0 and section["cache_misses"] == 0
        assert with_off == plain

    @pytest.mark.parametrize("backend", ["dataplane", "message"])
    def test_serving_runs_are_deterministic(self, backend):
        first = run_scenario(serving_spec(), backend=backend)
        second = run_scenario(serving_spec(), backend=backend)
        assert first.to_json() == second.to_json()

    def test_serving_section_shape_and_summary_rows(self):
        report = run_scenario(serving_spec(n_peers=128))
        srv = report.serving
        assert srv["policy"]["front_ends"] == 16
        for counter in (
            "dedup_joined", "invalidations", "route_uses",
            "route_invalidations", "grants", "revokes", "grant_hits",
            "helpers_final",
        ):
            assert srv[counter] >= 0
        assert 0.0 <= srv["load_gini"] <= 1.0
        labels = [label for label, _ in report.summary_rows()]
        assert "cache hit rate" in labels
        assert "stale read rate" in labels
        assert "per-peer load Gini" in labels

    def test_cacheless_spec_has_no_serving_section(self):
        base = scenario("uniform-baseline", n_peers=48, seed=5,
                        duration_scale=0.1)
        report = run_scenario(base)
        assert report.serving is None
        assert "serving" not in report.to_dict()
