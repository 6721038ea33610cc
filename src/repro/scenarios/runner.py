"""The data-plane scenario backend: synchronous queries, simulated clock.

:class:`ScenarioRunner` is the fast backend of the two-backend scenario
architecture (see :mod:`repro.scenarios.base` for the shared phase
compiler and :mod:`repro.scenarios.message_runner` for the
message-level sibling): it materializes a
:class:`~repro.pgrid.network.PGridNetwork` for the spec's workload and
executes queries *synchronously* on the data plane, while churn,
arrivals and maintenance genuinely interleave on the simulated clock.

Design notes
------------
* The **simulator provides the timeline**, not message latency: the
  PR-1 fast paths make a lookup ~10us even at N=4096, which is what
  makes N=4096 scenarios run in seconds where the full message-level
  simnet pays per-hop wire latency.  Use the message backend when
  latency/loss/timeout behavior is the question.
* **Determinism**: inherited from the base runner -- same spec + seed
  reproduces a byte-identical report (golden-trace tested).  Every
  routing draw (start peers, references, join walks) comes from the
  base's route stream, never from the stream that drew the operation,
  so a change of routing leaves the asked operations as they were.
* **Bandwidth** uses the nominal byte model of
  :mod:`repro.scenarios.report` (`HEADER_BYTES` per message, `KEY_BYTES`
  per shipped key); the message backend accounts real wire bytes
  instead.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..core.construction import ConstructionConfig
from ..exceptions import RoutingError
from ..pgrid.liveness import repair_routes
from ..pgrid.maintenance import sequential_join
from ..pgrid.network import PGridNetwork, build_overlay
from ..pgrid.replication import anti_entropy_sweep
from ..pgrid.routing import RoutingTable
from ..pgrid.serving import RESULT_CAPACITY, ResultCache
from ..pgrid.state import DurabilityPolicy
from ..workloads.queries import POINT, QuerySampler
from .base import ScenarioRunnerBase, _Tally
from .report import HEADER_BYTES, KEY_BYTES
from .spec import Phase, ScenarioSpec

__all__ = ["ScenarioRunner"]


class ScenarioRunner(ScenarioRunnerBase):
    """Executes one :class:`ScenarioSpec` over a fresh overlay.

    After :meth:`run` the overlay and simulator remain available as
    ``self.network`` / ``self.simulator`` for inspection (the invariant
    tests use this to audit the post-scenario structure).
    """

    backend = "dataplane"

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        durability: Optional[DurabilityPolicy] = None,
    ):
        super().__init__(spec, durability=durability)
        self.network: Optional[PGridNetwork] = None
        self._partition_cut: List[int] = []
        #: Data-plane serving approximation: queries are synchronous, so
        #: there is no concurrency to dedup and no wire to shortcut with
        #: a route cache -- but the *result* cache and its write
        #: invalidation are backend-independent semantics.  One
        #: front-end cache stands in for the per-node caches of the
        #: message backend (the issuing side is not modeled here).
        self._dp_cache: Optional[ResultCache] = None
        self._dp_stats = {"result_hits": 0, "result_misses": 0, "invalidations": 0}
    # -- lifecycle hooks ---------------------------------------------------

    def _setup(self, peer_keys, build_rng) -> None:
        spec = self.spec
        if spec.phases[0].construct:
            # The paper's parallel construction, run to its end state
            # before the first event: this backend has no wire to run
            # it over.
            self.network = build_overlay(
                peer_keys,
                config=ConstructionConfig(n_min=spec.n_min, d_max=spec.d_max),
                rng=build_rng,
                max_refs=spec.max_refs,
            )
        else:
            # The ideal (Algorithm 1) overlay; the message backend spawns
            # its nodes from the same two steps (see PGridNetwork.ideal).
            self.network = PGridNetwork.ideal(
                [k for keys in peer_keys for k in keys],
                spec.n_peers,
                d_max=spec.d_max,
                n_min=spec.n_min,
                max_refs=spec.max_refs,
                rng=build_rng,
            )
        cache = self._cache
        if cache is not None and cache.enabled:
            self._dp_cache = ResultCache(cache.result_ttl_s, RESULT_CAPACITY)

    def _population(self):
        return self.network.peers

    def _depart(self, pid: int) -> None:
        self.network.peers[pid].online = False

    def _churn_toggle(self, pid: int, tally: _Tally) -> Callable[[bool], None]:
        peer = self.network.peers[pid]

        def toggle(online: bool) -> None:
            peer.online = online
            tally.churn_transitions += 1

        return toggle

    def _join(self, pid: int, keys: List[int], rng, tally: _Tally) -> bool:
        spec = self.spec
        try:
            stats = sequential_join(
                self.network,
                pid,
                keys,
                d_max=spec.d_max,
                n_min=spec.n_min,
                rng=self._route_rng,
                max_refs=spec.max_refs,
            )
        except RoutingError:
            return False
        tally.record_maintenance(
            self.simulator.now,
            messages=stats.messages,
            size=stats.messages * HEADER_BYTES,
        )
        return True

    def _run_maintenance(self, tally: _Tally, rng) -> None:
        repaired = repair_routes(self.network, rng=rng)
        moved = anti_entropy_sweep(self.network, rounds=1, rng=rng)
        tally.repairs += repaired
        tally.keys_moved += moved
        tally.record_maintenance(
            self.simulator.now,
            messages=repaired,
            size=repaired * HEADER_BYTES + moved * KEY_BYTES,
        )

    def _set_partitions(self, groups: List[List[int]]) -> None:
        # No per-link transport on this backend: approximate the cut
        # from the majority region's viewpoint by taking every minority
        # peer offline for the phase (a correlated departure wave with a
        # guaranteed return at the heal).
        cut: List[int] = []
        for group in groups[1:]:
            for pid in group:
                peer = self.network.peers.get(pid)
                if peer is not None and peer.online:
                    peer.online = False
                    cut.append(pid)
        self._partition_cut = cut

    def _heal_partitions(self) -> None:
        for pid in self._partition_cut:
            peer = self.network.peers.get(pid)
            if peer is not None:
                peer.online = True
        self._partition_cut = []

    # -- query execution (synchronous) -------------------------------------

    def _run_one_query(
        self, tally: _Tally, phase: Phase, idx: int, sampler: QuerySampler, rng
    ) -> None:
        net = self.network
        sim = self.simulator
        route_rng = self._route_rng
        attempts = 1 + self.spec.query_retries
        kind = sampler.draw_kind(rng)
        if kind == POINT:
            key = sampler.draw_point_key(rng)
            if self._dp_cache is not None:
                cached = self._dp_cache.get(key, sim.now)
                if cached is not None:
                    # Served from the front-end cache: no routing, no
                    # per-peer load.  Audited against the authoritative
                    # key view exactly like a node-side hit.
                    self._dp_stats["result_hits"] += 1
                    self._audit_cache_hit(-1, key, cached)
                    tally.record_query(
                        sim.now, idx, kind=kind, success=True, hops=0, messages=0
                    )
                    return
                self._dp_stats["result_misses"] += 1
            hops = messages = size = 0
            success = False
            for _ in range(attempts):
                try:
                    res = net.lookup(key, rng=route_rng)
                except RoutingError:
                    # Whole population offline: the query cannot start.
                    break
                messages += res.hops
                size += res.hops * HEADER_BYTES
                for pid in res.visited:
                    tally.load[pid] += 1
                if res.found:
                    success = True
                    hops = res.hops  # hops of the successful attempt
                    if self._dp_cache is not None:
                        self._dp_cache.put(key, res.value_present, sim.now)
                    break
            tally.record_query(
                sim.now,
                idx,
                kind=kind,
                success=success,
                hops=hops,
                messages=messages,
                size=size,
            )
        else:
            # A box is one range over its z-span that carries the box
            # (see repro.pgrid.mdim); its results are audited against
            # the brute-force oracle.
            lo, hi, box, oracle = self._draw_range(sampler, rng)
            messages = size = 0
            success = False
            found: Set[int] = set()
            partitions = set()
            for _ in range(attempts):
                try:
                    res = net.range_query(lo, hi, rng=route_rng, box=box)
                except RoutingError:
                    break
                messages += res.messages
                size += res.messages * HEADER_BYTES + len(res.keys) * KEY_BYTES
                if oracle is not None:
                    found |= res.keys
                    partitions |= res.partitions
                if res.complete:
                    success = True
                    break
            self._tally_range(
                sim.now, idx, oracle=oracle, found_keys=found,
                success=success, messages=messages, partitions=len(partitions),
                size=size,
            )

    # -- write execution (synchronous) --------------------------------------

    def _run_one_write(
        self, tally: _Tally, phase: Phase, idx: int, op: str, key: int, rng
    ) -> None:
        """Route one mutation on the data plane.

        An ``update`` is an idempotent re-insert (the index stores bare
        keys); byte model: every routed hop and every replica fan-out
        message carries the key (``HEADER_BYTES + KEY_BYTES``).
        """
        net = self.network
        sim = self.simulator
        attempts = 1 + self.spec.query_retries
        messages = size = 0
        success = False
        write = net.delete if op == "delete" else net.insert
        for _ in range(attempts):
            try:
                res = write(key, rng=self._route_rng)
            except RoutingError:
                break  # whole population offline: the write cannot start
            sent = res.hops + res.replicas_written
            messages += sent
            size += sent * (HEADER_BYTES + KEY_BYTES)
            for pid in res.visited:
                tally.load[pid] += 1
            if res.found:
                success = True
                break
        if success:
            self._note_acked_write(op, key)
            if self._dp_cache is not None and self._dp_cache.invalidate(key):
                self._dp_stats["invalidations"] += 1
        tally.record_write(
            sim.now, idx, op=op, success=success, messages=messages, size=size
        )

    # -- durability / restart hooks -----------------------------------------

    def _checkpoint_all(self, tally: _Tally) -> None:
        net = self.network
        now = self.simulator.now
        store = self._state_store
        for pid in sorted(net.peers):
            if net.peers[pid].online:
                store.put(pid, net.checkpoint_peer(pid, now))

    def _restart_shutdown(self, pid: int, crash: bool, tally: _Tally) -> bool:
        peer = self.network.peers.get(pid)
        if peer is None or not peer.online:
            return False
        if not crash and self._durability.enabled:
            # Clean shutdown: exact checkpoint at the shutdown instant.
            # A crash keeps only the last periodic checkpoint (stale by
            # up to snapshot_interval_s) -- that gap IS the crash model.
            self._state_store.put(
                pid, self.network.checkpoint_peer(pid, self.simulator.now)
            )
        peer.online = False
        return True

    def _restart_return(self, pid: int, tally: _Tally) -> str:
        net = self.network
        snapshot = (
            self._state_store.get(pid) if self._durability.enabled else None
        )
        if snapshot is not None:
            # Warm rejoin: resume from disk, reconcile the delta through
            # the ordinary maintenance sweeps; restored routing refs are
            # re-validated by the next oracle repair pass (the data
            # plane's liveness hand-off).  One rejoin announce on the
            # wire.
            peer = net.restore_peer(pid, snapshot)
            peer.online = True
            tally.record_maintenance(
                self.simulator.now, messages=1, size=HEADER_BYTES
            )
            return "warm"
        # Cold rejoin: durable state is gone.  The peer re-enters at its
        # remembered position (the overlay's replica sets still carry
        # its id; moving it would break the data plane's synchronous
        # search invariants) but with its stores wiped -- the locally
        # held index fragment, tombstone clocks and routing refs did not
        # survive the restart.  It rebuilds its reference table by
        # asking an online structural replica and re-learns the
        # partition's entire content through ordinary anti-entropy
        # sweeps: until the next sweep reaches it, the replica serves
        # nothing -- the pre-persistence baseline a warm rejoin is
        # measured against.
        peer = net.peers.get(pid)
        if peer is None:
            return "cold"
        rng = self._restart_rng
        peer.keys = []
        peer.tombstones.clear()
        peer.online = True
        messages = 1  # the rejoin announce
        size = HEADER_BYTES
        replicas = [
            net.peers[other]
            for other in sorted(peer.replicas)
            if other != pid
            and other in net.peers
            and net.peers[other].online
            and net.peers[other].path == peer.path
        ]
        if replicas:
            # One bootstrap exchange: copy a live replica's reference
            # table (the cold peer's own refs did not survive the wipe).
            source = replicas[rng.randrange(len(replicas))]
            routing = RoutingTable(max_refs_per_level=self.spec.max_refs)
            for level, refs in sorted(source.routing.levels.items()):
                for ref in refs:
                    routing.add(level, ref)
            peer.routing = routing
            refs_copied = sum(
                len(refs) for refs in source.routing.levels.values()
            )
            messages += 1
            size += HEADER_BYTES + refs_copied * KEY_BYTES
        tally.record_maintenance(self.simulator.now, messages=messages, size=size)
        return "cold"

    def _durable_key_view(self):
        present: Set[int] = set()
        tombstones: Set[int] = set()
        for pid in sorted(self.network.peers):
            peer = self.network.peers[pid]
            present.update(peer.keys)
            tombstones.update(peer.tombstones)
        return present, tombstones

    # -- assembly hooks ----------------------------------------------------

    def _serving_counters(self) -> Dict[str, int]:
        """Front-end cache counters; dedup/route/grant counters stay
        zero on this backend (queries are synchronous -- there is no
        in-flight concurrency and no wire, see ``_dp_cache``)."""
        return dict(self._dp_stats)

    def _load_by_peer(self, tally: _Tally) -> List[int]:
        return [tally.load.get(pid, 0) for pid in sorted(self.network.peers)]
