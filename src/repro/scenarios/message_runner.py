"""The message-level scenario backend: every query pays wire latency.

:class:`MessageScenarioRunner` executes the *same*
:class:`~repro.scenarios.spec.ScenarioSpec` phases as the data-plane
:class:`~repro.scenarios.runner.ScenarioRunner` (shared compiler in
:mod:`repro.scenarios.base`), but over
:class:`~repro.simnet.node.PGridNode` protocol nodes communicating
through :class:`~repro.simnet.transport.Network` -- with configurable
(per-link) latency distributions, message loss, timeouts and retries.
This is the backend for the paper's Sec. 5 questions: hop counts alone
hide the latency/loss behavior that dominates real overlay performance.

How phases compile here
-----------------------
* **Queries** become :meth:`~repro.simnet.node.PGridNode.issue_query` /
  :meth:`~repro.simnet.node.PGridNode.issue_range_query` calls from a
  random online origin; outcomes arrive asynchronously via the node
  observer callbacks and are tallied at their *issue* time (same
  binning semantics as the data-plane backend).
* **Churn** toggles :meth:`~repro.simnet.node.PGridNode.set_online`
  through the shared :func:`~repro.simnet.churn.start_churn`
  orchestration -- offline nodes drop every message.
* **Joins** are sponsored: the newcomer clones a random online
  sponsor's partition position (path/routing/replica beliefs) and ships
  its sampled keys over the wire in a ``store`` message; keys outside
  its partition travel via the protocol's outbox piggy-backing.  Other
  replicas learn about the newcomer through ordinary anti-entropy
  exchanges, never by fiat.
* **Maintenance** ticks make a fixed fraction of online nodes
  (:data:`MAINTENANCE_FRACTION`) initiate one protocol exchange, with
  the partner each picks from its own beliefs
  (:meth:`~repro.simnet.node.PGridNode.exchange_partner`), so repair
  traffic is real messages, unlike the data-plane backend's nominal
  byte model.  Route repair is the nodes' own: each phase hands its
  ``maintenance_interval_s`` to every node as it starts, and a node
  sweeps that long after a strike or restart and refills an emptied
  level at once (:mod:`repro.simnet.node`, "repair").

The overlay starts as the ideal overlay the data-plane backend
starts from.  The nodes are spawned straight from the two steps
:meth:`~repro.pgrid.network.PGridNetwork.ideal` takes over the same keys
and build stream -- Algorithm 1's layout
(:func:`~repro.pgrid.network.ideal_layout`) and the reference draw
(:func:`~repro.pgrid.network.draw_references`) -- so no
:class:`~repro.pgrid.network.PGridNetwork` is built and copied first.
A first phase with ``construct`` set starts from nothing instead and
runs the paper's Sec. 5 timeline over the wire (:data:`JOIN_END`).

Determinism: the backend derives two extra RNG streams (transport,
per-node seeds) *after* the six shared ones, and all bookkeeping uses
sorted iteration -- same spec + seed reproduces a byte-identical
report, golden-trace tested like the data-plane backend.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from .._util import make_rng, mean, sample_online
from ..exceptions import SimulationError
from ..pgrid.network import PGridNetwork, draw_references, ideal_layout
from ..pgrid.peer import PGridPeer
from ..pgrid.state import DurabilityPolicy
from ..pgrid.routing import RoutingTable
from ..pgrid.serving import COUNTERS
from ..simnet import protocol as P
from ..simnet.node import NodeConfig, PGridNode, QueryOutcome
from ..simnet.topology import UnstructuredOverlay
from ..simnet.transport import LatencyModel, LogNormalLatency, Network
from ..workloads.queries import POINT, QuerySampler
from .base import ScenarioRunnerBase, _Tally
from .spec import Phase, ScenarioSpec

__all__ = [
    "MessageNetConfig",
    "MessageScenarioRunner",
]

#: Origin-side timeout of one query or write attempt before a retry
#: (retries come from ``ScenarioSpec.query_retries``, shared with the
#: data plane).  After the last phase the run drains for one full
#: ``(retries + 1)`` window of it, so every issued operation resolves.
QUERY_TIMEOUT_S = 30.0
#: Fraction of online nodes initiating one anti-entropy exchange per
#: maintenance tick: sampled anti-entropy only, since each node repairs
#: its own routes.
MAINTENANCE_FRACTION = 0.05
#: A construct phase's timeline, as fractions of the phase (the paper's
#: 300 minutes): every peer but the bootstrap, node 0, joins at a
#: uniform instant before ``JOIN_END``, replicates its keys at one
#: before ``REPLICATE_END``, and from then to the phase end the nodes
#: run the Fig. 2 interactions.
JOIN_END = 75 / 300
REPLICATE_END = 100 / 300
#: Seconds after which a peer asks the bootstrap to join again, until
#: the reply has arrived.
JOIN_RETRY_S = 45.0


@dataclass
class MessageNetConfig:
    """Wire-level knobs of the message backend (times in seconds).

    The defaults mirror the Sec. 5 experiment driver: heavy-tailed
    PlanetLab-ish latency (log-normal, 120ms median) and 1% uniform
    loss.  Swap ``latency`` for a
    :class:`~repro.simnet.transport.PerLinkLatency` to give every link
    its own characteristic delay, or a
    :class:`~repro.simnet.transport.ConstantLatency` for analytically
    predictable tests.  The query timeout and the maintenance fraction
    are not knobs: :data:`QUERY_TIMEOUT_S`, :data:`MAINTENANCE_FRACTION`.
    """

    latency: LatencyModel = field(
        default_factory=lambda: LogNormalLatency(median=0.12)
    )
    loss_rate: float = 0.01
    #: Persistence & crash model
    #: (:class:`~repro.pgrid.state.DurabilityPolicy`): with durability
    #: enabled, restart phases checkpoint node state periodically and
    #: restarted nodes warm-rejoin from their last snapshot;
    #: ``DurabilityPolicy(enabled=False)`` is the cold-rejoin baseline
    #: (every restarted node re-enters via a sponsored join).
    durability: DurabilityPolicy = field(default_factory=DurabilityPolicy)


class MessageScenarioRunner(ScenarioRunnerBase):
    """Executes one :class:`ScenarioSpec` over message-passing nodes.

    After :meth:`run`, ``self.nodes`` (id -> :class:`PGridNode`),
    ``self.transport`` and ``self.stats`` stay available for
    inspection; :meth:`as_network` converts the final node states into
    a :class:`~repro.pgrid.network.PGridNetwork` so the structural
    invariant checks of :mod:`repro.scenarios.invariants` apply to this
    backend too.
    """

    backend = "message"

    def __init__(self, spec: ScenarioSpec, *, net_config: Optional[MessageNetConfig] = None):
        cfg = net_config or MessageNetConfig()
        super().__init__(spec, durability=cfg.durability)
        self.net_config = cfg
        self.nodes: Dict[int, PGridNode] = {}
        self.transport: Optional[Network] = None
        self._node_tuple: Optional[Tuple[PGridNode, ...]] = None
        #: Query-origin gateway tier (``CachePolicy.front_ends``);
        #: ``None`` = unrestricted random origins.
        self._gateways: Optional[Tuple[PGridNode, ...]] = None
        # point qid -> phase index
        self._meta: Dict[int, int] = {}
        # range qid -> (phase index, box oracle or None)
        self._rmeta: Dict[int, Tuple[int, Optional[Set[int]]]] = {}
        # wid -> (phase index, write op, key); the key rides along so
        # write acks can feed the durability audit.
        self._wmeta: Dict[int, Tuple[int, str, int]] = {}
        self._point_latencies: List[float] = []
        self._range_latencies: List[float] = []
        self._timeouts = 0
        self._retries = 0
        self._moot = 0
        self._write_timeouts = 0
        self._write_retries = 0
        self._moot_writes = 0

    # -- lifecycle hooks ---------------------------------------------------

    def _derive_extra_streams(self, master) -> None:
        # Appended after the six shared streams (determinism contract).
        self._transport_rng = make_rng(master.randrange(2**31))
        self._node_seed_rng = make_rng(master.randrange(2**31))

    def _setup(self, peer_keys, build_rng) -> None:
        spec, cfg, sim = self.spec, self.net_config, self.simulator
        # Each phase hands its maintenance interval to the nodes: the
        # first at spawn, a later one as it starts, before the phase's
        # own start event (whose joiners take it at spawn).
        self._repair_interval = spec.phases[0].maintenance_interval_s
        for phase, (start, _) in list(zip(spec.phases, spec.boundaries()))[1:]:
            sim.schedule(start, partial(self._hand_interval, phase.maintenance_interval_s))
        # The transport writes every wire byte into the run's ledger.
        self.transport = Network(
            sim,
            latency=cfg.latency,
            loss_rate=cfg.loss_rate,
            rng=self._transport_rng,
            stats=self.stats,
        )
        self._node_config = NodeConfig(
            n_min=spec.n_min,
            d_max=spec.d_max,
            query_timeout=QUERY_TIMEOUT_S,
            query_retries=spec.query_retries,
            max_refs_per_level=spec.max_refs,
            # A spec-provisioned TTL (restart scenarios stretch it to
            # cover their reconciliation horizon), else the node default.
            tombstone_ttl_s=(
                NodeConfig.tombstone_ttl_s
                if spec.tombstone_ttl_s is None
                else spec.tombstone_ttl_s
            ),
            # The serving front end rides the spec (like the durability
            # policy rides the net config); enabled=False keeps node
            # behaviour identical to no policy at all.
            serving=spec.cache,
        )
        # Every node reports to the same four bound methods.
        self._observers = (
            self._query_done, self._range_done, self._write_done, self._audit_cache_hit
        )
        if spec.phases[0].construct:
            self._construct(peer_keys, build_rng)
        else:
            self._spawn_ideal(peer_keys, build_rng)
        cache = spec.cache
        if cache is not None and cache.front_ends > 0:
            # Gateway tier: queries enter through a fixed, evenly spaced
            # subset of the initial population (the deployment shape the
            # serving layer models).  Installed for enabled=False runs
            # too, so the cache on/off A/B differs only in the cache
            # machinery, never in where queries originate.
            pids = sorted(self.nodes)
            count = min(cache.front_ends, len(pids))
            step = len(pids) / count
            self._gateways = tuple(
                self.nodes[pids[int(i * step)]] for i in range(count)
            )
        if cache is not None and cache.enabled:
            # The decay-window heartbeat of adaptive replication: every
            # node examines its served-query counter and grants/revokes
            # helper replicas.  Runner-driven (sorted ids) so the event
            # order is deterministic; only scheduled with the cache on,
            # so cache-off event streams stay bit-identical.
            interval = cache.decay_interval_s

            def serving_tick() -> None:
                for pid in sorted(self.nodes):
                    self.nodes[pid].serving_tick()
                if sim.now + interval <= spec.duration_s:
                    sim.schedule(interval, serving_tick)

            sim.schedule(interval, serving_tick)

    def _spawn_ideal(self, peer_keys, build_rng) -> None:
        """The ideal overlay, spawned straight into nodes: Algorithm 1's
        layout and the reference draw, the two steps PGridNetwork.ideal
        takes over the same keys and build stream.  Ids count up from 0
        in key order, and each leaf's nodes are each other's replicas."""
        spec = self.spec
        layout = ideal_layout(
            [k for keys in peer_keys for k in keys],
            spec.n_peers,
            d_max=spec.d_max,
            n_min=spec.n_min,
        )
        paths = [path for path, _, count in layout for _ in range(count)]
        drawn = draw_references(
            list(enumerate(paths)), rng=build_rng, max_refs=spec.max_refs
        )
        first = 0
        for path, leaf_keys, count in layout:
            ids = range(first, first + count)
            group = set(ids)
            # One immutable key set per leaf, shared by its replicas; each
            # node's own ``keys`` is its own set.
            original = frozenset(leaf_keys)
            for pid in ids:
                node = self._spawn_node(pid)
                node.path = path
                node.keys = set(leaf_keys)
                node.original_keys = original
                node.replicas = group - {pid}
                # The table is fresh, so it takes the drawn levels as
                # they are, without a copy, and its references' paths
                # from the blueprint.
                node.liveness.bootstrap(drawn[pid], paths)
            first = ids.stop

    def _construct(self, peer_keys, rng) -> None:
        """A construct phase (:data:`JOIN_END`): node 0 bootstraps the
        unstructured overlay, and each peer is spawned with its own drawn
        keys at the instant it asks to join.  A peer counts in the
        population from then on, so the report's ``online`` series is
        the paper's Fig. 7 ramp."""
        sim, spec = self.simulator, self.spec
        span = spec.phases[0].duration_s
        overlay = UnstructuredOverlay()
        overlay.join(0, rng=rng)

        def join(pid: int) -> None:
            node = self._spawn_node(pid)
            node.original_keys = frozenset(peer_keys[pid])
            node.keys = set(node.original_keys)
            if pid == 0:
                node.overlay = overlay
            else:
                node.joined = False
                knock(node)

        def knock(node: PGridNode) -> None:
            if not node.joined:
                node.send(0, P.JOIN, {"overlay": overlay})
                sim.schedule(JOIN_RETRY_S, partial(knock, node))

        def replicate(pid: int) -> None:
            self.nodes[pid].replicate_keys(spec.n_min - 1)

        def start() -> None:
            for pid in sorted(self.nodes):
                self.nodes[pid].start_constructing()

        def stop() -> None:
            for node in self.nodes.values():
                node.constructing = False

        join(0)
        for pid in range(1, len(peer_keys)):
            sim.schedule(rng.uniform(0.0, JOIN_END * span), partial(join, pid))
        for pid in range(len(peer_keys)):
            sim.schedule(
                rng.uniform(JOIN_END * span, REPLICATE_END * span),
                partial(replicate, pid),
            )
        sim.schedule(REPLICATE_END * span, start)
        sim.schedule(span, stop)

    def _spawn_node(self, pid: int) -> PGridNode:
        node = PGridNode(
            pid,
            self.simulator,
            self.transport,
            config=self._node_config,
            rng=make_rng(self._node_seed_rng.randrange(2**31)),
        )
        node.joined = True
        node.liveness.repair_interval = self._repair_interval
        (
            node.on_query_done, node.on_range_done, node.on_write_done, node.on_cache_hit
        ) = self._observers
        self.nodes[pid] = node
        self._node_tuple = None
        return node

    def _hand_interval(self, interval: Optional[float]) -> None:
        self._repair_interval = interval
        for node in self.nodes.values():
            node.liveness.repair_interval = interval

    def _population(self):
        return self.nodes

    def _depart(self, pid: int) -> None:
        self.nodes[pid].set_online(False)

    def _churn_toggle(self, pid: int, tally: _Tally) -> Callable[[bool], None]:
        node = self.nodes[pid]

        def toggle(online: bool) -> None:
            node.set_online(online)
            tally.churn_transitions += 1

        return toggle

    def _join(self, pid: int, keys: List[int], rng, tally: _Tally) -> bool:
        """Sponsored join: clone a random online sponsor's position and
        ship the newcomer's keys over the wire."""
        sponsor = self._random_online_node(rng)
        if sponsor is None:
            return False
        self._place_at(self._spawn_node(pid), sponsor, keys)
        return True

    @staticmethod
    def _place_at(node: PGridNode, sponsor: PGridNode, keys: List[int]) -> None:
        """The sponsored placement of a join or a cold rejoin."""
        node.path = sponsor.path
        node.liveness.adopt(sponsor.liveness)
        node.replicas = set(sponsor.replicas) | {sponsor.node_id}
        node.original_keys = set(keys)
        node.keys = {k for k in keys if node.responsible_for(k)}
        node.outbox = set(keys) - node.keys
        # The one wire interaction of the join: hand the sponsor our key
        # sample; its store handler keeps what belongs to the partition
        # and outboxes the rest toward the responsible owners.
        node.send(
            sponsor.node_id,
            P.STORE,
            {"keys": sorted(keys)},
            n_keys=len(keys),
        )
        node.refill_routes()  # the sponsor's table may have an empty level

    # -- persistence & recovery (pgrid.state) --------------------------------

    def _checkpoint_all(self, tally: _Tally) -> None:
        store = self._state_store
        for pid in sorted(self.nodes):
            node = self.nodes[pid]
            if node.online:
                store.put(pid, node.snapshot_state())

    def _restart_shutdown(self, pid: int, crash: bool, tally: _Tally) -> bool:
        node = self.nodes.get(pid)
        if node is None or not node.online:
            return False
        if not crash and self._durability.enabled:
            # Clean shutdown flushes state at the shutdown instant; a
            # crash keeps only the last *periodic* checkpoint, losing
            # up to SNAPSHOT_INTERVAL_S of acknowledged progress.
            self._state_store.put(pid, node.snapshot_state())
        node.abort_inflight()
        node.set_online(False)
        return True

    def _restart_return(self, pid: int, tally: _Tally) -> str:
        node = self.nodes[pid]
        if self._durability.enabled:
            snapshot = self._state_store.get(pid)
            if snapshot is not None:
                node.restore_state(snapshot)
                node.set_online(True, warm=True)
                return "warm"
        # Cold rejoin: durable state is gone, so the node re-enters
        # exactly like a sponsored join (see _join), keeping only its
        # identity and original workload keys.
        sponsor = self._random_online_node(self._restart_rng)
        node.set_online(True)
        node.lose_state()
        if sponsor is None:
            # Nobody online to sponsor: come back in place and let
            # anti-entropy reconcile whatever state survived in RAM.
            return "cold"
        self._place_at(node, sponsor, sorted(node.original_keys))
        return "cold"

    def _durable_key_view(self) -> Tuple[Set[int], Set[int]]:
        present: Set[int] = set()
        live_tombstones: Set[int] = set()
        now = self.simulator.now
        for pid in sorted(self.nodes):
            node = self.nodes[pid]
            # The node's own (possibly spec-provisioned) TTL decides
            # liveness -- the audit must agree with _prune_tombstones.
            ttl = node.config.tombstone_ttl_s
            present |= node.keys
            present |= node.outbox
            for key in node.tombstones:
                born = node._tombstone_born.get(key)
                if born is None or now - born < ttl:
                    live_tombstones.add(key)
        return present, live_tombstones

    def _run_maintenance(self, tally: _Tally, rng) -> None:
        online = [pid for pid, node in sorted(self.nodes.items()) if node.online]
        if len(online) < 2:
            return
        count = max(1, int(round(MAINTENANCE_FRACTION * len(online))))
        for pid in sorted(rng.sample(online, min(count, len(online)))):
            node = self.nodes[pid]
            partner = node.exchange_partner(rng)
            if partner is not None:
                node.initiate_exchange(partner)
                # For this backend "repairs" counts initiated anti-entropy
                # exchanges (with the nodes' own refills, added at the
                # end); bytes are accounted by the transport, not here.
                tally.repairs += 1

    def _set_partitions(self, groups: List[List[int]]) -> None:
        # A real cut: the transport refuses messages crossing region
        # boundaries at send time, which the nodes' liveness tracking
        # observes as failure evidence (see PGridNode.send).
        self.transport.set_partitions(groups)

    def _heal_partitions(self) -> None:
        self.transport.heal_partitions()

    def _sample_state(self):
        # The base sweep, hand-inlined into one pass: every aggregate is
        # order-independent (integer sums are exact, and the mean of
        # per-group live counts is online / n_groups).  Runs per sample
        # tick over every node; groups are keyed by C-hashed
        # (length, bits) int pairs, not Path objects.
        live_by_path: Dict[Tuple[int, int], int] = {}
        get = live_by_path.get
        online = 0
        for node in self.nodes.values():
            path = node.path
            key = (path.length, path.bits)
            if node.online:
                online += 1
                live_by_path[key] = get(key, 0) + 1
            elif key not in live_by_path:
                live_by_path[key] = 0
        n_groups = len(live_by_path)
        if not n_groups:
            return 0, 0.0, 0.0
        groups_alive = sum(1 for v in live_by_path.values() if v)
        return online, groups_alive / n_groups, online / n_groups

    # -- query issuance (asynchronous) -------------------------------------

    def _random_online_node(self, rng) -> Optional[PGridNode]:
        nodes = self._node_tuple
        if nodes is None or len(nodes) != len(self.nodes):
            nodes = tuple(self.nodes[pid] for pid in sorted(self.nodes))
            self._node_tuple = nodes
        return sample_online(nodes, lambda node: node.online, rng)

    def _query_origin(self, rng) -> Optional[PGridNode]:
        """Where the next query enters: a random online gateway when a
        front-end tier is configured, else any random online node."""
        if self._gateways is not None:
            return sample_online(self._gateways, lambda node: node.online, rng)
        return self._random_online_node(rng)

    def _run_one_query(
        self, tally: _Tally, phase: Phase, idx: int, sampler: QuerySampler, rng
    ) -> None:
        now = self.simulator.now
        if sampler.draw_kind(rng) == POINT:
            key = sampler.draw_point_key(rng)
            origin = self._query_origin(rng)
            if origin is None:
                tally.record_query(
                    now, idx, kind=POINT, success=False, hops=0, messages=0
                )
                return
            self._meta[origin.issue_query(key)] = idx
            return
        # A box is one range over its z-span that carries the box (see
        # repro.pgrid.mdim).
        lo, hi, box, oracle = self._draw_range(sampler, rng)
        origin = self._query_origin(rng)
        if origin is None:
            self._tally_range(
                now, idx, oracle=oracle, found_keys=(), success=False, messages=0
            )
            return
        self._rmeta[origin.issue_range_query(lo, hi, box)] = (idx, oracle)

    def _query_done(self, node_id: int, qid: int, outcome: QueryOutcome) -> None:
        idx = self._meta.pop(qid, None)
        if idx is None:
            return
        self._observe(outcome)
        if outcome.moot:
            # The *origin* churned offline: the overlay never failed the
            # query and it could never be answered, so it stays out of
            # the success statistics (mirroring the node-level stats);
            # visible in message_level["moot_queries"].
            return
        if outcome.success:
            self._point_latencies.append(outcome.latency)
        self._tally.record_query(
            outcome.issued_at,
            idx,
            kind=POINT,
            success=outcome.success,
            hops=outcome.hops,
            messages=outcome.messages,
        )

    def _range_done(self, node_id: int, qid: int, outcome: QueryOutcome) -> None:
        """Tally one range or box outcome as a single RANGE record; a
        moot one is tallied nowhere (see _query_done)."""
        meta = self._rmeta.pop(qid, None)
        if meta is None:
            return
        self._observe(outcome)
        if outcome.moot:
            return
        if outcome.success:
            self._range_latencies.append(outcome.latency)
        idx, oracle = meta
        self._tally_range(
            outcome.issued_at, idx, oracle=oracle, found_keys=outcome.found_keys,
            success=outcome.success, messages=outcome.messages,
            partitions=outcome.partitions,
        )

    def _observe(self, outcome: QueryOutcome) -> None:
        self._retries += max(outcome.attempts - 1, 0)
        self._timeouts += outcome.timeouts
        if outcome.moot:
            self._moot += 1

    # -- write issuance (asynchronous) --------------------------------------

    def _run_one_write(
        self, tally: _Tally, phase: Phase, idx: int, op: str, key: int, rng
    ) -> None:
        """Put one mutation on the wire from a random online origin.

        An ``update`` travels as an insert of the existing key (the
        index stores bare keys, so an update is an idempotent
        overwrite); the op label is kept for the report's counters.
        """
        origin = self._random_online_node(rng)
        if origin is None:
            tally.record_write(
                self.simulator.now, idx, op=op, success=False, messages=0
            )
            return
        if op == "delete":
            wid = origin.issue_delete(key)
        else:
            wid = origin.issue_insert(key)
        self._wmeta[wid] = (idx, op, key)

    def _write_done(self, node_id: int, wid: int, outcome: QueryOutcome) -> None:
        meta = self._wmeta.pop(wid, None)
        if meta is None:
            return
        idx, op, key = meta
        self._write_retries += max(outcome.attempts - 1, 0)
        self._write_timeouts += outcome.timeouts
        if outcome.moot:
            # The origin churned offline mid-write: not an overlay
            # failure (see _query_done); visible in the writes section.
            self._moot_writes += 1
            return
        if outcome.success:
            self._note_acked_write(op, key)
        self._tally.record_write(
            outcome.issued_at,
            idx,
            op=op,
            success=outcome.success,
            messages=outcome.messages,
        )

    # -- run wiring --------------------------------------------------------

    def _finish(self, tally: _Tally) -> None:
        self._hand_interval(None)  # the drain is no phase: no node repair
        # Let in-flight queries resolve: every pending query is bounded
        # by (retries + 1) timeout windows.  All phase generators have
        # stopped (they check phase end), so only completions run.
        drain = QUERY_TIMEOUT_S * (self.spec.query_retries + 1) + 1.0
        self.simulator.run_until(
            self.spec.duration_s + drain, max_events=self.MAX_EVENTS
        )
        # The drain covers the longest an operation can stay pending, so
        # each one has reached its observer and been tallied exactly
        # once.  A leftover is a bug in the pending-operation machine,
        # not a failure to count.
        if self._meta or self._rmeta or self._wmeta:
            raise SimulationError(
                f"{len(self._meta)} queries, {len(self._rmeta)} ranges and "
                f"{len(self._wmeta)} writes still pending after the drain"
            )
        # What the observers added up per operation is the origin's
        # estimate; the report's message total is the transport's count.
        tally.messages = self.transport.messages_sent
        tally.repairs += sum(node.liveness.refills for node in self.nodes.values())

    # -- assembly hooks ----------------------------------------------------

    def _load_by_peer(self, tally: _Tally) -> List[int]:
        delivered = self.transport.delivered
        return [delivered.get(pid, 0) for pid in sorted(self.nodes)]

    def _message_section(self) -> dict:
        transport = self.transport
        by_kind = transport.by_kind
        cfg = self.net_config
        trackers = [self.nodes[pid].liveness for pid in sorted(self.nodes)]
        # What the probe budget leaves behind, audited from ground truth
        # over the online nodes' tables: references to offline or
        # departed nodes, and levels of a node's path with no live
        # reference (keys behind them are unreachable from that node).
        online = {pid for pid, node in self.nodes.items() if node.online}
        dead_refs = dark_levels = 0
        for pid in online:
            node = self.nodes[pid]
            dead, dark = node.liveness.audit(online, node.path.length)
            dead_refs += dead
            dark_levels += dark
        repair = {
            "suspects": sum(t.suspects for t in trackers),
            "probes": sum(t.probes for t in trackers),
            "evictions": sum(t.evictions for t in trackers),
            "replacements": sum(t.replacements for t in trackers),
            # Ping/pong and gossip bytes; already folded into the
            # maintenance side of the Fig. 8 bandwidth split.
            "repair_bytes": sum(t.repair_bytes for t in trackers),
            "dead_refs_final": dead_refs,
            "dark_levels_final": dark_levels,
        }
        section = {
            "repair": repair,
            "latency_s": _latency_stats(self._point_latencies),
            "range_latency_s": _latency_stats(self._range_latencies),
            "timeouts": self._timeouts,
            "retries": self._retries,
            "moot_queries": self._moot,
            "messages_sent": transport.messages_sent,
            # Messages and bytes offered per kind, every declared kind
            # (a fixed schema: zeros included).
            "by_kind": {
                kind: dict(zip(("messages", "bytes"), by_kind.get(kind, (0, 0))))
                for kind in P.CATEGORY
            },
            "messages_dropped": transport.messages_dropped,
            "drops": {
                "offline": transport.drops_offline,
                "loss": transport.drops_loss,
                "partition": transport.drops_partition,
            },
            "inflight_peak": transport.inflight_peak,
            "links": _link_summary(transport.link_bytes),
            "config": {
                "latency_model": type(cfg.latency).__name__,
                "loss_rate": cfg.loss_rate,
                "query_timeout_s": QUERY_TIMEOUT_S,
                "maintenance_fraction": MAINTENANCE_FRACTION,
            },
        }
        if self._writes_active:
            # Only write-carrying scenarios grow the extra key: read-only
            # message-level goldens stay byte-identical.
            section["write_path"] = {
                "timeouts": self._write_timeouts,
                "retries": self._write_retries,
                "moot_writes": self._moot_writes,
            }
        return section

    def _serving_counters(self) -> Dict[str, int]:
        """Node-aggregated serving-layer counters (zeros when the cache
        is off -- the section still reports them for the A/B)."""
        totals = dict.fromkeys(COUNTERS + ("helpers_final",), 0)
        for node in self.nodes.values():
            serving = node.serving
            if serving is not None:
                for key, value in serving.stats.items():
                    totals[key] += value
                totals["helpers_final"] += len(serving.helpers)
        return totals

    def _serving_latency(self) -> dict:
        return _latency_stats(self._point_latencies)

    # -- inspection --------------------------------------------------------

    def as_network(self) -> PGridNetwork:
        """The final node states as a :class:`PGridNetwork`.

        Lets the structural invariant checks
        (:mod:`repro.scenarios.invariants`) audit the message-level end
        state exactly like the data-plane one.
        """
        net = PGridNetwork()
        for pid in sorted(self.nodes):
            node = self.nodes[pid]
            peer = PGridPeer(
                peer_id=pid,
                path=node.path,
                keys=sorted(node.keys),
                replicas=set(node.replicas),
                routing=RoutingTable(max_refs_per_level=self.spec.max_refs),
                online=node.online,
            )
            peer.routing.install(node.routing)
            net.peers[pid] = peer
        net._prune_dangling_routes()
        return net


def _latency_stats(samples: List[float]) -> dict:
    """Deterministic percentile summary of successful-query latencies.

    Nearest-rank percentiles: the q-quantile of n samples is the
    ``ceil(q * n)``-th order statistic.  (The previous
    ``int(q * n)`` index was biased one rank high -- p50 of two
    samples returned the larger, p50 of three the second-largest.)
    """
    if not samples:
        return {"count": 0}
    ordered = sorted(samples)
    n = len(ordered)

    def pct(q: float) -> float:
        return ordered[max(0, math.ceil(q * n) - 1)]

    return {
        "count": n,
        # A single-sample bin IS its own mean; skip the float summation
        # so the degenerate case cannot pick up rounding noise.
        "mean": ordered[0] if n == 1 else mean(ordered),
        "p50": pct(0.50),
        "p90": pct(0.90),
        "p99": pct(0.99),
        "p999": pct(0.999),
        "max": ordered[-1],
    }


def _link_summary(link_bytes: Dict[Tuple[int, int], int]) -> dict:
    """Links used, largest and mean byte count, and the five busiest
    links (ties by link).  Only links at or above the fifth-largest size
    are sorted: a whole table (~18,000 links) was most of a report's
    assembly.  Sizes are ints: the mean ignores summation order."""
    sizes = link_bytes.values()
    largest = heapq.nlargest(5, sizes)
    if not largest:
        return {"used": 0, "max_bytes": 0, "mean_bytes": 0.0, "top": []}
    fifth = largest[-1]
    top = sorted(
        [kv for kv in link_bytes.items() if kv[1] >= fifth],
        key=lambda kv: (-kv[1], kv[0]),
    )[:5]
    return {
        "used": len(link_bytes),
        "max_bytes": largest[0],
        "mean_bytes": sum(sizes) / len(sizes),
        "top": [[src, dst, size] for (src, dst), size in top],
    }
