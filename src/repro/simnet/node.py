"""A P-Grid peer as an asynchronous protocol node.

This is the message-passing counterpart of the round-based simulator in
:mod:`repro.core.construction`: both put the questions of the Fig. 2
interaction (split / decide / replicate / refer) to
:mod:`repro.core.fig2`, this one from counts over key sets, driven by
timers, subject to latency, loss and churn, and with every byte
accounted.  Optimistic concurrency handles in-flight races: an exchange
response that no longer matches the initiator's state is discarded, just
as a real implementation would abort a stale handshake.

**The pending-operation machine.**  Point queries, writes and range
queries share one origin-side retry machine (``_attempt`` /
``_op_timeout`` / ``_dead_end`` / ``_retry_or_fail`` / ``_finish``)
over a ``_PendingOp`` record; a kind adds only its ``_launch_*`` (first
payload of an attempt) and its outcome fields.  A record is *pending*
(in its kind's table, timer armed at the current attempt's deadline)
until ``_finish`` makes it *done* exactly once: table entry popped,
timer disarmed, observer fired, and -- unless ``moot`` because the
origin itself was offline or restarting -- the outcome appended to
``*_results``.  Only a terminal reply (``_complete_*``, the
``range_part`` completing the coverage), an exhausted
``_retry_or_fail`` (from a timeout or a dead-end report of the
*current* attempt) and ``abort_inflight`` may call ``_finish``; all
test ``done`` first, so duplicated replies and stale reports are
no-ops.  The first attempt is a zero-delay event scheduled by
``issue_*``, never a re-entrant call: an operation the origin can
answer itself would otherwise fire its observer before the caller
learned the id.  The timer callback holds the operation *id*
and looks the record up: a record -> timer -> callback -> record cycle
would leave every finished operation to the cyclic collector.

**Routing references.**  ``liveness`` is the node's
:class:`~repro.pgrid.liveness.ReferenceTable`: levels (``routing`` is
their view), per-reference beliefs, the refresh sweep.  The node does
what needs a path or a transport -- the level a key leaves through, the
``ping``s -- and tells the table what their connects said.  The
level is computed once per hop (:func:`~repro.pgrid.search.level_toward`,
:func:`~repro.pgrid.search.split_range` for a range) and handed to
``_relay``, which asks the table for a reference at it on every try.
Which one: on an operation's first attempt, the reference whose known
path best matches the key (a range piece's ``lo``); on a retry, a
uniform draw, so a retry can route around a best match that
dead-ends (numbers in :mod:`repro.pgrid.liveness`, "Which reference a
forward takes").  The paths come from the ``path`` a ``pong`` or an
exchange already carries (:meth:`ReferenceTable.note_path`): nothing
more is sent or billed.

**What a node holds.**  A scenario's population can reach tens of
thousands of nodes in one kernel, so bytes per node bound what it can
simulate.  The instance holds what a scenario node reads or writes:
identity, path, keys, replicas, references, tombstones, pending
operations and observers -- every attribute the per-message path reads
among them, since CPython 3.11 does not specialize a read that falls
through to the class.  State only the construction phase uses
(``overlay``, ``constructing``, ``idle_strikes``) is immutable class
defaults; the first write shadows one (``_strike`` writes the idle
count only while constructing).  The serving front end is one name,
``serving``: a :class:`~repro.pgrid.serving.ServingState` with the
policy enabled, else ``None``, which each hook point tests first.  The
budget is 29 instance attributes.  CPython 3.11 keeps an instance's
attributes in a compact array, sized when the instance is built for the
names its class has seen so far plus one; a name beyond the budget
moves the instance to a full dict (measured on 3.11.7: 328 B per
instance with 29 names, 1,647 B with 30).  A wire node, serving or
not, sets 29 names at spawn and writes no other -- the repair step's
interval and pending flag live on its reference table -- and a restore
writes a class-default flag only when it changes.  A node of a
construct phase (:attr:`repro.scenarios.spec.Phase.construct`) is the
exception: joining and constructing shadow ``overlay``, ``joined``,
``constructing`` and ``idle_strikes``, 32 names in all, which only that
phase's populations pay for.
``original_keys`` is the leaf's key set, one immutable ``frozenset``
shared by every replica the scenario backend spawns into the leaf; a
rejoin or a restore assigns a new set, never mutates it.

Message kinds, with their traffic categories and (by name) their
``_on_<kind>`` handlers: :data:`repro.simnet.protocol.CATEGORY`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, ClassVar, Dict, FrozenSet, List, Optional, Set, Tuple

from .._util import RngLike, make_rng
from ..core import fig2
from ..pgrid.bits import Path, ROOT
from ..pgrid.keyspace import KEY_BITS, bit_at
from ..pgrid.liveness import ReferenceTable
from ..pgrid.mdim import ZBox
from ..pgrid.search import level_toward, split_range
from ..pgrid.serving import CachePolicy, ServingState
from . import protocol as P
from .engine import DeadlineTimer, Simulator
from .transport import HEADER_BYTES, Message, Network, REF_BYTES

__all__ = ["PGridNode", "NodeConfig", "QueryOutcome"]

# Construction-phase pacing (only a scenario's construct phase runs it,
# and nothing gives any of the three a second value).
#: Seconds between a constructing node's interaction attempts: each
#: delay is uniform in ``[0.2, 1.8]`` times this.
INTERACTION_INTERVAL = 20.0
#: Hops of the uniform-sampling random walk that picks a partner.
WALK_LENGTH = 6
#: Fruitless interactions in a row before a node turns passive.
MAX_IDLE_ATTEMPTS = 4

#: Every declared message kind -> name of the ``PGridNode`` method handling it.
_HANDLER = {kind: "_on_" + kind for kind in P.CATEGORY}


@dataclass
class NodeConfig:
    """Per-node protocol parameters (times in simulated seconds)."""

    n_min: int = 5
    d_max: float = 50.0
    query_timeout: float = 30.0
    query_retries: int = 4
    max_refs_per_level: int = 4
    #: Seconds a delete tombstone keeps riding anti-entropy exchanges.
    #: Death certificates must outlive the anti-entropy convergence time
    #: (a few maintenance ticks), but shipping them forever would make
    #: every exchange after a delete-heavy phase pay O(total deletes
    #: ever) in wire bytes.  Classic bounded-staleness trade (Demers-style
    #: death certificates): a replica offline longer than the TTL may
    #: resurrect a deleted key until the next delete or exchange with a
    #: fresher peer.
    tombstone_ttl_s: float = 600.0
    #: Query-serving front end (:mod:`repro.pgrid.serving`).  ``None`` or
    #: ``enabled=False`` reproduces the serving-less protocol bit-for-bit.
    serving: Optional[CachePolicy] = None


@dataclass(kw_only=True)
class _PendingOp:
    """Origin-side state of one routed operation (module docstring).
    A kind's class attributes name the node attributes holding its
    pending table, first-payload builder, results list and observer."""

    table: ClassVar[str]
    launch: ClassVar[str]
    results: ClassVar[str]
    observer: ClassVar[str]

    issued_at: float
    attempts: int = 0
    timeouts: int = 0
    done: bool = False
    #: Routed hops of the answering attempt (ranges: longest chain seen).
    hops: int = 0
    #: First-hop reference the current attempt left through (liveness
    #: evidence: a timed-out attempt marks it suspect).  Points and
    #: writes only: a showered range has many first hops, so its
    #: timeout points at none of them.
    via: Optional[int] = None
    #: Lazy attempt timer: re-armed per attempt, disarmed on completion
    #: (one heap entry per pending op -- see ``engine.DeadlineTimer``).
    timer: Optional[DeadlineTimer] = None

    # The kind-specific fields of the terminal ``QueryOutcome``:

    def messages(self) -> int:
        return self.hops + (1 if self.hops else 0)

    def found_keys(self) -> Tuple[int, ...]:
        return ()

    def partitions(self) -> int:
        return 0


@dataclass(kw_only=True)
class _PendingQuery(_PendingOp):
    table = "_queries"
    launch = "_launch_query"
    results = "query_results"
    observer = "on_query_done"

    key: int
    #: Joined an identical in-flight lookup as a waiter: resolves with
    #: the primary's outcome and zero additional messages.
    shared: bool = False
    #: Route-cache target the current attempt was direct-sent to (a
    #: timeout invalidates the route entry as well as suspecting it).
    direct: Optional[int] = None

    def messages(self) -> int:
        # A waiter shares the primary's wire traffic: its outcome
        # reports the path length but zero messages, or the dedup
        # would double-bill every shared hop.
        return 0 if self.shared else super().messages()


@dataclass(kw_only=True)
class _PendingWrite(_PendingOp):
    """Origin-side state of one routed mutation (insert or delete)."""

    table = "_writes"
    launch = "_launch_write"
    results = "write_results"
    observer = "on_write_done"

    op: str
    key: int


@dataclass(kw_only=True)
class _PendingRange(_PendingOp):
    """Origin-side state of one range query (the shower)."""

    table = "_ranges"
    launch = "_launch_range"
    results = "range_results"
    observer = "on_range_done"

    lo: int
    hi: int
    #: A box query's box (``lo``/``hi`` are its z-span), or ``None``.
    box: Optional[ZBox] = None
    keys: Set[int] = field(default_factory=set)
    #: Slice intervals received so far, from any attempt (keys
    #: deduplicate, so every slice is valid coverage evidence): the
    #: query completes when they cover ``[lo, hi)``, and a retry
    #: re-issues only their gaps.
    covered: List[tuple] = field(default_factory=list)

    def gaps(self) -> List[tuple]:
        """The parts of ``[lo, hi)`` the slices leave uncovered, in key
        order -- of a box only those that meet it: the rest hold no key
        of the box."""
        gaps, cursor = [], self.lo
        for start, end in sorted(self.covered):
            if start > cursor:
                gaps.append((cursor, start))
            if end > cursor:
                cursor = end
        if cursor < self.hi:
            gaps.append((cursor, self.hi))
        if self.box is not None:
            gaps = [gap for gap in gaps if self.box.meets(*gap)]
        return gaps

    def messages(self) -> int:
        return len(self.covered) + self.hops

    def found_keys(self) -> Tuple[int, ...]:
        return tuple(sorted(self.keys))

    def partitions(self) -> int:
        return len(set(self.covered))  # one slice per partition reached


@dataclass(frozen=True, slots=True)
class QueryOutcome:
    """Terminal record of one (point or range) query, as handed to the
    ``on_query_done`` / ``on_range_done`` observer callbacks.

    ``messages`` approximates the wire messages the query caused from
    the origin's viewpoint: routed hops of the final attempt plus the
    reply; for a range, the result slices received (all attempts) plus
    the longest forwarding chain, a lower bound.  ``moot`` marks
    queries voided because the *origin* went offline mid-flight -- the
    overlay did not fail them, they could never be answered.
    """

    issued_at: float
    latency: float
    hops: int
    success: bool
    attempts: int
    timeouts: int
    messages: int = 0
    keys_found: int = 0
    moot: bool = False
    #: The matching keys themselves (range queries only; empty for
    #: points), for the box recall audit (see :mod:`repro.pgrid.mdim`);
    #: sorted so observers see a deterministic tuple.
    found_keys: Tuple[int, ...] = ()
    #: Partitions that returned a slice (range queries only).
    partitions: int = 0


class PGridNode:
    """One simulated peer: state plus message handlers.

    What a node holds, and why some of it lives on the class: module
    docstring."""

    # Immutable class defaults, shadowed by the first write (module
    # docstring).  A scenario's construct phase sets the first four.
    #: The live unstructured overlay (set when joining); neighbor lists
    #: are read from it dynamically because the bootstrap keeps wiring
    #: newcomers to existing nodes after our own join completed.
    overlay = None
    joined = False
    constructing = False
    idle_strikes = 0
    #: The workload keys this peer joined with; replaced by assignment,
    #: never mutated (replicas of one leaf share one set).
    original_keys: FrozenSet[int] = frozenset()

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        *,
        config: Optional[NodeConfig] = None,
        rng: RngLike = None,
    ):
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.config = config or NodeConfig()
        self.rng = make_rng(rng)
        self.online = True
        # P-Grid state
        self.path: Path = ROOT
        self.keys: Set[int] = set()
        #: Death certificates of deleted keys (delete-wins; they ride on
        #: replica syncs and anti-entropy exchanges like keys, and age
        #: out after ``config.tombstone_ttl_s`` -- see _prune_tombstones).
        self.tombstones: Set[int] = set()
        #: When each tombstone was first installed here (TTL bookkeeping;
        #: re-gossip does not refresh it, or certificates would ping-pong
        #: between replicas forever).
        self._tombstone_born: Dict[int, float] = {}
        self.outbox: Set[int] = set()
        self.replicas: Set[int] = set()
        #: The routing references and what this node believes of them
        #: (suspect -> probe -> evict -> replace-from-gossip; pgrid.liveness).
        self.liveness = ReferenceTable(node_id, self.config.max_refs_per_level)
        self._exchange_nonce = 0
        #: Nonce of the exchange request awaiting its response, if any.
        self._inflight_exchange: Optional[int] = None
        # query bookkeeping
        self._queries: Dict[int, _PendingQuery] = {}
        self._ranges: Dict[int, _PendingRange] = {}
        self._writes: Dict[int, _PendingWrite] = {}
        self._query_seq = 0
        self.query_results: List[QueryOutcome] = []
        self.range_results: List[QueryOutcome] = []
        self.write_results: List[QueryOutcome] = []
        # Optional observers (the message-level scenario backend hooks
        # these): called with (node_id, qid, QueryOutcome) whenever a
        # query reaches a terminal state -- hit, exhausted retries, or
        # voided by the origin going offline.
        self.on_query_done: Optional[Callable[[int, int, QueryOutcome], None]] = None
        self.on_range_done: Optional[Callable[[int, int, QueryOutcome], None]] = None
        self.on_write_done: Optional[Callable[[int, int, QueryOutcome], None]] = None
        #: Audit observer: (node_id, key, cached_present) on every result
        #: cache hit, before it serves (the runner compares the cached
        #: presence against its authoritative durable view).
        self.on_cache_hit: Optional[Callable[[int, int, bool], None]] = None
        #: The query-serving front end (pgrid.serving), or None: an
        #: ``enabled=False`` policy is no policy at the protocol level.
        policy = self.config.serving
        self.serving: Optional[ServingState] = (
            ServingState(policy) if policy is not None and policy.enabled else None
        )
        network.register(self)

    # -- helpers -----------------------------------------------------------

    @property
    def routing(self) -> Dict[int, List[int]]:
        """The reference table's levels.  Assigning installs a whole
        table (a copy) through :meth:`ReferenceTable.install`."""
        return self.liveness.levels

    @routing.setter
    def routing(self, levels: Dict[int, List[int]]) -> None:
        self.liveness.install(levels)

    def send(self, dst: int, kind: str, payload: dict, *, n_keys: int = 0,
             n_refs: int = 0) -> Optional[str]:
        """Transmit a message through the network (byte-accounted, in
        the traffic category :data:`protocol.CATEGORY` files ``kind``
        under).

        Returns the transport's send-time drop cause (or ``None``).  A
        ``"refused"`` or ``"partition"`` failure is evidence the sender
        really observes -- the connect failed -- so it feeds the
        liveness tracker exactly like a timeout; random loss and
        in-flight drops stay invisible, as on a real wire.
        """
        cause = self.network.send(
            self.node_id, dst, kind, payload, n_keys=n_keys, n_refs=n_refs,
            category=P.CATEGORY[kind],
        )
        if cause in ("refused", "partition"):
            self._suspect_ref(dst)
        return cause

    def set_online(self, online: bool, *, warm: bool = False) -> None:
        """Churn hook: toggling availability clears in-flight handshakes.

        Coming back online probes every reference struck while we
        were offline -- otherwise a reference could stay suspect (and
        routed around) forever -- and schedules the repair step (one
        that came due offline did nothing).

        ``warm=True`` is the warm-rejoin path after
        :meth:`restore_state`: instead of the cold sponsored join, the
        node resumes with its restored state and immediately initiates
        one anti-entropy exchange with a restored replica to reconcile
        the delta accumulated while down (periodic maintenance finishes
        the job).  Restored routing refs were already marked
        unconfirmed by the restore -- the liveness machine probes them
        before trusting them (see :mod:`repro.pgrid.state`).
        """
        self.online = online
        if not online:
            self._inflight_exchange = None
            return
        for ref in self.liveness.struck():
            self._send_probe(ref)
        if warm:
            partner = self.exchange_partner(self.rng)
            if partner is not None:
                self._begin_exchange(partner)
        self._repair_later()

    # -- durability (see repro.pgrid.state) ---------------------------------

    def snapshot_state(self) -> dict:
        """Capture this node's durable state as a versioned snapshot
        dict (schema :data:`repro.pgrid.state.SCHEMA`)."""
        from ..pgrid.state import snapshot_node

        return snapshot_node(self, self.sim.now)

    def restore_state(self, snapshot: dict) -> None:
        """Resume from a :meth:`snapshot_state` checkpoint.

        Durable state (keys, outbox, tombstone clocks, routing refs,
        liveness beliefs) is restored per the warm-rejoin contract in
        :mod:`repro.pgrid.state`; transient state (pending operations,
        exchange handshakes, idle strikes) starts empty because it did
        not survive the restart.
        """
        from ..pgrid.state import restore_node

        restore_node(self, snapshot, self.sim.now)
        if self.idle_strikes:  # keep the class default unshadowed
            self.idle_strikes = 0
        self._inflight_exchange = None
        if self.serving is not None:
            self.serving.clear()  # transient: it did not survive the restart

    def lose_state(self) -> None:
        """The cold twin of :meth:`restore_state`: no snapshot survived,
        so the death certificates and every belief about the routing
        references are gone (a sponsored placement replaces the rest)."""
        self.tombstones = set()
        self._tombstone_born = {}
        self.liveness.wipe()

    def abort_inflight(self) -> None:
        """Restart hook: void every in-flight origin-side operation.

        A process shutdown loses pending query/write/range state; each
        pending entry is finished as ``moot`` so the observers fire (the
        scenario runner pops its per-qid bookkeeping) and the
        attempt-bound timers still queued in the simulator find no
        pending entry when they expire -- no leaked timers, no stale
        attempts burning retry budgets after a warm rejoin.
        """
        for table in (self._queries, self._writes, self._ranges):
            for opid, pending in list(table.items()):
                if pending.done:
                    # Already resolved as a waiter of an earlier entry in
                    # this very loop -- finishing it again would fire the
                    # observer twice (double-counted moot query).
                    continue
                self._finish(opid, pending, False, moot=True)

    def add_route(self, level: int, other: int) -> None:
        """Record a complementary-subtree reference at ``level``."""
        self.liveness.add(level, other)

    def responsible_for(self, key: int) -> bool:
        """True iff ``key`` lies in this node's partition."""
        return self.path.contains_key(key, KEY_BITS)

    # -- liveness & route repair (pgrid.liveness, evidence-driven) -----------
    #
    # suspect: failure evidence (query timeout, refused or partitioned
    #          connect) -> route around the reference and ping it;
    # probe:   the ping's connect is its verdict -- accepted clears the
    #          strike, refused strikes again (no pong is awaited, no
    #          timer armed);
    # evict:   ``EVICT_AFTER`` strikes drop the reference from every level;
    # replace: anti-entropy exchanges (and the pong of a ping that asked)
    #          gossip candidate references per level, refilling depleted
    #          levels (the wire analogue of the data plane's
    #          replenishment sweep); a ping to a reference at level k
    #          asks only if one of levels 0..k -- all its pong can
    #          reach -- is short;
    # repair:  the node's own step, one interval (the table's
    #          ``repair_interval``) after a strike or a return online, one
    #          pending at most, sweeps (``refresh_routes``) and refills
    #          (``refill_routes``); an eviction, join or restart that
    #          leaves a level empty refills at once, and the step repeats
    #          that while it stays empty.  The same rules serve every driver.

    def _suspect_ref(self, ref: int) -> None:
        """Failure evidence against ``ref``: strike it (evicting at
        ``EVICT_AFTER``) and let a probe decide the rest.  The strike
        schedules the repair step; an eviction that empties a level
        refills at once (an empty level's refills are already on it)."""
        liveness = self.liveness
        if ref not in liveness:
            return  # evidence against a stranger: nothing to repair
        full = not liveness.thin(self.path.length, 1)
        if liveness.strike(ref, self.sim.now):
            if self.online:
                self._send_probe(ref)
        elif full:
            self.refill_routes()
        self._repair_later()

    def _send_probe(self, ref: int) -> None:
        """Ping ``ref``; the connect is the verdict.  Accepted --
        delivered or lost, which the sender cannot tell apart -- it is
        an answered probe; refused, ``send`` strikes it (bounded
        recursion: each round strikes once, ``EVICT_AFTER`` caps it).
        The ping asks for gossip only when ``ref``'s ``pong`` could
        place some: one of our levels up to ``ref``'s is short
        (:meth:`ReferenceTable.wants_gossip`)."""
        liveness = self.liveness
        liveness.probes += 1
        liveness.repair_bytes += HEADER_BYTES
        # ``want``: gossip on demand -- a pong, carrying replacement
        # candidates, comes back only when it can place some.
        cause = self.send(ref, P.PING, {"want": liveness.wants_gossip(ref)})
        if cause is None or cause == "loss":
            liveness.note_answered(ref, self.sim.now)

    def _on_ping(self, msg: Message) -> None:
        # Liveness was settled at the prober's connect: a pong exists
        # only to carry gossip to a prober that can place some.
        if not msg.payload["want"]:
            return
        gossip, n_refs = self.liveness.gossip()
        self.liveness.repair_bytes += HEADER_BYTES + n_refs * REF_BYTES
        # The path travels as the ``Path`` itself, not as text the
        # prober would parse back (its wire size is part of the header
        # either way: only ``n_refs`` is billed).
        self.send(msg.src, P.PONG, {"path": self.path, "gossip": gossip}, n_refs=n_refs)

    def _on_pong(self, msg: Message) -> None:
        # Absorb the replacement candidates (a root-path sender has no
        # levels to place them at).  ``path`` is the sender's own
        # ``Path`` object, shared by reference: immutable, so neither
        # side can change it under the other.
        gossip = msg.payload["gossip"]
        path = msg.payload["path"]
        self.liveness.note_path(msg.src, path)
        if gossip and path:
            self.liveness.accept_gossip(self.path, path, gossip, self.sim.now)

    def refresh_routes(self) -> int:
        """Probe the stalest reference of each *lapsed* routing level
        (:meth:`ReferenceTable.due`), called by the repair step one
        interval after a strike or a restart: a no-op unless the node
        has taken one since its last sweep.  Returns the number of
        probes launched."""
        if not self.online:
            return 0
        due = self.liveness.due(self.sim.now)
        for ref in due:
            self._send_probe(ref)
        return len(due)

    def refill_routes(self) -> None:
        """If a level of our path holds no reference, start one exchange
        now (its gossip is how replacements travel) and schedule the step
        that repeats it; not while constructing, when the Fig. 2 timer runs."""
        liveness = self.liveness
        if (self.online and liveness.repair_interval is not None and not self.constructing
                and liveness.thin(self.path.length, 1)):
            partner = self.exchange_partner(self.rng)
            if partner is not None:
                liveness.refills += 1
                self._begin_exchange(partner)
            self._repair_later()

    def _repair_later(self) -> None:
        """Schedule the repair step, unless one is pending or repair is off."""
        liveness = self.liveness
        if liveness.repair_interval is not None and not liveness.step_pending:
            liveness.step_pending = True
            self.sim.schedule(liveness.repair_interval, self._repair_step)

    def _repair_step(self) -> None:
        self.liveness.step_pending = False
        if self.liveness.repair_interval is not None:
            self.refresh_routes()
            self.refill_routes()

    def exchange_partner(self, rng: random.Random) -> Optional[int]:
        """An anti-entropy partner from this node's own beliefs, drawn
        from ``rng``: one of its replicas, else a reference at its
        deepest populated level; ``None`` when it knows neither."""
        replicas = sorted(self.replicas - {self.node_id})
        if replicas:
            return replicas[rng.randrange(len(replicas))]
        deepest = max((level for level, refs in self.routing.items() if refs), default=None)
        return None if deepest is None else self.liveness.pick(deepest, rng)

    def _forward_toward(
        self, level: int, kind: str, payload: dict, *, n_keys: int = 0
    ) -> Optional[int]:
        """Pick a reference at ``level`` and put ``payload`` on the wire.

        Returns the reference the message left through (loss is silent
        to the sender, so a lost message still counts as forwarded) or
        ``None`` on a dead end.  The connect is the probe: a send-time
        refusal (offline or partitioned destination) marks the
        reference suspect -- usually evicting it on the spot via the
        probe it starts -- and immediately re-picks, the paper's lazy
        *correction on use* applied at the wire, bounded by the
        per-level redundancy; an accepted connect (lost or not) to a
        reference whose confirmation has lapsed confirms it as an
        accepted ``ping`` would (:meth:`ReferenceTable.note_answered`).
        Only a node short of references at or above ``level`` -- where
        the ``pong`` of a reference at ``level`` can place candidates --
        still pings on use, for that gossip; one short only deeper
        confirms by connect, as a full node does.

        On an operation's first attempt every pick is given the key (a
        range piece's ``lo``) and is greedy; on a retry it draws
        uniformly (module docstring, "Routing references").
        """
        liveness = self.liveness
        # Greedy on a first attempt only: a retry draws uniformly, so it
        # can route around a best match that dead-ends.
        key = None
        if payload.get("attempt") == 1:
            key = payload["lo"] if kind == P.RANGE_QUERY else payload["key"]
        for _ in range(self.config.max_refs_per_level + 1):
            nxt = liveness.pick(level, self.rng, key)
            if nxt is None:
                return None
            lapsed = self.online and liveness.needs_confirmation(nxt, self.sim.now)
            if lapsed and liveness.wants_gossip(nxt):
                self._send_probe(nxt)
                lapsed = False
            cause = self.send(nxt, kind, payload, n_keys=n_keys)
            if cause is None or cause == "loss":
                if lapsed:
                    liveness.note_answered(nxt, self.sim.now)
                return nxt
            if cause == "offline":
                return nxt
            # refused/partition: try another reference.
        return None

    # -- message dispatch ----------------------------------------------------

    def receive(self, message: Message) -> None:
        """Network entry point."""
        # Any delivered message is proof of life: refresh the sender and
        # clear whatever suspicion it had accumulated.
        self.liveness.note_alive(message.src, self.sim.now)
        name = _HANDLER.get(message.kind)
        if name is None:
            return  # unknown kinds are ignored (forward compatibility)
        # Resolved per message: handlers stay overridable per instance
        # (tests patch them) and in subclasses.
        getattr(self, name)(message)

    # -- bootstrap ------------------------------------------------------------

    def _on_join(self, msg: Message) -> None:
        """Bootstrap role: wire the newcomer into the unstructured overlay.

        Idempotent: a retried join (lost reply) re-sends the current
        neighbor list instead of re-wiring.
        """
        overlay = msg.payload["overlay"]
        if msg.src in overlay.neighbors:
            neighbors = overlay.neighbors_of(msg.src)
        else:
            neighbors = overlay.join(msg.src, rng=self.rng)
        self.send(msg.src, P.NEIGHBORS, {"neighbors": neighbors, "overlay": overlay})

    def _on_neighbors(self, msg: Message) -> None:
        self.overlay = msg.payload["overlay"]
        self.joined = True

    @property
    def neighbors(self) -> List[int]:
        """Current unstructured-overlay neighbors (live view)."""
        if self.overlay is None:
            return []
        return self.overlay.neighbors_of(self.node_id)

    # -- random walks -----------------------------------------------------------

    def start_walk(self, purpose: str) -> None:
        """Launch a uniform-sampling random walk (Sec. 3: "a variant of
        random walks")."""
        if not self.neighbors:
            return
        first = self.neighbors[self.rng.randrange(len(self.neighbors))]
        self.send(
            first,
            P.WALK,
            {
                "origin": self.node_id,
                "steps": WALK_LENGTH - 1,
                "purpose": purpose,
            },
        )

    def _on_walk(self, msg: Message) -> None:
        steps = msg.payload["steps"]
        if steps <= 0 or not self.neighbors:
            self.send(
                msg.payload["origin"],
                P.WALK_RESULT,
                {"sampled": self.node_id, "purpose": msg.payload["purpose"]},
            )
            return
        nxt = self.neighbors[self.rng.randrange(len(self.neighbors))]
        self.send(
            nxt,
            P.WALK,
            {
                "origin": msg.payload["origin"],
                "steps": steps - 1,
                "purpose": msg.payload["purpose"],
            },
        )

    def _on_walk_result(self, msg: Message) -> None:
        sampled = msg.payload["sampled"]
        purpose = msg.payload["purpose"]
        if purpose == "replicate":
            if self.original_keys:
                self.send(
                    sampled,
                    P.STORE,
                    {"keys": list(self.original_keys)},
                    n_keys=len(self.original_keys),
                )
        elif purpose == "exchange" and sampled != self.node_id:
            self._begin_exchange(sampled)

    # -- replication phase --------------------------------------------------------

    def replicate_keys(self, copies: int, *, _retries: int = 10) -> None:
        """Kick off ``copies`` replication walks for the local key set.

        A node that has not finished joining yet (no overlay neighbors)
        retries shortly -- replication must not be lost to a slow join.
        """
        if not self.neighbors and _retries > 0:
            self.sim.schedule(
                30.0, lambda: self.replicate_keys(copies, _retries=_retries - 1)
            )
            return
        for _ in range(copies):
            self.start_walk("replicate")

    def _on_store(self, msg: Message) -> None:
        self._accept_keys(set(msg.payload["keys"]))

    # -- construction phase ----------------------------------------------------------

    def start_constructing(self) -> None:
        """Enable the periodic interaction timer."""
        self.constructing = True
        self.idle_strikes = 0
        self._schedule_interaction(initial=True)

    def _schedule_interaction(self, initial: bool = False) -> None:
        spread = INTERACTION_INTERVAL
        delay = self.rng.uniform(0.2 * spread, 1.8 * spread)
        if initial:
            delay = self.rng.uniform(0.0, spread)
        self.sim.schedule(delay, self._interaction_tick)

    def _interaction_tick(self) -> None:
        if not self.constructing:
            return
        if not self.online:
            # Keep the timer chain alive through offline periods.
            self._schedule_interaction()
            return
        passive = self.idle_strikes >= MAX_IDLE_ATTEMPTS
        if not passive:
            self.start_walk("exchange")
        elif self.rng.random() < 0.15:
            # Passive peers mostly wait to be contacted (Sec. 4.2) but
            # keep a slow heartbeat so isolated stragglers cannot
            # deadlock the whole group.
            self.start_walk("exchange")
        self._schedule_interaction()

    def _strike(self, useful: bool) -> None:
        """Reset the idle count after a useful interaction, add to it
        after a fruitless one.  Only a constructing node reads the count,
        so any other node keeps the class default (module docstring)."""
        if self.constructing:
            self.idle_strikes = 0 if useful else self.idle_strikes + 1

    def _begin_exchange(self, partner: int) -> None:
        self._exchange_nonce += 1
        self._inflight_exchange = self._exchange_nonce
        # One routing reference per level travels with the request so the
        # contacted peer can satisfy rule 4's reference hand-over even
        # when it is the one deciding (lagging-peer case).
        routes = {
            level: refs[0] for level, refs in self.routing.items() if refs
        }
        gossip, n_refs = self.liveness.gossip()
        self.liveness.repair_bytes += n_refs * REF_BYTES
        # Tombstones travel with every exchange (billed like keys) so
        # deletes propagate through the same anti-entropy that spreads
        # inserts; an empty write path adds zero bytes, and expired
        # certificates are pruned before they ship.
        self._prune_tombstones()
        self.send(
            partner,
            P.EXCHANGE_REQ,
            {
                "path": self.path,
                "keys": list(self.keys),
                "tombstones": sorted(self.tombstones),
                "replicas": list(self.replicas),
                "routes": routes,
                "gossip": gossip,
                "nonce": self._exchange_nonce,
            },
            n_keys=len(self.keys) + len(self.tombstones),
            n_refs=n_refs,
        )

    # The partner evaluates the interaction against its own state and
    # replies with a directive for the initiator.

    def _on_exchange_req(self, msg: Message) -> None:
        their_path = msg.payload["path"]
        their_keys = set(msg.payload["keys"])
        their_replicas = set(msg.payload["replicas"])
        their_routes = msg.payload.get("routes", {})
        their_tombstones = set(msg.payload.get("tombstones", ()))
        self._prune_tombstones()  # the reply ships ours; expire first
        nonce = msg.payload["nonce"]
        # Route-repair gossip rides on every exchange, both directions:
        # their candidates may refill our depleted levels and vice versa.
        self.liveness.accept_gossip(
            self.path, their_path, msg.payload.get("gossip"), self.sim.now
        )
        reply = self._evaluate_exchange(
            msg.src, their_path, their_keys, their_replicas, their_routes,
            their_tombstones,
        )
        self.liveness.note_path(msg.src, their_path)
        # Death certificates a path change left here go where its keys
        # went: to the partition the initiator holds once it has applied
        # the reply.  (A same-partition reply ships ours instead, and
        # then none of ours is foreign to its path.)
        side = reply.get("your_side")
        handed = self._hand_over_tombstones(
            their_path if side is None else their_path.extend(side)
        )
        if handed:
            reply["tombstones"] = handed
        reply["nonce"] = nonce
        reply["expected_path"] = their_path
        reply["partner_path"] = self.path  # after our half of the interaction
        gossip, n_refs = self.liveness.gossip()
        self.liveness.repair_bytes += n_refs * REF_BYTES
        reply["gossip"] = gossip
        self.send(
            msg.src,
            P.EXCHANGE_RESP,
            reply,
            n_keys=len(reply.get("keys", ())) + len(reply.get("tombstones", ())),
            n_refs=n_refs,
        )

    def _evaluate_exchange(
        self,
        initiator: int,
        their_path: Path,
        their_keys: Set[int],
        their_replicas: Set[int],
        their_routes: dict,
        their_tombstones: Set[int] = frozenset(),
    ) -> dict:
        """Apply the Fig. 2 rules from the contacted side.

        Returns the directive sent back to the initiator.  The contacted
        node applies its own half of the interaction immediately.
        """
        # Outbox delivery piggy-backs on every exchange.
        deliver = {k for k in self.outbox if their_path.contains_key(k, KEY_BITS)}
        self.outbox -= deliver

        related = fig2.relation(their_path, self.path)
        if related == fig2.DIVERGED:
            # Refer.  Learn each other; recommend a better match, one step
            # of prefix routing: our references at the divergence level sit
            # in the complementary subtree that holds their partition.
            cpl = self.path.common_prefix_length(their_path)
            self.add_route(cpl, initiator)
            refs = [r for r in self.routing.get(cpl, ()) if r != initiator]
            return {
                "action": "refer",
                "level": cpl,
                "recommend": refs[self.rng.randrange(len(refs))] if refs else None,
                "keys": list(deliver),
            }
        if related == fig2.SAME:
            return self._evaluate_same_partition(
                initiator, their_keys, their_replicas, deliver, their_tombstones
            )
        return self._evaluate_decide(
            initiator, their_path, their_keys, their_replicas, their_routes, deliver
        )

    def _evaluate_decide(
        self,
        initiator: int,
        their_path: Path,
        their_keys: Set[int],
        their_replicas: Set[int],
        their_routes: dict,
        deliver: Set[int],
    ) -> dict:
        """One path is a proper prefix of the other: the peer that lags a
        level behind takes a side by rules 3/4 against the decided one (its
        deeper path reveals its side at that level) if the partition is
        overloaded, and otherwise catches up on the content it missed.  A
        lagging initiator is told which in the reply; when the contacted
        peer lags, it acts here and now."""
        we_lag = self.path.length < their_path.length
        if we_lag:
            level = self.path.length
            meeting = self._meeting(level, self.keys, their_keys, their_replicas)
            decided, decided_side = initiator, their_path.bit(level)
            # Rule 4's reference hand-over, from the routes the request carried.
            opposite_ref = their_routes.get(level)
        else:
            level = their_path.length
            # Unlike the round engine, the lagging initiator's replica list
            # stays out of ``known`` (ROADMAP item 9).
            meeting = self._meeting(level, their_keys, self.keys, frozenset())
            decided, decided_side = self.node_id, self.path.bit(level)
            opposite_ref = next(iter(self.routing.get(level, ())), None)
        side = None
        if fig2.overloaded(meeting, self.config.d_max, self.config.n_min):
            probs, minority = self._split_probabilities(meeting, their_keys)
            side, via_decided = fig2.rules_3_4(
                decided_side, minority, probs.beta, self.rng.random, opposite_ref is not None
            )
            via = decided if via_decided else opposite_ref
        if not we_lag:
            if side is None:
                # Not splittable: help the lagging peer catch up instead.
                catch_up = {
                    k for k in self.keys if their_path.contains_key(k, KEY_BITS)
                } - their_keys
                return {"action": "catch_up", "keys": list(deliver | catch_up)}
            return {
                "action": "decide",
                "your_side": side,
                "level": level,
                "counterpart": via,
                "keys": list(deliver),
            }
        if side is not None:
            # Displaced keys of the initiator's partition ship back in
            # the reply; the rest wait in the outbox.
            leaving = self._extend_path(side, via)
            back = {k for k in leaving if their_path.contains_key(k, KEY_BITS)}
            self.outbox |= leaving - back
            deliver |= back
            useful = True
        else:
            # Catch up on partition content we are missing.
            gained = {k for k in their_keys if self.responsible_for(k)} - self.keys
            self.keys |= gained
            useful = bool(gained)
        if useful:
            self._strike(True)
        return {"action": "noop", "keys": list(deliver), "useful": useful}

    def _extend_path(self, side: int, via: Optional[int]) -> Set[int]:
        """Extend own path by ``side`` (split or rules 3/4), learning
        ``via`` as the reference for the other side; returns the keys
        the narrower partition displaced.  Their tombstones stay until
        :meth:`_hand_over_tombstones` gives them away."""
        level = self.path.length
        self.path = self.path.extend(side)
        if via is not None:
            self.add_route(level, via)
        stay = {k for k in self.keys if bit_at(k, level) == side}
        leaving = self.keys - stay
        self.keys = stay
        self.replicas = set()
        return leaving

    def _hand_over_tombstones(self, path: Path) -> List[int]:
        """Give away the tombstones outside our partition that lie in
        ``path``: the death certificates of keys a path change
        displaced.

        They wait here, as the displaced keys wait in the outbox, until
        a partner that will hold ``path`` exchanges with us; then they
        ride the reply, billed as keys, and the partner keeps those in
        its partition.  Until then (or their TTL) they also keep the
        dead keys out of our outbox.
        """
        if not self.tombstones:
            return []
        handed = sorted(
            k for k in self.tombstones
            if not self.responsible_for(k) and path.contains_key(k, KEY_BITS)
        )
        for key in handed:
            self.tombstones.discard(key)
            self._tombstone_born.pop(key, None)
        return handed

    def _evaluate_same_partition(
        self,
        initiator: int,
        their_keys: Set[int],
        their_replicas: Set[int],
        deliver: Set[int],
        their_tombstones: Set[int] = frozenset(),
    ) -> dict:
        level = self.path.length
        # Delete-wins: union the death certificates first, then treat
        # tombstoned keys as nonexistent on both sides of the exchange
        # (an empty write path makes all of this a no-op).
        if their_tombstones or self.tombstones:
            self._note_tombstones(
                k for k in their_tombstones if self.responsible_for(k)
            )
            self.keys -= self.tombstones
            their_keys = their_keys - self.tombstones
        meeting = self._meeting(level, their_keys, self.keys, their_replicas)
        if fig2.overloaded(meeting, self.config.d_max, self.config.n_min):
            probs, _minority = self._split_probabilities(meeting, their_keys)
            if self.rng.random() < probs.alpha:
                # Balanced split: the contacted node takes one side now and
                # instructs the initiator to take the other.
                my_side = self.rng.randrange(2)
                keys_for_them = self._extend_path(my_side, initiator)
                self._strike(True)
                return {
                    "action": "split",
                    "your_side": 1 - my_side,
                    "level": level,
                    "keys": list(deliver | keys_for_them),
                }
            return {
                "action": "again",  # bisection in progress; stay active
                "keys": list(deliver),
            }
        # Replicate: reconcile content (anti-entropy).
        missing_here = their_keys - self.keys
        keys_for_them = self.keys - their_keys
        self.keys |= missing_here
        self.replicas.add(initiator)
        self.replicas |= their_replicas - {self.node_id}
        if missing_here or keys_for_them:
            self._strike(True)
        reply = {
            "action": "replicate",
            "replicas": list(self.replicas | {self.node_id}),
            "keys": list(deliver | keys_for_them),
            "useful": bool(missing_here or keys_for_them),
        }
        if self.tombstones:
            reply["tombstones"] = sorted(self.tombstones)
        return reply

    # -- initiator side: apply the directive ------------------------------------

    def _on_exchange_resp(self, msg: Message) -> None:
        payload = msg.payload
        # Gossiped candidates are fresh world knowledge regardless of
        # whether the handshake itself went stale: accept them first.
        # (A root-path partner has no levels to anchor candidates to.)
        self.liveness.accept_gossip(
            self.path, payload["partner_path"], payload.get("gossip"), self.sim.now
        )
        self.liveness.note_path(msg.src, payload["partner_path"])
        inflight, self._inflight_exchange = self._inflight_exchange, None
        # Optimistic concurrency: drop the response to a superseded
        # request, or to the path we had before extending it meanwhile.
        if inflight != payload["nonce"] or self.path != payload["expected_path"]:
            return
        incoming = set(payload.get("keys", ()))
        tombs = payload.get("tombstones")
        action = payload["action"]
        if action in ("split", "decide"):
            # Split: the partner took the other side itself; decide
            # (rules 3/4): it names the counterpart for the other side.
            if payload["level"] == self.path.length:  # else: stale directive
                counterpart = msg.src if action == "split" else payload["counterpart"]
                self.outbox |= self._extend_path(payload["your_side"], counterpart)
                self._accept_keys(incoming, tombs)
            self._strike(True)
        elif action == "replicate":
            self._accept_keys(incoming, tombs)
            self.replicas |= set(payload.get("replicas", ())) - {self.node_id}
            self._strike(bool(payload.get("useful")))
        elif action == "catch_up":
            self._strike(self._accept_keys(incoming, tombs))
        elif action == "again":
            self._accept_keys(incoming, tombs)
            self._strike(True)  # overloaded partition: keep trying
        elif action == "refer":
            self._accept_keys(incoming, tombs)
            level = payload["level"]
            if level < self.path.length:
                self.add_route(level, msg.src)
            recommend = payload.get("recommend")
            if recommend is not None and recommend != self.node_id:
                self._begin_exchange(recommend)
                return
            self._strike(False)
        else:  # noop (possibly a lagging-peer decision on the other side)
            self._accept_keys(incoming, tombs)
            self._strike(bool(payload.get("useful")))

    def _accept_keys(
        self, incoming: Set[int], tombstones: Optional[List[int]] = None
    ) -> bool:
        """Take the keys and death certificates a partner sent: ours
        into the partition, other keys into the outbox.  Returns True
        iff the partition gained a key."""
        if tombstones:
            # The partner's certificates win over our content; we keep
            # those in our partition.
            self._note_tombstones(k for k in tombstones if self.responsible_for(k))
            self.keys -= self.tombstones
        mine = {k for k in incoming if self.responsible_for(k)}
        if self.tombstones:
            mine -= self.tombstones  # delete-wins: dead keys stay dead
        grew = not mine <= self.keys
        self.keys |= mine
        self.outbox |= incoming - mine - self.tombstones
        return grew

    # -- what one exchange hands to repro.core.fig2 (Sec. 4.2) -----------------

    def _meeting(
        self, level: int, keys_a: Set[int], keys_b: Set[int], their_replicas: Set[int]
    ) -> fig2.Meeting:
        """The counts of one exchange, taken once; ``keys_a`` is the key set
        of the peer whose partition, at ``level``, may be refined."""
        return fig2.Meeting(
            level, len(keys_a), len(keys_b), len(keys_a & keys_b),
            # Unlike the round engine, the initiator is counted even when a
            # replica list already names it (ROADMAP item 9).
            lambda: len(self.replicas | their_replicas | {self.node_id}) + 1,
        )

    def _split_probabilities(self, meeting: fig2.Meeting, their_keys: Set[int]):
        """Split probabilities and minority side for an overloaded meeting."""
        level, n_min = meeting.level, self.config.n_min
        zeros = sum(1 for k in self.keys | their_keys if not bit_at(k, level))
        return fig2.split_probabilities(
            zeros, meeting.total,
            # Unlike the round engine, the floor is the overlap estimate
            # alone, not ``replica_evidence`` (ROADMAP item 9).
            meeting.replica_estimate(n_min), n_min, "theory",
        )

    def initiate_exchange(self, partner: int) -> None:
        """Start one construction/anti-entropy exchange with ``partner``.

        Public entry point for external drivers (the message-level
        scenario backend's sampled anti-entropy); internally the same
        handshake the periodic interaction timer launches.
        """
        self._begin_exchange(partner)

    # -- queries --------------------------------------------------------------------

    def issue_query(self, key: int) -> int:
        """Originate an exact-match query for ``key``; returns its qid.

        The first attempt runs as a zero-delay simulator event, never
        re-entrantly inside this call: a query the origin can answer
        itself would otherwise complete -- and invoke the observer
        callbacks -- before the caller even learned its qid.

        With serving enabled, a fresh result-cache entry answers
        locally (zero wire traffic; audited via ``on_cache_hit``), and
        a lookup identical to one already in flight joins it as a
        waiter instead of issuing duplicate wire traffic.
        """
        self._query_seq += 1
        qid = (self.node_id << 20) | self._query_seq
        pending = _PendingQuery(key=key, issued_at=self.sim.now)
        self._queries[qid] = pending
        serving = self.serving
        if serving is not None:
            present = serving.cached(key, self.sim.now)
            if present is not None:
                if self.on_cache_hit is not None:
                    self.on_cache_hit(self.node_id, key, present)
                self.sim.schedule(0.0, lambda: self._complete_query(qid, 0))
                return qid
            if serving.join(key, qid, self._queries):
                pending.shared = True
                return qid
        self.sim.schedule(0.0, lambda: self._attempt(qid, pending))
        return qid

    def _launch_query(self, qid: int, pending: _PendingQuery) -> None:
        pending.direct = None
        key = pending.key
        payload = {
            "key": key,
            "origin": self.node_id,
            "qid": qid,
            "attempt": pending.attempts,
            "hops": 0,
        }
        serving = self.serving
        if serving is not None and pending.attempts == 1:
            # First attempt may shortcut straight to a remembered
            # responder; a visible connect failure or a timeout falls
            # back to trie routing and drops the route entry.
            target = serving.route(key, self.sim.now, self.node_id)
            if target is not None:
                pending.direct = pending.via = target
                cause = self.send(target, P.QUERY, {**payload, "hops": 1})
                if cause in (None, "loss", "offline"):
                    return
                serving.forget_route(key)
                pending.direct = pending.via = None
        self._route_query(payload)

    # -- the pending-operation machine (module docstring): all three kinds -----

    def _attempt(self, opid: int, pending: _PendingOp) -> None:
        """Start the next attempt: launch it, then bind the deadline."""
        if pending.done:
            return
        pending.attempts += 1
        pending.via = None  # evidence belongs to the attempt that used it
        getattr(self, pending.launch)(opid, pending)
        if pending.done:
            # Finished inside its own launch (the origin is responsible,
            # or local dead ends used up the retries): nothing to time.
            return
        # The deadline belongs to *this* attempt: a dead-end reply that
        # already triggered a retry re-armed the timer, so a stale
        # deadline never burns the retry budget against newer attempts.
        # One :class:`DeadlineTimer` per pending operation: the heap
        # holds at most one entry for the op's whole retry chain
        # (see ``engine``).
        timer = pending.timer
        if timer is None:
            # The callback looks the record up by id (module docstring).
            timeout = partial(self._op_timeout, getattr(self, pending.table), opid)
            timer = pending.timer = DeadlineTimer(self.sim, timeout)
        timer.arm(self.sim.now + self.config.query_timeout)

    def _op_timeout(self, table: dict, opid: int) -> None:
        # No attempt guard needed: the lazy timer fires only when the
        # *current* deadline is reached -- every attempt re-arms it, and
        # a superseded deadline chases forward instead of firing.
        pending = table.get(opid)
        if pending is None or pending.done:
            return
        pending.timeouts += 1
        if not self.online:
            # The origin itself went offline: the operation is moot, not
            # a failure of the overlay (it could never receive the
            # reply).  A moot write may still have been applied at the
            # owner -- at-least-once, like any retried write protocol.
            self._finish(opid, pending, False, moot=True)
            return
        if pending.via is not None:
            # The attempt died somewhere past our first hop; that hop is
            # the only reference we used ourselves, so it takes the
            # suspicion (an innocent one answers the probe and is
            # cleared).
            self._suspect_ref(pending.via)
        if isinstance(pending, _PendingQuery) and pending.direct is not None:
            # The remembered responder did not answer (only a node
            # with serving state sends direct).
            self.serving.forget_route(pending.key)
            pending.direct = None
        self._retry_or_fail(opid, pending)

    def _dead_end(self, table: dict, opid: int, attempt: Optional[int]) -> None:
        """A routing dead end (remote miss/stuck report or local
        no-route) for the current attempt: retry immediately or fail."""
        pending = table.get(opid)
        if pending is None or pending.done:
            return
        if attempt is not None and attempt != pending.attempts:
            return  # dead end of a superseded attempt; a newer one is out
        self._retry_or_fail(opid, pending)

    def _retry_or_fail(self, opid: int, pending: _PendingOp) -> None:
        if pending.attempts <= self.config.query_retries:
            self._attempt(opid, pending)
        else:
            self._finish(opid, pending, False)

    def _finish(
        self, opid: int, pending: _PendingOp, success: bool, *, moot: bool = False
    ) -> None:
        """Terminal bookkeeping shared by every outcome of every kind."""
        pending.done = True
        if pending.timer is not None:
            pending.timer.disarm()
        getattr(self, pending.table).pop(opid, None)
        found = pending.found_keys()
        outcome = QueryOutcome(
            issued_at=pending.issued_at,
            latency=self.sim.now - pending.issued_at,
            hops=pending.hops,
            success=success,
            attempts=pending.attempts,
            timeouts=pending.timeouts,
            messages=pending.messages(),
            keys_found=len(found),
            moot=moot,
            found_keys=found,
            partitions=pending.partitions(),
        )
        if not moot:
            # Moot operations (origin went offline) are invisible to the
            # experiment-level success statistics.
            getattr(self, pending.results).append(outcome)
        observer = getattr(self, pending.observer)
        if observer is not None:
            observer(self.node_id, opid, outcome)
        if self.serving is not None and isinstance(pending, _PendingQuery):
            # Resolve every waiter exactly once with the primary's
            # outcome -- including the moot path, where the abort
            # loop's done-guard keeps them from resolving twice.
            for wqid in self.serving.release(pending.key, opid):
                wpending = self._queries.get(wqid)
                if wpending is None or wpending.done:
                    continue
                wpending.hops = pending.hops
                self._finish(wqid, wpending, success, moot=moot)

    # -- the relay step: the forwarder-side twin, all three routed kinds --------

    def _relay(
        self, table: Optional[dict], level: int, kind: str, payload: dict, *, n_keys: int = 0
    ) -> bool:
        """Forward ``payload`` one hop through ``level`` (where its key
        leaves this node's path: :func:`level_toward`), or report the
        dead end to its origin; returns whether it went out.

        The forward is always a fresh dict (values shared by reference):
        each hop owns its container, so a handler mutating the payload
        it received can never corrupt a sibling already on the wire.
        When this node is the origin and this its attempt's first hop,
        the record in ``table`` remembers the reference used -- the only
        one the origin knows the attempt took, so a timeout is failure
        evidence against it.  ``table=None`` records nothing.
        """
        hops = payload["hops"]
        used = self._forward_toward(level, kind, {**payload, "hops": hops + 1}, n_keys=n_keys)
        if used is None:
            self._report_miss(table, kind, payload)
            return False
        if table is not None and hops == 0 and payload["origin"] == self.node_id:
            pending = table.get(payload["qid"])
            if pending is not None:
                pending.via = used
        return True

    def _report_miss(self, table: Optional[dict], kind: str, payload: dict) -> None:
        """A dead-end report lets the origin retry sooner than the
        timeout; one observed at the origin itself retries (or fails)
        now instead of burning the timeout window."""
        origin = payload["origin"]
        if kind == P.RANGE_QUERY:
            self._send_range_part(origin, payload, [], None)
        elif origin == self.node_id:
            self._dead_end(table, payload["qid"], payload.get("attempt", 0))
        else:
            self.send(
                origin,
                P.QUERY_MISS if kind == P.QUERY else P.UPDATE_MISS,
                {
                    "qid": payload["qid"],
                    "hops": payload["hops"],
                    "attempt": payload.get("attempt", 0),
                },
            )

    def _route_query(self, payload: dict) -> None:
        key = payload["key"]
        origin = payload["origin"]
        qid = payload["qid"]
        hops = payload["hops"]
        level = level_toward(self.path, key)
        responsible = level is None
        serving = self.serving
        grant_present: Optional[bool] = None
        if not responsible and serving is not None:
            grant_present = serving.grant_presence(key, self.sim.now)
        if responsible or grant_present is not None:
            # Reaching an online responsible peer IS query success, the
            # same semantics as the data plane's LookupResult.found --
            # whether the key is stored is a data property, not a
            # routing outcome.  A grant helper answers for the owner's
            # range the same way (adaptive replication).
            reply = {"qid": qid, "hops": hops}
            if serving is not None:
                # The presence flag, and the replica set origin route
                # caches rotate direct sends across (an owner's helpers).
                reply["present"] = key in self.keys if responsible else grant_present
                reply["targets"] = [self.node_id] + (serving.served() if responsible else [])
            if origin == self.node_id:
                self._complete_query(qid, hops, info=reply)
            else:
                self.send(origin, P.QUERY_HIT, reply)
            return
        self._relay(self._queries, level, P.QUERY, payload)

    def _on_query(self, msg: Message) -> None:
        self._route_query(msg.payload)

    def _on_query_hit(self, msg: Message) -> None:
        self._complete_query(
            msg.payload["qid"], msg.payload["hops"], info=msg.payload, responder=msg.src
        )

    def _on_query_miss(self, msg: Message) -> None:
        # A dead-end report lets the origin retry sooner than the timeout.
        self._dead_end(self._queries, msg.payload["qid"], msg.payload.get("attempt"))

    def _complete_query(
        self, qid: int, hops: int, info: Optional[dict] = None,
        responder: Optional[int] = None,
    ) -> None:
        pending = self._queries.get(qid)
        if pending is None or pending.done:
            return
        if self.serving is not None and info is not None and "present" in info:
            self.serving.remember(pending.key, info, responder, self.node_id, self.sim.now)
        pending.hops = hops
        self._finish(qid, pending, True)

    # -- writes (routed inserts/deletes with eager replica sync) -----------------
    #
    # A mutation routes to the responsible partition exactly like a point
    # query (same prefix routing, same attempt-bound timeout/retry and
    # liveness evidence), is applied at the first responsible node
    # reached, fanned out to its known replicas as ``replica_sync``
    # messages, and acknowledged to the origin.  Deletes tombstone the
    # key (delete-wins under anti-entropy; see pgrid.replication) so a
    # stale replica cannot resurrect it.  All write traffic is accounted
    # in its own category (``update_Bps`` in the Fig. 8 split).

    def issue_insert(self, key: int) -> int:
        """Originate an insert for ``key``; returns its write id."""
        return self._issue_write("insert", key)

    def issue_delete(self, key: int) -> int:
        """Originate a delete for ``key``; returns its write id."""
        return self._issue_write("delete", key)

    def _issue_write(self, op: str, key: int) -> int:
        self._query_seq += 1
        wid = (self.node_id << 20) | self._query_seq
        pending = _PendingWrite(op=op, key=key, issued_at=self.sim.now)
        self._writes[wid] = pending
        # Zero-delay first attempt, for the same reason as issue_query.
        self.sim.schedule(0.0, lambda: self._attempt(wid, pending))
        return wid

    def _launch_write(self, wid: int, pending: _PendingWrite) -> None:
        self._route_write(
            {
                "op": pending.op,
                "key": pending.key,
                "origin": self.node_id,
                "qid": wid,
                "attempt": pending.attempts,
                "hops": 0,
            }
        )

    def _route_write(self, payload: dict) -> None:
        key = payload["key"]
        op = payload["op"]
        origin = payload["origin"]
        qid = payload["qid"]
        hops = payload["hops"]
        # Write traffic passing through (origin, forwarder or owner)
        # invalidates our cached result for the key: the cheapest
        # coherence signal the serving layer gets for free.
        if self.serving is not None:
            self.serving.invalidate(key)
        level = level_toward(self.path, key)
        if level is None:
            self.apply_mutation(op, key)
            self._sync_replicas(op, key)
            if origin == self.node_id:
                self._complete_write(qid, hops)
            else:
                self.send(origin, P.UPDATE_ACK, {"qid": qid, "hops": hops})
            return
        kind = P.INSERT if op == "insert" else P.DELETE
        self._relay(self._writes, level, kind, payload, n_keys=1)

    def apply_mutation(self, op: str, key: int) -> None:
        """Apply one mutation to the local store (responsible keys only).

        An insert clears the key's tombstone (the insert is newer
        evidence than the delete that left it); a delete leaves one so
        union-style anti-entropy cannot resurrect the key.
        """
        if not self.responsible_for(key):
            return
        if op == "insert":
            self.keys.add(key)
            self.tombstones.discard(key)
            self._tombstone_born.pop(key, None)
        else:
            self.keys.discard(key)
            self._note_tombstones((key,))

    def _note_tombstones(self, keys) -> None:
        """Install death certificates, stamping only the *new* ones."""
        now = self.sim.now
        for key in keys:
            if key not in self.tombstones:
                self.tombstones.add(key)
                self._tombstone_born[key] = now

    def _prune_tombstones(self) -> None:
        """Expire tombstones past their TTL (called where they ship).

        Keeps the per-exchange certificate payload bounded by recent
        delete activity instead of growing with every delete ever made.
        """
        if not self.tombstones:
            return
        ttl = self.config.tombstone_ttl_s
        horizon = self.sim.now - ttl
        expired = [
            key for key in self.tombstones
            if self._tombstone_born.get(key, 0.0) <= horizon
        ]
        for key in expired:
            self.tombstones.discard(key)
            self._tombstone_born.pop(key, None)

    def _sync_replicas(self, op: str, key: int) -> None:
        """Eagerly fan a just-applied mutation out to known replicas.

        Offline or partitioned replicas refuse the connect and simply
        miss the write -- they converge later through anti-entropy
        exchanges (that lag is the measurable replica divergence).
        """
        targets = sorted(self.replicas)
        if self.serving is not None:
            # Grant helpers serve our range, so they join the eager
            # fan-out -- grants stay write-coherent, not just TTL-fresh.
            targets += [h for h in sorted(self.serving.helpers) if h not in self.replicas]
        for rid in targets:
            if rid != self.node_id:
                self.send(rid, P.REPLICA_SYNC, {"op": op, "keys": [key]}, n_keys=1)

    def _on_replica_sync(self, msg: Message) -> None:
        op = msg.payload["op"]
        serving = self.serving
        for key in msg.payload["keys"]:
            self.apply_mutation(op, key)
            if serving is not None:
                serving.synced(op, key)

    def _on_insert(self, msg: Message) -> None:
        self._route_write(msg.payload)

    def _on_delete(self, msg: Message) -> None:
        self._route_write(msg.payload)

    # -- query-serving front end (pgrid.serving) -----------------------------
    #
    # The node's ``ServingState`` decides; the node sends.  ``serving_tick``
    # is driven by the scenario runner every ``decay_interval_s``.

    def serving_tick(self) -> None:
        """One decay-window boundary: close the served-query window and
        grant or revoke helper replicas accordingly."""
        serving = self.serving
        if serving is None:
            return
        hot = serving.end_window()
        if not self.online:
            return
        now = self.sim.now
        if hot and self.path.length > 0:
            keys = sorted(self.keys)
            expires = now + serving.policy.grant_ttl_s
            for cand in serving.grant_candidates(self.liveness):
                cause = self.send(
                    cand,
                    P.REPLICA_GRANT,
                    {"path": self.path, "keys": keys, "expires": expires},
                    n_keys=len(keys),
                )
                if cause in (None, "loss", "offline"):
                    serving.add_helper(cand, now)
        else:
            for hid in serving.revoke_all():
                self.send(hid, P.REPLICA_REVOKE, {"path": self.path})

    def _on_replica_grant(self, msg: Message) -> None:
        if self.serving is not None:
            payload = msg.payload
            self.serving.accept_grant(payload["path"], payload["keys"], payload["expires"])

    def _on_replica_revoke(self, msg: Message) -> None:
        if self.serving is not None:
            self.serving.drop_grant(msg.payload["path"])

    def _on_update_ack(self, msg: Message) -> None:
        self._complete_write(msg.payload["qid"], msg.payload["hops"])

    def _on_update_miss(self, msg: Message) -> None:
        self._dead_end(self._writes, msg.payload["qid"], msg.payload.get("attempt"))

    def _complete_write(self, wid: int, hops: int) -> None:
        pending = self._writes.get(wid)
        if pending is None or pending.done:
            return
        pending.hops = hops
        self._finish(wid, pending, True)

    # -- range queries (the shower, Sec. 2.3; one split with pgrid.search) -------

    def issue_range_query(self, lo: int, hi: int, box: Optional[ZBox] = None) -> int:
        """Originate a range query over ``[lo, hi)``; returns its qid.

        Implements the *shower* over the trie (:func:`split_range`, the
        data plane's step too): each node a ``range_query`` reaches
        ships the slice of it its own partition holds back to the origin
        (``range_part``, carrying the slice's bounds) and sends one
        ``range_query`` into every complementary subtree the rest
        intersects.  The query completes the moment the slices received
        cover ``[lo, hi)``, in whatever order they arrive.  A timeout or
        a dead end (a ``range_part`` with no slice) re-issues only the
        intervals still uncovered; keys deduplicate across attempts.  A
        ``box`` query showers its z-span, pruned to the box
        (:mod:`repro.pgrid.mdim`, "Showering a box").
        """
        self._query_seq += 1
        qid = (self.node_id << 20) | self._query_seq
        pending = _PendingRange(lo=lo, hi=hi, box=box, issued_at=self.sim.now)
        self._ranges[qid] = pending
        # Zero-delay first attempt, for the same reason as issue_query.
        self.sim.schedule(0.0, lambda: self._attempt(qid, pending))
        return qid

    def _launch_range(self, qid: int, pending: _PendingRange) -> None:
        gaps = pending.gaps()
        if not gaps:
            self._finish(qid, pending, True)  # an empty range is covered
        head = {"origin": self.node_id, "qid": qid, "attempt": pending.attempts, "hops": 0}
        if pending.box is not None:
            head["box"] = pending.box
        for lo, hi in gaps:
            if not self._route_range({**head, "lo": lo, "hi": hi}):
                return  # a local dead end retried or failed the op already

    def _route_range(self, payload: dict) -> bool:
        """Send this partition's slice home and one sub-range into each
        intersecting subtree.  ``False``: a forward of the origin's own
        launch dead-ended, which retried or failed the op in this call."""
        box = payload.get("box")
        own, subs = split_range(self.path, payload["lo"], payload["hi"], box)
        origin = payload["origin"]
        if own is not None:
            lo, hi = own
            matches = sorted(k for k in self.keys if lo <= k < hi)
            if box is not None:
                matches = [k for k in matches if box.contains(k)]
            self._send_range_part(origin, payload, matches, own)
        for level, lo, hi in subs:
            # No table: a showered range has many first hops, so a
            # timeout is evidence against none of them.
            sent = self._relay(None, level, P.RANGE_QUERY, {**payload, "lo": lo, "hi": hi})
            if not sent and origin == self.node_id:
                return False
        return True

    def _send_range_part(
        self, origin: int, payload: dict, keys: List[int], bounds: Optional[tuple]
    ) -> None:
        part = {"qid": payload["qid"], "keys": keys, "attempt": payload["attempt"],
                "hops": payload["hops"], "slice": bounds}
        if origin == self.node_id:
            self._absorb_range_part(part)
        else:
            self.send(origin, P.RANGE_PART, part, n_keys=len(keys))

    def _on_range_query(self, msg: Message) -> None:
        self._route_range(msg.payload)

    def _on_range_part(self, msg: Message) -> None:
        self._absorb_range_part(msg.payload)

    def _absorb_range_part(self, payload: dict) -> None:
        qid = payload["qid"]
        pending = self._ranges.get(qid)
        if pending is None or pending.done:
            return
        # Result slices are welcome from any attempt (keys deduplicate
        # and each slice is genuine coverage evidence); only retry
        # *control* is attempt-gated.
        pending.keys.update(payload["keys"])
        if payload["hops"] > pending.hops:
            pending.hops = payload["hops"]
        bounds = payload["slice"]
        if bounds is None:
            # Dead end: retry the gaps early, like a query miss.
            self._dead_end(self._ranges, qid, payload["attempt"])
        else:
            pending.covered.append(bounds)
            if not pending.gaps():
                self._finish(qid, pending, True)
