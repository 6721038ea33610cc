"""Query-serving front end: caches, batching and adaptive replication.

The overlay answers every query from the responsible replica group
(Sec. 2.1); under Zipf traffic ("millions of users" hit few keys) that
concentrates load on a handful of partitions.  The front end above it
attacks that three ways, all switched by one :class:`CachePolicy`
carried on ``ScenarioSpec.cache``.  A wire node holds its share as
``serving``: a :class:`ServingState`, which makes every decision that
needs no transport, when the policy is enabled, else ``None``.

**Result caches with write invalidation.**  Each query origin keeps a
:class:`ResultCache` of key -> presence; a hit answers locally at zero
wire cost.  Every node that routes (as origin, forwarder or owner) or
replica-syncs an ``insert``/``delete`` for a key drops its entry.
Coherence is not assumed but **audited**: every hit is compared against
the runner's authoritative view of the durable key set (updated at
write-ack time), and reports carry ``stale_read_rate`` = stale / hits.

**Route caches.**  Origins also remember *who answered* for a key
(:class:`RouteCache`).  Route entries survive writes -- the owner did
not move -- and die only on routing evidence (a direct-sent attempt
refused or timed out) or TTL, so a re-query after an invalidation goes
straight to the owner or one of its grant helpers, rotated
deterministically, instead of re-walking the trie.

**Batched issue with in-flight dedup.**  ``QueryMix.batch_size``
releases that many concurrent queries per arrival tick (at a divided
arrival rate, so the mean query rate is unchanged).  A lookup identical
to one in flight at its origin joins it as a *waiter*: all waiters
resolve exactly once with the primary's outcome and zero additional
messages -- also when the origin churns offline (``abort_inflight``).

**Adaptive replication.**  An owner whose served queries in one decay
window reach ``hot_threshold`` grants its key range to up to
:data:`REPLICA_BOOST` routing-table neighbours (``REPLICA_GRANT``: path
and keys, expiring after ``grant_ttl_s``); helpers answer for the range
and join the owner's ``REPLICA_SYNC`` fan-out, so grants stay
write-coherent.  A cooler window revokes (``REPLICA_REVOKE``).  Owners
advertise their helpers in ``QUERY_HIT`` replies, and the route caches'
rotation over them -- not the grant itself -- flattens the per-peer
load Gini.

**Front-end gateways.**  ``front_ends`` > 0 funnels message-backend
query origins through that many evenly spaced gateway nodes -- clients
attach to a front-end tier, not to arbitrary overlay nodes, which is
why per-node caches see repeats at all.  It applies to ``enabled=False``
runs too, so the on/off A/B isolates the cache machinery.

The dataplane backend has no wire and no per-node origins: one
front-end :class:`ResultCache` with the same TTL/invalidation contract,
and adaptive-replication counters of zero.  ``CachePolicy(enabled=False)``
runs the unmodified protocol but still emits the report's ``serving``
section (baseline latencies and load Gini), the off side of the A/B;
``cache=None`` omits the section, so older goldens stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from .._util import is_count
from ..exceptions import DomainError
from .bits import Path
from .keyspace import KEY_BITS

if TYPE_CHECKING:
    from .liveness import ReferenceTable

__all__ = ["CachePolicy", "ResultCache", "RouteCache", "ServingState", "gini"]

# Fixed values: no scenario or benchmark ever asked for another, so
# they are not fields of the policy (reports still echo them under
# ``serving.policy``).
#: Per-node result-cache capacity (oldest-inserted evicted first).
RESULT_CAPACITY = 256
#: Per-node route-cache capacity.
ROUTE_CAPACITY = 128
#: Helpers granted to a hot owner.
REPLICA_BOOST = 2

#: A node's serving counters, in report order.
COUNTERS = (
    "result_hits", "result_misses", "dedup_joined", "invalidations",
    "route_uses", "route_invalidations", "grants", "revokes", "grant_hits",
)


@dataclass(frozen=True)
class CachePolicy:
    """Knobs for the query-serving front end.

    ``enabled=False`` keeps protocol behaviour identical to having no
    policy at all -- caches never fill, dedup never joins, grants never
    fire -- but the report still carries the ``serving`` section so
    cache-off baselines are directly comparable.
    """

    enabled: bool = True
    #: Result entries older than this never serve (0 -> never serve).
    result_ttl_s: float = 30.0
    #: Route entries older than this are ignored.
    route_ttl_s: float = 240.0
    #: Queries served within one decay window that make an owner "hot".
    hot_threshold: int = 32
    #: Window length for the served-query counter (and grant decay).
    decay_interval_s: float = 60.0
    #: Backstop: helpers drop a grant this long after receiving it.
    grant_ttl_s: float = 300.0
    #: Gateway nodes message-backend queries enter through (0: any node;
    #: module docstring).  The data plane's one front end ignores it.
    front_ends: int = 0

    def validate(self) -> None:
        if not (self.result_ttl_s >= 0 and self.route_ttl_s >= 0):
            raise DomainError("cache TTLs must be >= 0")
        if not is_count(self.hot_threshold, 1):
            raise DomainError("hot_threshold must be an integer >= 1")
        if not self.decay_interval_s > 0:
            raise DomainError("decay_interval_s must be > 0")
        if not self.grant_ttl_s > 0:
            raise DomainError("grant_ttl_s must be > 0")
        if not is_count(self.front_ends, 0):
            raise DomainError("front_ends must be an integer >= 0")

    def scaled(self, duration_scale: float) -> "CachePolicy":
        """Dilate every time constant, mirroring ``ScenarioSpec.scaled``."""
        if duration_scale == 1.0:
            return self
        return replace(
            self,
            result_ttl_s=self.result_ttl_s * duration_scale,
            route_ttl_s=self.route_ttl_s * duration_scale,
            decay_interval_s=self.decay_interval_s * duration_scale,
            grant_ttl_s=self.grant_ttl_s * duration_scale,
        )


class _TtlCache:
    """Entries ``key -> (value, stored_at, ...)``, served only while
    strictly younger than the TTL (so ``ttl_s == 0`` never serves) and
    evicted oldest-inserted first at capacity (dict order: deterministic
    and cheap; reads do not refresh the order)."""

    __slots__ = ("_ttl", "_cap", "_entries")

    def __init__(self, ttl_s: float, capacity: int) -> None:
        self._ttl = ttl_s
        self._cap = capacity
        self._entries: Dict[int, Sequence] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _live(self, key: int, now: float) -> Optional[Sequence]:
        entry = self._entries.get(key)
        if entry is not None and now - entry[1] >= self._ttl:
            del self._entries[key]
            return None
        return entry

    def _store(self, key: int, entry: Sequence) -> None:
        entries = self._entries
        if key in entries:
            del entries[key]
        elif len(entries) >= self._cap:
            del entries[next(iter(entries))]
        entries[key] = entry

    def invalidate(self, key: int) -> bool:
        """Drop the entry for ``key``; True if one was present."""
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        self._entries.clear()


class ResultCache(_TtlCache):
    """TTL + invalidation cache of key -> presence-at-responsible."""

    __slots__ = ()

    def get(self, key: int, now: float) -> Optional[bool]:
        """Return the cached ``present`` flag, or None on miss/expiry."""
        entry = self._live(key, now)
        return None if entry is None else entry[0]

    def put(self, key: int, present: bool, now: float) -> None:
        self._store(key, (present, now))


class RouteCache(_TtlCache):
    """Remembered responders per key -- the answering node plus any
    grant helpers it advertised -- picked round-robin, so repeat
    queries for a hot key spread across the replica set."""

    __slots__ = ()

    def put(self, key: int, targets: Iterable[int], now: float) -> None:
        ordered = list(dict.fromkeys(targets))
        if ordered:
            self._store(key, [ordered, now, 0])

    def pick(self, key: int, now: float) -> Optional[int]:
        """Return the next target for ``key``, or None on miss/expiry."""
        entry = self._live(key, now)
        if entry is None:
            return None
        targets, _, nxt = entry
        entry[2] = (nxt + 1) % len(targets)
        return targets[nxt]


class ServingState:
    """One wire node's serving front end (module docstring): its caches,
    in-flight lookups, both sides of adaptive replication, the served
    window and the :data:`COUNTERS` (``stats``).  Each method decides or
    books; the node does the sends a decision calls for."""

    __slots__ = (
        "policy", "result_cache", "route_cache", "inflight", "waiters",
        "helpers", "grants", "window", "stats",
    )

    def __init__(self, policy: CachePolicy) -> None:
        self.policy = policy
        self.result_cache = ResultCache(policy.result_ttl_s, RESULT_CAPACITY)
        self.route_cache = RouteCache(policy.route_ttl_s, ROUTE_CAPACITY)
        #: key -> qid of its in-flight primary lookup (dedup joins it).
        self.inflight: Dict[int, int] = {}
        #: primary qid -> waiter qids resolved with the primary's outcome.
        self.waiters: Dict[int, List[int]] = {}
        #: Owner side: helper id -> grant time.
        self.helpers: Dict[int, float] = {}
        #: Helper side: granted path -> (key set, expires_at).
        self.grants: Dict[Path, Tuple[Set[int], float]] = {}
        #: Queries answered as owner within the current decay window.
        self.window = 0
        self.stats = dict.fromkeys(COUNTERS, 0)

    # -- origin side: results, dedup, routes ----------------------------------

    def cached(self, key: int, now: float) -> Optional[bool]:
        """A new lookup's cached answer, or None (a hit or miss, counted)."""
        present = self.result_cache.get(key, now)
        self.stats["result_misses" if present is None else "result_hits"] += 1
        return present

    def join(self, key: int, qid: int, pending: Dict[int, object]) -> bool:
        """Whether ``qid`` joins a pending lookup of ``key`` as its waiter
        (if not, it becomes the key's primary)."""
        primary = self.inflight.get(key)
        if primary is not None and primary in pending:
            self.waiters.setdefault(primary, []).append(qid)
            self.stats["dedup_joined"] += 1
            return True
        self.inflight[key] = qid
        return False

    def release(self, key: int, qid: int) -> Sequence[int]:
        """Lookup ``qid`` of ``key`` finished; returns its waiters."""
        if self.inflight.get(key) == qid:
            del self.inflight[key]
        return self.waiters.pop(qid, ())

    def route(self, key: int, now: float, own_id: int) -> Optional[int]:
        """The remembered responder to send a first attempt to, or None."""
        target = self.route_cache.pick(key, now)
        if target is None or target == own_id:
            return None
        self.stats["route_uses"] += 1
        return target

    def forget_route(self, key: int) -> None:
        """A direct send was refused or timed out: drop the route."""
        self.stats["route_invalidations"] += 1
        self.route_cache.invalidate(key)

    def remember(
        self, key: int, reply: dict, responder: Optional[int], own_id: int, now: float
    ) -> None:
        """Cache an answer's presence flag and, from a remote responder,
        whom to ask next: it first, then the helpers its reply named."""
        self.result_cache.put(key, reply["present"], now)
        if responder is not None:
            targets = [responder] + [
                t for t in reply.get("targets", ()) if t != own_id and t != responder
            ]
            self.route_cache.put(key, targets, now)

    def invalidate(self, key: int) -> None:
        """A write to ``key`` passed through: drop its cached result."""
        if self.result_cache.invalidate(key):
            self.stats["invalidations"] += 1

    # -- helper side ----------------------------------------------------------

    def grant_presence(self, key: int, now: float) -> Optional[bool]:
        """Presence flag if a live grant covers ``key`` (a grant hit,
        counted), else None; expired grants met are dropped."""
        grants = self.grants
        if not grants:
            return None
        for path, (keys, expires) in list(grants.items()):
            if now >= expires:
                del grants[path]
            elif path.contains_key(key, KEY_BITS):
                self.stats["grant_hits"] += 1
                return key in keys
        return None

    def accept_grant(self, path: Path, keys: Iterable[int], expires: float) -> None:
        self.grants[path] = (set(keys), expires)

    def drop_grant(self, path: Path) -> None:
        self.grants.pop(path, None)

    def synced(self, op: str, key: int) -> None:
        """A replica sync: drop the cached result, update covering grants."""
        self.invalidate(key)
        for path, (keys, _) in self.grants.items():
            if path.contains_key(key, KEY_BITS):
                if op == "insert":
                    keys.add(key)
                else:
                    keys.discard(key)

    # -- owner side -----------------------------------------------------------

    def served(self) -> List[int]:
        """One query answered as owner; returns the helpers to advertise."""
        self.window += 1
        return sorted(self.helpers)

    def end_window(self) -> bool:
        """Close the decay window; True if its load makes the owner hot."""
        hot = self.window >= self.policy.hot_threshold
        self.window = 0
        return hot

    def grant_candidates(self, table: "ReferenceTable") -> Iterator[int]:
        """References of ``table`` to offer a grant while fewer than
        :data:`REPLICA_BOOST` helpers hold one: deepest levels first
        (closest in the trie, so grant traffic stays local), live-believed
        only, helpers skipped.  The order is fixed before the first is
        offered, so a refused grant's strike does not change it."""
        levels = table.levels
        order = dict.fromkeys(
            ref for level in sorted(levels, reverse=True) for ref in levels[level]
            if not table.suspected(ref)
        )
        for ref in order:
            if len(self.helpers) >= REPLICA_BOOST:
                return
            if ref not in self.helpers:
                yield ref

    def add_helper(self, helper: int, now: float) -> None:
        """A grant's connect was accepted: ``helper`` serves our range."""
        self.helpers[helper] = now
        self.stats["grants"] += 1

    def revoke_all(self) -> List[int]:
        """The owner cooled: forget every helper; returns them to tell."""
        helpers = sorted(self.helpers)
        self.stats["revokes"] += len(helpers)
        self.helpers.clear()
        return helpers

    def clear(self) -> None:
        """A restart: caches, grants, helpers and window did not survive."""
        self.result_cache.clear()
        self.route_cache.clear()
        self.grants.clear()
        self.helpers.clear()
        self.window = 0


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a load distribution (0 = even, ->1 = skewed)."""
    ordered = sorted(values)
    n = len(ordered)
    total = float(sum(ordered))
    if n == 0 or total <= 0.0:
        return 0.0
    weighted = 0.0
    for i, v in enumerate(ordered, 1):
        weighted += i * v
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n
