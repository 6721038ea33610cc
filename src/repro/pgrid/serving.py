"""Query-serving front end: caches, batching and adaptive replication.

This module holds the policy object and the cache primitives for the
serving layer that sits above the overlay (ROADMAP open item 2).  The
overlay itself answers every query from the responsible replica group;
under Zipf traffic ("millions of users" hit few keys) that concentrates
load on a handful of partitions.  The serving layer attacks that three
ways, all switched by one :class:`CachePolicy` carried on
``ScenarioSpec.cache``:

**Result caches with write invalidation.**  Each query origin keeps a
:class:`ResultCache` mapping key -> (present, stored_at).  A hit answers
locally at zero wire cost.  Entries stop serving after
``result_ttl_s`` (a TTL of 0 therefore never serves -- the trivially
coherent configuration), and are *invalidated eagerly by write
traffic*: every node that applies, forwards or replica-syncs an
``insert``/``delete`` for key *k* drops its cached entry for *k*.
Coherence is not assumed but **audited**: every cache hit is compared
against the runner's authoritative view of the durable key set
(initialised from the workload keys and updated at write-ack time), and
reports carry the measured ``stale_read_rate`` = stale hits / hits.

**Route caches.**  Independently of results, origins remember *who
answered* for a key (:class:`RouteCache`).  Result entries die on every
write to their key; route entries survive writes -- the owner of the
partition did not move -- and only die on routing evidence (timeout of
a direct-sent attempt) or TTL.  After an invalidation the re-query goes
straight to the remembered owner (or one of its grant helpers, rotated
deterministically) instead of re-walking the trie.

**Batched issue with in-flight dedup.**  ``QueryMix.batch_size``
releases ``batch_size`` concurrent queries per arrival tick (arrival
rate is divided by the batch size so the mean query rate is unchanged).
A node that already has an identical lookup in flight attaches the new
query as a *waiter* on the primary; when the primary resolves, all
waiters resolve exactly once with the same outcome and zero additional
messages -- including the moot path when the origin churns offline
mid-flight (``abort_inflight``).

**Adaptive replication.**  Owners count queries served per decay
window.  Crossing ``hot_threshold`` makes the owner grant its key range
to up to :data:`REPLICA_BOOST` routing-table neighbours
(``REPLICA_GRANT``: path + keys, expiring after ``grant_ttl_s``).
Helpers answer queries for the granted range and receive the owner's
``REPLICA_SYNC`` fan-out so grants stay write-coherent.  When the
window load decays below the threshold the owner revokes
(``REPLICA_REVOKE``).  Owners advertise their helpers in ``QUERY_HIT``
replies so origin route caches rotate direct sends across the whole
replica set -- that rotation, not the grant itself, is what flattens
the per-peer load Gini.

**Front-end gateways.**  ``front_ends`` > 0 funnels message-backend
query origins through that many evenly spaced gateway nodes instead of
uniformly random ones -- the deployment shape the serving layer models
(clients attach to a front-end tier, not to arbitrary overlay nodes),
and the reason per-node caches see repeats at all.  The restriction is
applied for ``enabled=False`` runs too, so the on/off A/B isolates the
cache machinery.

The dataplane backend has no wire and no per-node origins; it models
the serving layer as a single front-end :class:`ResultCache` with the
same TTL/invalidation contract and reports adaptive-replication
counters as zeros.

``CachePolicy(enabled=False)`` runs the unmodified protocol but still
emits the report's ``serving`` section (baseline latency percentiles
and load Gini), giving the same on/off A/B story as route repair (PR 4)
and durability (PR 6).  ``cache=None`` omits the section entirely so
pre-existing goldens stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from .._util import is_count
from ..exceptions import DomainError

__all__ = ["CachePolicy", "ResultCache", "RouteCache", "gini"]

# Fixed values: no scenario or benchmark ever asked for another, so
# they are not fields of the policy (reports still echo them under
# ``serving.policy``).
#: Per-node result-cache capacity (oldest-inserted evicted first).
RESULT_CAPACITY = 256
#: Per-node route-cache capacity.
ROUTE_CAPACITY = 128
#: Helpers granted to a hot owner.
REPLICA_BOOST = 2


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
    #: Number of gateway nodes queries enter through on the message
    #: backend (0 = every node is a front end, i.e. unrestricted random
    #: origins).  A front end *is* the thing that owns caches: with
    #: origins spread over thousands of nodes no per-node cache ever
    #: sees a repeat.  The restriction applies to ``enabled=False`` runs
    #: too, so the cache on/off A/B differs only in the cache machinery,
    #: never in where queries enter.  The data plane models a single
    #: shared front end and ignores this knob.
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


class ResultCache:
    """TTL + invalidation cache of key -> presence-at-responsible.

    Entries are ``key -> (present, stored_at)``.  ``get`` serves only
    entries strictly younger than the TTL, so ``ttl_s == 0`` never
    serves.  Eviction is oldest-inserted-first (dict order), which is
    deterministic and cheap; hits do not refresh insertion order.
    """

    __slots__ = ("_ttl", "_cap", "_entries")

    def __init__(self, ttl_s: float, capacity: int) -> None:
        self._ttl = ttl_s
        self._cap = capacity
        self._entries: Dict[int, Tuple[bool, float]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: int, now: float) -> Optional[bool]:
        """Return the cached ``present`` flag, or None on miss/expiry."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        present, stored_at = entry
        if now - stored_at >= self._ttl:
            del self._entries[key]
            return None
        return present

    def put(self, key: int, present: bool, now: float) -> None:
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self._cap:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[key] = (present, now)

    def invalidate(self, key: int) -> bool:
        """Drop the entry for ``key``; True if one was present."""
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        self._entries.clear()


class RouteCache:
    """Remembered responders per key, with deterministic rotation.

    Entries are ``key -> (targets, stored_at, next_index)`` where
    ``targets`` is the answering node plus any advertised grant
    helpers.  ``pick`` rotates through the targets round-robin so
    repeat queries for a hot key spread across the replica set.
    """

    __slots__ = ("_ttl", "_cap", "_entries")

    def __init__(self, ttl_s: float, capacity: int) -> None:
        self._ttl = ttl_s
        self._cap = capacity
        self._entries: Dict[int, List] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, key: int, targets: Iterable[int], now: float) -> None:
        ordered = list(dict.fromkeys(targets))
        if not ordered:
            return
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self._cap:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[key] = [ordered, now, 0]

    def pick(self, key: int, now: float) -> Optional[int]:
        """Return the next target for ``key``, or None on miss/expiry."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        targets, stored_at, nxt = entry
        if now - stored_at >= self._ttl:
            del self._entries[key]
            return None
        entry[2] = (nxt + 1) % len(targets)
        return targets[nxt]

    def invalidate(self, key: int) -> bool:
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        self._entries.clear()


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
