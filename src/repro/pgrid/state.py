"""Durable per-peer state: versioned snapshots, a crash model, warm rejoin.

Production overlay nodes restart; until this module every return from
downtime was a *cold sponsored join* that rebuilt keystore, routing
table, tombstones, and liveness beliefs from nothing.  Here a peer's
durable state is captured as a versioned, deterministic dict (the
"snapshot") so a restarting node can resume from disk and reconcile only
the delta through the ordinary exchange / anti-entropy machinery.

Snapshot schema (``pgrid-state/v1``)
------------------------------------
A snapshot is a plain, JSON-serializable dict.  All collections are
sorted (or stored in their semantically ordered table order, for routing
refs) so two snapshots of identical state compare equal -- the property
the determinism goldens rely on.  Fields:

``schema``
    The literal string :data:`SCHEMA`; readers must reject others.
``kind``
    ``"peer"`` (data-plane :class:`~repro.pgrid.peer.PGridPeer`) or
    ``"node"`` (message-backend ``simnet.PGridNode``).
``peer_id`` / ``taken_at``
    Identity and the simulated capture time.
``path``
    The peer's trie path as a ``"0"/"1"`` string.
``keys`` / ``replicas``
    Sorted int lists.
``routing``
    ``[[level, [refs...]], ...]`` sorted by level; ref order inside a
    level preserves the routing table's insertion order (eviction is
    oldest-first, so order is state).
``tombstones``
    ``[[key, age_s], ...]`` sorted by key, where ``age_s`` is how long
    the death certificate had been alive at ``taken_at``.  On restore
    the birth time is rebased to ``taken_at - age_s`` on the *shared*
    simulation clock -- TTLs keep aging across downtime, exactly like a
    wall-clock expiry stamp on disk.  (Data-plane tombstones carry no
    clock; they snapshot with age 0.0.)
``node`` snapshots additionally carry ``original_keys``, ``outbox``,
``joined``, ``constructing``, and ``liveness`` (below).

Crash model
-----------
Two shutdown flavours, driven by the scenario runners:

* **clean shutdown** -- a checkpoint is taken at the shutdown instant,
  so the snapshot is exact and restore loses nothing.  Acked writes and
  tombstones survive by construction (property-tested).
* **crash** -- the in-memory state is lost; restore falls back to the
  last *periodic* checkpoint, which is stale by up to
  :data:`SNAPSHOT_INTERVAL_S`.  Writes, replica syncs, and
  tombstones that landed after that checkpoint are gone and must be
  re-learned (or are genuinely lost, which the scenario report's
  ``recovery`` section quantifies as ``lost_acked_writes`` /
  ``tombstone_resurrections``).

With ``DurabilityPolicy(enabled=False)`` no snapshots exist and every
restart is a cold sponsored join -- the pre-PR baseline, preserved
behind the flag with the same on/off story as route repair.

Warm-rejoin reconciliation contract
-----------------------------------
Restoring a snapshot makes the peer *operational*, not *trusted*:

1. Keys, outbox, and tombstones resume as-is; the delta accumulated
   while down is reconciled through the existing exchange /
   anti-entropy machinery (one exchange with a restored replica is
   initiated on rejoin; periodic maintenance finishes the job).
2. Restored routing refs are handed to the liveness state machine
   **unconfirmed**: the beliefs are wiped (strikes, nonces and earned
   back-off do not survive a restart) and every restored
   ``last_confirmed`` stamp is rebased and capped so
   :meth:`~repro.pgrid.liveness.ReferenceTable.needs_confirmation` is
   immediately true.  Every level has therefore lapsed: the next
   ``refresh_routes`` pass probes one reference per level, and the
   spares are confirmed on first use instead of being trusted blindly.
3. Eviction cooldowns (``evicted_at``) are restored with their age so a
   ref evicted just before shutdown cannot be gossip-readded right
   after restore.

A node's :class:`~repro.pgrid.liveness.ReferenceTable` says what it
keeps (``belief_ages``) and takes it back (``restore``); this module
files that under the ``routing`` and ``liveness`` keys.  The
``pgrid-state/v1`` layout is unchanged: the same keys, pairs and orders
as when this module read the table's dicts itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..exceptions import DomainError
from .bits import Path

__all__ = [
    "SCHEMA",
    "DurabilityPolicy",
    "StateStore",
    "snapshot_peer",
    "restore_peer",
    "snapshot_node",
    "restore_node",
]

#: Snapshot schema version; bump when the dict layout changes.
SCHEMA = "pgrid-state/v1"
#: Periodic checkpoint cadence while restarts are in play -- the
#: staleness bound a *crash* restore pays.  Clean shutdowns checkpoint
#: at the shutdown instant regardless.
SNAPSHOT_INTERVAL_S = 60.0


@dataclass(frozen=True)
class DurabilityPolicy:
    """The on/off switch of the persistence subsystem.

    ``enabled=False`` is the cold-join baseline: no snapshots are taken
    and every restart rebuilds from a sponsored join (the pre-existing
    behaviour, kept behind the flag for A/B benchmarking like
    :class:`~repro.pgrid.liveness.RouteRepairPolicy`).  The checkpoint
    cadence is :data:`SNAPSHOT_INTERVAL_S`.
    """

    enabled: bool = True


class StateStore:
    """The simulated "disk": latest snapshot per peer id.

    Only the most recent checkpoint is retained (restart recovery never
    reads older ones), so the store is O(peers) regardless of cadence.
    """

    def __init__(self):
        self._latest: Dict[int, Dict[str, Any]] = {}
        self.checkpoints = 0
        self.restores = 0

    def put(self, peer_id: int, snapshot: Dict[str, Any]) -> None:
        if snapshot.get("schema") != SCHEMA:
            raise DomainError(
                f"snapshot schema {snapshot.get('schema')!r} != {SCHEMA!r}"
            )
        self._latest[peer_id] = snapshot
        self.checkpoints += 1

    def get(self, peer_id: int) -> Optional[Dict[str, Any]]:
        return self._latest.get(peer_id)

    def discard(self, peer_id: int) -> None:
        self._latest.pop(peer_id, None)

    def __len__(self) -> int:
        return len(self._latest)


def _routing_entry(levels: Dict[int, list]) -> list:
    """Routing table levels as ``[[level, [refs...]], ...]`` sorted by
    level, preserving in-level (insertion) order."""
    return [[level, list(refs)] for level, refs in sorted(levels.items()) if refs]


def snapshot_peer(peer, now: float) -> Dict[str, Any]:
    """Capture a data-plane :class:`~repro.pgrid.peer.PGridPeer`.

    Data-plane tombstones carry no birth clock (the synchronous backend
    has no TTL machinery), so they snapshot with age 0.0.
    """
    return {
        "schema": SCHEMA,
        "kind": "peer",
        "peer_id": peer.peer_id,
        "taken_at": now,
        "path": str(peer.path),
        "keys": sorted(peer.keys),
        "replicas": sorted(peer.replicas),
        "routing": _routing_entry(peer.routing.levels),
        "tombstones": [[key, 0.0] for key in sorted(peer.tombstones)],
    }


def restore_peer(peer, snapshot: Dict[str, Any]) -> None:
    """Restore a data-plane peer in place from :func:`snapshot_peer`.

    The peer object's identity (``peer_id``) is unchanged; path, keys,
    replicas, routing refs, and tombstones are replaced wholesale.
    Restored routing refs may be stale -- the data plane's oracle
    ``repair_routes`` sweep re-validates them on the next maintenance
    tick (the data plane's equivalent of the liveness hand-off).
    """
    _check(snapshot, "peer", peer.peer_id)
    from .keystore import KeyStore

    peer.path = Path.from_string(snapshot["path"])
    peer.keys = KeyStore(snapshot["keys"])
    peer.replicas = set(snapshot["replicas"])
    peer.routing.install(dict(snapshot["routing"]))
    peer.tombstones = KeyStore(key for key, _age in snapshot["tombstones"])


def snapshot_node(node, now: float) -> Dict[str, Any]:
    """Capture a message-backend ``simnet.PGridNode``.

    Liveness beliefs are stored as *ages* relative to ``taken_at`` so
    restore can rebase them on the shared clock; which beliefs, and why
    not the rest: :meth:`~repro.pgrid.liveness.ReferenceTable.belief_ages`.
    """
    born = node._tombstone_born
    last_confirmed, evicted = node.liveness.belief_ages(now)
    return {
        "schema": SCHEMA,
        "kind": "node",
        "peer_id": node.node_id,
        "taken_at": now,
        "path": str(node.path),
        "keys": sorted(node.keys),
        "original_keys": sorted(node.original_keys),
        "outbox": sorted(node.outbox),
        "replicas": sorted(node.replicas),
        "routing": _routing_entry(node.routing),
        "tombstones": [
            [key, max(0.0, now - born.get(key, now))]
            for key in sorted(node.tombstones)
        ],
        "joined": node.joined,
        "constructing": node.constructing,
        "liveness": {"last_confirmed": last_confirmed, "evicted": evicted},
    }


def restore_node(node, snapshot: Dict[str, Any], now: float) -> None:
    """Restore a message-backend node in place from :func:`snapshot_node`.

    Implements the warm-rejoin reconciliation contract (module docs):
    tombstone birth times are rebased to ``taken_at - age`` so TTLs keep
    aging across downtime; every restored routing ref's
    ``last_confirmed`` is rebased *and capped* so the liveness machine
    re-probes it before trusting it; eviction cooldowns keep their age.
    Transient state (pending queries/writes/ranges, exchange nonces,
    probe strikes) starts empty -- it did not survive the restart.
    """
    _check(snapshot, "node", node.node_id)
    taken_at = snapshot["taken_at"]

    node.path = Path.from_string(snapshot["path"])
    node.keys = set(snapshot["keys"])
    node.original_keys = set(snapshot["original_keys"])
    node.outbox = set(snapshot["outbox"])
    node.replicas = set(snapshot["replicas"])
    node.tombstones = set()
    node._tombstone_born = {}
    ttl = node.config.tombstone_ttl_s
    for key, age in snapshot["tombstones"]:
        born = taken_at - age
        if now - born < ttl:  # already-expired certificates stay dead
            node.tombstones.add(key)
            node._tombstone_born[key] = born
    node.joined = snapshot["joined"]
    node.constructing = snapshot["constructing"]

    beliefs = snapshot["liveness"]
    node.liveness.restore(
        dict(snapshot["routing"]), beliefs["last_confirmed"], beliefs["evicted"], now
    )


def _check(snapshot: Dict[str, Any], kind: str, peer_id: int) -> None:
    if snapshot.get("schema") != SCHEMA:
        raise DomainError(
            f"snapshot schema {snapshot.get('schema')!r} != {SCHEMA!r}"
        )
    if snapshot.get("kind") != kind:
        raise DomainError(f"snapshot kind {snapshot.get('kind')!r} != {kind!r}")
    if snapshot.get("peer_id") != peer_id:
        raise DomainError(
            f"snapshot belongs to peer {snapshot.get('peer_id')}, "
            f"not {peer_id}"
        )
