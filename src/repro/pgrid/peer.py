"""P-Grid peer state (Sec. 2.1).

A peer is responsible for the key-space partition identified by its
``path``; it stores the data keys of that partition, knows its structural
replicas (other peers with the same path) and keeps a per-level routing
table into the complementary subtrees.

Keys live in a sorted :class:`~repro.pgrid.keystore.KeyStore` so the
range-query hot path (``matching_keys``) runs in ``O(log n + hits)``
instead of scanning the whole key set; any iterable assigned to ``keys``
is coerced, so call sites may keep handing over plain sets.

Deletes leave a *tombstone* (a second, normally tiny ``KeyStore``):
replica reconciliation is a union, so without a death certificate a
deleted key would resurrect from the first stale replica it meets.
Tombstone semantics are delete-wins (see
:func:`repro.pgrid.replication.reconcile`); a subsequent insert clears
the tombstone on every peer it is applied to.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from ..exceptions import DomainError
from .bits import Path, ROOT
from .keyspace import KEY_BITS
from .keystore import KeyStore
from .routing import RoutingTable

__all__ = ["PGridPeer"]


class PGridPeer:
    """One overlay node.

    ``online`` models churn: offline peers drop every message addressed
    to them (queries retry through alternative references).
    """

    __slots__ = (
        "peer_id", "path", "_keys", "replicas", "routing", "online", "tombstones"
    )

    def __init__(
        self,
        peer_id: int,
        path: Path = ROOT,
        keys: Iterable[int] = (),
        replicas: Optional[Set[int]] = None,
        routing: Optional[RoutingTable] = None,
        online: bool = True,
    ):
        self.peer_id = peer_id
        self.path = path
        self.keys = keys  # property setter coerces into a KeyStore
        self.replicas = set(replicas) if replicas is not None else set()
        self.routing = routing if routing is not None else RoutingTable()
        self.online = online
        #: Death certificates of deleted keys (delete-wins reconciliation).
        self.tombstones = KeyStore()

    @property
    def keys(self) -> KeyStore:
        """The peer's stored data keys (always a sorted :class:`KeyStore`)."""
        return self._keys

    @keys.setter
    def keys(self, value: Iterable[int]) -> None:
        self._keys = value if isinstance(value, KeyStore) else KeyStore(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PGridPeer(peer_id={self.peer_id}, path={self.path!r}, "
            f"keys={len(self._keys)}, online={self.online})"
        )

    def responsible_for(self, key: int) -> bool:
        """True iff ``key`` falls inside this peer's partition."""
        return self.path.contains_key(key, KEY_BITS)

    def store(self, key: int) -> None:
        """Store a data key; rejects keys outside the partition.

        Applying an insert clears any local tombstone for the key -- the
        insert is newer evidence than the delete that left it.
        """
        if not self.responsible_for(key):
            raise DomainError(
                f"key {key} outside partition {self.path} of peer {self.peer_id}"
            )
        self._keys.add(key)
        if len(self.tombstones):
            self.tombstones.discard(key)

    def erase(self, key: int) -> None:
        """Delete a data key, leaving a tombstone; rejects foreign keys.

        Idempotent, and tombstones even keys not locally present -- an
        offline replica may still hold the key, and the tombstone is
        what kills it at the next reconciliation.
        """
        if not self.responsible_for(key):
            raise DomainError(
                f"key {key} outside partition {self.path} of peer {self.peer_id}"
            )
        self._keys.discard(key)
        self.tombstones.add(key)

    def matching_keys(self, lo: int, hi: int) -> List[int]:
        """Stored keys inside the half-open integer range ``[lo, hi)``.

        Sorted list, extracted in ``O(log n + hits)`` by binary search
        over the key store.
        """
        return self._keys.matching_keys(lo, hi)
