"""Replica reconciliation (anti-entropy) between same-partition peers.

Structural replication -- several peers per key-space partition -- is the
paper's availability mechanism (Sec. 2.1).  Replicas converge on the same
key set through pairwise reconciliation, "using, e.g. [an] anti-entropy
algorithm" (Fig. 2, possibility 2).

Deletes and tombstones
----------------------
Reconciliation is a union, so a bare delete would resurrect from the
first stale replica it meets.  The write path therefore leaves a
*tombstone* per deleted key (:meth:`repro.pgrid.peer.PGridPeer.erase`);
:func:`reconcile` unions tombstones alongside keys and then applies them
to both sides -- **delete-wins** semantics: when a key is simultaneously
present on one replica and tombstoned on another, the delete prevails.
A later insert clears the tombstone on every peer it is applied to
(owner plus online replicas, then reconciliation), which is when a
re-insert of a previously deleted key becomes durable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from .._util import RngLike, make_rng, mean
from ..exceptions import DomainError
from .network import PGridNetwork
from .peer import PGridPeer

__all__ = [
    "ReconcileStats",
    "reconcile",
    "anti_entropy_sweep",
    "replica_divergence",
    "divergence_stats",
]


@dataclass
class ReconcileStats:
    """Keys exchanged during one pairwise reconciliation."""

    a_received: int
    b_received: int

    @property
    def keys_moved(self) -> int:
        """Total transferred keys (the bandwidth cost of the exchange)."""
        return self.a_received + self.b_received


def reconcile(a: PGridPeer, b: PGridPeer) -> ReconcileStats:
    """Pairwise anti-entropy: both peers end with the union of their keys.

    Only valid between peers of the same partition (same path); raises
    :class:`DomainError` otherwise, because merging across partitions
    would violate storage consistency.

    The union is one linear merge of the two sorted key stores (no
    intermediate difference sets); already-synchronized replicas -- the
    dominant case once a sweep has converged -- short-circuit on a
    C-level array comparison.
    """
    if a.path != b.path:
        raise DomainError(
            f"cannot reconcile peers of different partitions {a.path} vs {b.path}"
        )
    a_received, b_received = a.keys.reconcile_with(b.keys)
    if len(a.tombstones) or len(b.tombstones):
        # Death certificates travel with the exchange (counted as moved
        # keys: they cost wire bytes like any key) and win over presence.
        t_a, t_b = a.tombstones.reconcile_with(b.tombstones)
        if a_received or b_received or t_a or t_b:
            # Something moved: re-apply the certificates.  When nothing
            # moved in either direction, both sides were already
            # tombstone-consistent (every prior install ran this purge),
            # so the converged dominant case skips the O(tombstones)
            # sweep.
            a_received += t_a
            b_received += t_b
            for key in a.tombstones:
                a.keys.discard(key)
                b.keys.discard(key)
    a.replicas.add(b.peer_id)
    b.replicas.add(a.peer_id)
    return ReconcileStats(a_received=a_received, b_received=b_received)


def anti_entropy_sweep(
    network: PGridNetwork, *, rounds: int = 1, rng: RngLike = None
) -> int:
    """Run ``rounds`` of randomized pairwise reconciliation per partition.

    Each round pairs every online peer with a random online replica of the
    same partition.  Returns total keys moved.  Convergence is geometric:
    a partition of ``r`` replicas converges in ``O(log r)`` expected
    rounds.
    """
    if rounds < 1:
        raise DomainError(f"rounds must be >= 1, got {rounds}")
    rand = make_rng(rng)
    moved = 0
    for _ in range(rounds):
        for group in network.partitions().values():
            online = [network.peers[g] for g in group if network.peers[g].online]
            if len(online) < 2:
                continue
            for peer in online:
                partner = online[rand.randrange(len(online))]
                if partner is peer:
                    continue
                moved += reconcile(peer, partner).keys_moved
    return moved


def reconcile_down(network: PGridNetwork) -> int:
    """Flow keys down prefix chains: a peer whose partition *contains*
    another peer's partition pushes the matching keys to it.

    During construction, peers that stayed at a coarse path legitimately
    hold keys that also belong to the refined partitions below them; in
    the operational system those keys reach the deeper replicas through
    ordinary replicate interactions.  This helper performs that
    convergence step in one pass and returns the number of keys copied.
    Keys held by *nobody* covering a region remain missing -- real
    construction failures are not papered over.
    """
    from .keyspace import KEY_BITS
    from .keystore import KeyStore

    groups = network.partitions()
    # Union each partition's replica contents once, then walk every deep
    # partition's ancestor chain (O(partitions x depth) dictionary hits,
    # not the O(partitions^2) all-pairs prefix scan).
    unions = {}
    for path, pids in groups.items():
        union = KeyStore()
        for pid in pids:
            union.update(network.peers[pid].keys)
        unions[path] = union
    moved = 0
    for deep in sorted(groups, key=lambda p: p.length):
        lo, hi = deep.key_range(KEY_BITS)
        for length in range(deep.length):
            coarse_union = unions.get(deep.prefix(length))
            if coarse_union is None or not len(coarse_union):
                continue
            # Sorted store: the matching keys are one contiguous slice.
            matching = coarse_union.matching_keys(lo, hi)
            if not matching:
                continue
            for pid in groups[deep]:
                moved += network.peers[pid].keys.update_sorted(matching)
    return moved


def divergence_stats(groups: Iterable[List[Iterable[int]]]) -> Dict[str, float]:
    """Replica-staleness aggregates over replica groups of key sets.

    ``groups`` yields, per partition, the key collections of its
    replicas (any sized iterable of ints -- ``KeyStore`` or ``set``).
    Each replica's divergence is the fraction of its group's key union
    it is missing (0.0 = fully synchronized); ``stale_replicas`` counts
    replicas missing at least one key.  Both execution backends feed
    their end state through this one aggregator so the scenario
    report's ``writes.divergence`` section is comparable across them.
    Deterministic given a deterministic group order (callers iterate
    partitions in sorted-path order).
    """
    replicas = 0
    stale = 0
    fractions: List[float] = []
    for members in groups:
        sets = [set(ks) for ks in members]
        union: set = set()
        for ks in sets:
            union |= ks
        if not union:
            continue
        for ks in sets:
            replicas += 1
            fractions.append(1.0 - len(ks) / len(union))
            if len(ks) != len(union):
                stale += 1
    return {
        "replicas": replicas,
        "stale_replicas": stale,
        "mean": mean(fractions) if fractions else 0.0,
        "max": max(fractions, default=0.0),
    }


def replica_divergence(network: PGridNetwork) -> float:
    """Mean, over partitions, of the fraction of partition keys missing
    from an average replica (0.0 = perfectly synchronized)."""
    divergences: List[float] = []
    for group in network.partitions().values():
        peers = [network.peers[g] for g in group]
        union: set = set()
        for p in peers:
            union.update(p.keys)
        if not union:
            continue
        for p in peers:
            divergences.append(1.0 - len(p.keys) / len(union))
    if not divergences:
        return 0.0
    return sum(divergences) / len(divergences)
