"""Standard *sequential* maintenance model (Secs. 1, 4.3, 6).

Classic structured overlays build and maintain themselves through
essentially sequential node joins: each joining peer routes to a target
partition, then either splits an overloaded partition with one resident
peer or becomes another replica.  The paper uses this model as the
baseline that its parallel construction is compared against:

* total messages ``O(N log N)`` -- each of ``N`` joins costs a routing
  walk of ``O(log N)``;
* *latency* ``O(N log N)`` -- the joins are serialized, so the wall-clock
  cost is the message total, whereas the parallel construction finishes
  in ``O(log^2 N)`` rounds.

This module also provides leave/failure handling and the lazy
"correction on use" repair that the experiments under churn rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .._util import RngLike, make_rng
from ..exceptions import RoutingError
from .bits import ROOT, Path
from .keyspace import KEY_BITS, bit_at
from .liveness import repair_routes
from .network import PGridNetwork
from .peer import PGridPeer
from .routing import RoutingTable
from .search import alive_ref, level_toward

__all__ = [
    "JoinStats",
    "sequential_join",
    "sequential_build",
    "fail_peer",
    "revive_peer",
    "repair_routes",
]


@dataclass
class JoinStats:
    """Cost accounting for one sequential join."""

    peer_id: int
    messages: int
    split: bool
    final_path: Path


def _route_to_partition(
    network: PGridNetwork, key: int, rand
) -> tuple[Optional[PGridPeer], int]:
    """Greedy prefix-route toward the partition holding ``key``: every
    hop takes the online reference whose path best matches it
    (:func:`~repro.pgrid.search.alive_ref`).

    Returns the responsible peer (or ``None`` on failure) and the number
    of messages spent.
    """
    current = network.random_online_peer(rand)
    if current is None:
        return None, 0
    messages = 0
    for _ in range(4 * KEY_BITS):
        level = level_toward(current.path, key)
        if level is None:
            return current, messages
        nxt = alive_ref(network, current, level, key, rand)
        if nxt is None:
            return None, messages
        current = nxt
        messages += 1
    return None, messages


def sequential_join(
    network: PGridNetwork,
    peer_id: int,
    keys: Sequence[int],
    *,
    d_max: float,
    n_min: int,
    rng: RngLike = None,
    max_refs: int = 4,
) -> JoinStats:
    """Join one peer into an existing overlay (standard maintenance).

    The newcomer routes toward the partition of (one of) its keys,
    reconciles with the resident peer and either splits the partition
    (if the resident group is overloaded in both storage and replica
    count) or stays as an additional replica.  Message counts include
    the routing walk and the content exchange.
    """
    rand = make_rng(rng)
    newcomer = PGridPeer(
        peer_id=peer_id,
        keys=set(map(int, keys)),
        routing=RoutingTable(max_refs_per_level=max_refs),
    )
    if not network.peers:
        network.peers[peer_id] = newcomer
        return JoinStats(peer_id=peer_id, messages=0, split=False, final_path=ROOT)

    anchor_key = (
        int(next(iter(newcomer.keys))) if newcomer.keys else rand.randrange(1 << KEY_BITS)
    )
    target, messages = _route_to_partition(network, anchor_key, rand)
    if target is None:
        raise RoutingError("sequential join could not locate a target partition")

    # Adopt the target's partition: inherit path, routing seeds, content.
    newcomer.path = target.path
    for level in range(target.path.length):
        for ref in target.routing.refs(level):
            newcomer.routing.add(level, ref)
    group = [network.peers[r] for r in target.replicas if r in network.peers]
    group.append(target)
    # Reconcile against the whole replica group: individual replicas may
    # hold keys (e.g. re-inserted ones) the target has not seen yet.
    group_keys = set(newcomer.keys)
    for peer in group:
        group_keys.update(peer.keys)
    partition_keys = {k for k in group_keys if target.responsible_for(k)}
    foreign = newcomer.keys - partition_keys
    messages += len(group)  # content reconciliation exchanges
    overloaded = len(partition_keys) > d_max and len(group) + 1 >= 2 * n_min
    split = False
    if overloaded and target.path.length < KEY_BITS - 1:
        # Split: the newcomer takes one side together with half the group,
        # the target keeps the other -- the sequential analogue of the
        # balanced split.
        level = target.path.length
        zeros = {k for k in partition_keys if bit_at(k, level) == 0}
        ones = partition_keys - zeros
        minority_side = 0 if len(zeros) <= len(ones) else 1
        newcomer_side = minority_side
        new_path = target.path.extend(newcomer_side)
        old_path = target.path.extend(1 - newcomer_side)
        movers = group[: max(n_min - 1, len(group) // 2)]
        stayers = [g for g in group if g not in movers]
        for peer, side, path in (
            [(newcomer, newcomer_side, new_path)]
            + [(m, newcomer_side, new_path) for m in movers]
            + [(s, 1 - newcomer_side, old_path) for s in stayers]
        ):
            peer.path = path
            peer.keys = {k for k in partition_keys if bit_at(k, level) == side}
            messages += 1
        new_group = [newcomer] + movers
        old_group = stayers
        for peer in new_group:
            peer.replicas = {p.peer_id for p in new_group} - {peer.peer_id}
            for other in old_group:
                peer.routing.add(level, other.peer_id)
        for peer in old_group:
            peer.replicas = {p.peer_id for p in old_group} - {peer.peer_id}
            for other in new_group:
                peer.routing.add(level, other.peer_id)
        split = True
    else:
        # Become a replica of the target's group.
        newcomer.keys = set(partition_keys)
        for peer in group:
            peer.keys = set(partition_keys)
            peer.replicas.add(peer_id)
            newcomer.replicas.add(peer.peer_id)
            messages += 1

    # Foreign keys are re-inserted through normal routing; the insert
    # stores the key on the responsible peer and its replica group.
    network.peers[peer_id] = newcomer
    for key in foreign:
        res = network.insert(key, rng=rand)
        messages += res.hops + 1
    return JoinStats(
        peer_id=peer_id, messages=messages, split=split, final_path=newcomer.path
    )


@dataclass
class SequentialBuildResult:
    """Aggregate cost of building an overlay by sequential joins."""

    network: PGridNetwork
    total_messages: int
    join_messages: List[int]

    @property
    def latency(self) -> int:
        """Serialized latency: the joins happen one after another, so the
        wall-clock cost equals the total message count (Sec. 4.3)."""
        return self.total_messages


def sequential_build(
    peer_keys: Sequence[Sequence[int]],
    *,
    d_max: float,
    n_min: int,
    rng: RngLike = None,
) -> SequentialBuildResult:
    """Build a full overlay by joining peers one at a time (the baseline)."""
    rand = make_rng(rng)
    network = PGridNetwork()
    messages: List[int] = []
    for pid, keys in enumerate(peer_keys):
        stats = sequential_join(
            network, pid, keys, d_max=d_max, n_min=n_min, rng=rand
        )
        messages.append(stats.messages)
    return SequentialBuildResult(
        network=network, total_messages=sum(messages), join_messages=messages
    )


def fail_peer(network: PGridNetwork, peer_id: int) -> None:
    """Mark a peer offline (crash/churn departure)."""
    network.peer(peer_id).online = False


def revive_peer(network: PGridNetwork, peer_id: int) -> None:
    """Bring a failed peer back online (churn return).

    The peer rejoins with its path, keys and routing table intact --
    the P-Grid model of transient unavailability; content it missed
    while away converges back through anti-entropy.
    """
    network.peer(peer_id).online = True


# The lazy "correction on use" repair the experiments under churn rely
# on lives in :mod:`repro.pgrid.liveness` (the shared route-repair
# subsystem, oracle-evidence instance); ``repair_routes`` is
# re-exported above because maintenance is where the data plane's
# clients historically found it.
