"""Structural invariants a P-Grid overlay must keep under stress.

Three properties must survive *any* sequence of churn, maintenance and
membership events (they are what the paper's Sec. 2.1 structure means
operationally):

1. **Prefix-complete partition** -- the distinct peer paths tile the key
   space exactly: pairwise disjoint dyadic intervals whose widths sum to
   the whole space (:func:`check_partition_tiling`).
2. **Complementary routing** -- every routing reference at level ``l``
   of a peer with path ``p`` points at a peer whose path lies in the
   complementary subtree ``p[:l] + (1 - p[l])``, and no references exist
   beyond the peer's own depth (:func:`check_routing_complementarity`).
3. **Live key coverage** -- every key stored anywhere in a partition
   whose replica group has at least one online member is also stored on
   at least one *online* member, i.e. churn never silently strands data
   behind offline replicas once anti-entropy has run
   (:func:`live_key_coverage`, which returns the covered/total counts so
   callers can decide how converged they expect the overlay to be).

The randomized invariant test suite (``tests/test_scenario_invariants.py``)
drives generated churn/maintenance sequences against these checks; the
scenario runner reports the coverage ratio as part of replication health.
"""

from __future__ import annotations

from typing import Dict, Mapping, Set, Tuple

from ..exceptions import PartitionError, RoutingError
from ..pgrid.bits import Path
from ..pgrid.keyspace import KEY_BITS
from ..pgrid.network import PGridNetwork

__all__ = [
    "check_partition_tiling",
    "check_routing_complementarity",
    "live_key_coverage",
    "check_replica_divergence",
    "check_invariants",
]


def check_partition_tiling(
    network: PGridNetwork, *, allow_refinement: bool = False
) -> None:
    """Assert the peers' paths form a prefix-complete partition.

    Raises :class:`~repro.exceptions.PartitionError` if the distinct
    paths overlap or leave a gap.  Exact integer arithmetic: each path of
    length ``l`` covers ``2^(KEY_BITS - l)`` keys; a tiling covers every
    key exactly once.

    With ``allow_refinement=True`` the check tolerates *mid-refinement*
    states: maintenance-driven splits migrate a replica group one member
    at a time, so a parent path (say ``0``) may coexist with its
    children (``00``/``01``) until every member has re-specialized.
    Because paths are dyadic, two path intervals either nest or are
    disjoint -- so the relaxed invariant is still exact: the union of
    intervals must cover the key space with no *gap*, and any overlap
    must be an ancestor/descendant nesting (arbitrary overlap between
    unrelated partitions stays an error).
    """
    if not network.peers:
        raise PartitionError("empty overlay has no partition")
    paths = sorted({peer.path for peer in network.peers.values()})
    if allow_refinement:
        # Sort by (lo, widest-first) and sweep a cursor: a range starting
        # past the cursor is a gap; one starting at/below it either nests
        # inside the running cover (dyadic intervals cannot partially
        # overlap) or extends it.
        ranges = sorted(
            (path.key_range(KEY_BITS) for path in paths),
            key=lambda r: (r[0], -r[1]),
        )
        cursor = 0
        for lo, hi in ranges:
            if lo > cursor:
                raise PartitionError(
                    f"partition gap: keys {cursor}..{lo} uncovered"
                )
            cursor = max(cursor, hi)
        if cursor != (1 << KEY_BITS):
            raise PartitionError(
                f"partitions cover {cursor} of {1 << KEY_BITS} keys"
            )
        return
    covered = 0
    previous_hi = 0
    for path in paths:
        lo, hi = path.key_range(KEY_BITS)
        if lo != previous_hi:
            raise PartitionError(
                f"partition {path} starts at {lo}, expected {previous_hi} "
                f"({'overlap' if lo < previous_hi else 'gap'})"
            )
        covered += hi - lo
        previous_hi = hi
    if covered != (1 << KEY_BITS):
        raise PartitionError(
            f"partitions cover {covered} of {1 << KEY_BITS} keys"
        )


def check_routing_complementarity(network: PGridNetwork) -> None:
    """Assert every routing reference targets the complementary subtree.

    Raises :class:`~repro.exceptions.RoutingError` on a dangling
    reference, a reference outside the complementary subtree, or a
    populated level at or beyond the peer's own path length.
    """
    for peer in network.peers.values():
        for level, refs in peer.routing.levels.items():
            if level >= peer.path.length:
                if refs:
                    raise RoutingError(
                        f"peer {peer.peer_id} (path {peer.path}) has references "
                        f"at level {level} beyond its depth"
                    )
                continue
            comp = peer.path.prefix(level).extend(1 - peer.path.bit(level))
            for ref in refs:
                other = network.peers.get(ref)
                if other is None:
                    raise RoutingError(
                        f"peer {peer.peer_id} references unknown peer {ref} "
                        f"at level {level}"
                    )
                if not comp.is_prefix_of(other.path):
                    raise RoutingError(
                        f"peer {peer.peer_id} level-{level} reference {ref} "
                        f"(path {other.path}) lies outside complementary "
                        f"subtree {comp}"
                    )


def live_key_coverage(peers: Mapping[int, object]) -> Tuple[int, int]:
    """``(covered, total)`` live-coverage counts over replica groups.

    ``peers`` is a ``{pid: peer}`` population -- ``PGridNetwork.peers``
    or the message backend's nodes; only ``path``, ``online`` and
    ``keys`` are read, and a replica group is the peers sharing a path.
    ``total`` counts the distinct keys stored anywhere in a replica
    group that has at least one online member; ``covered`` counts those
    also held by at least one *online* member of that group.  Groups
    that are entirely offline are excluded -- their data is unreachable
    but not *lost*, and comes back when a replica returns.
    """
    groups: Dict[Path, list] = {}
    for peer in peers.values():
        groups.setdefault(peer.path, []).append(peer)
    covered = 0
    total = 0
    for members in groups.values():
        online = [p for p in members if p.online]
        if not online:
            continue
        union: Set[int] = set()
        for p in members:
            union.update(p.keys)
        live: Set[int] = set()
        for p in online:
            live.update(p.keys)
        total += len(union)
        covered += len(union & live)
    return covered, total


def check_replica_divergence(
    network: PGridNetwork, *, max_mean: float = 0.0
) -> None:
    """Assert mean replica divergence is within ``max_mean``.

    The write-path invariant: once anti-entropy has converged (every
    online replica reconciled, delete tombstones propagated), no replica
    may be missing keys its group holds -- divergence collapses to 0.
    Mid-run, callers pass the slack they expect from in-flight writes.
    Raises :class:`~repro.exceptions.PartitionError` on a breach.
    """
    from ..pgrid.replication import divergence_stats

    groups = network.partitions()
    stats = divergence_stats(
        [network.peers[pid].keys for pid in sorted(groups[path])]
        for path in sorted(groups)
    )
    if stats["mean"] > max_mean:
        raise PartitionError(
            f"replica divergence {stats['mean']:.6f} exceeds {max_mean:g} "
            f"({stats['stale_replicas']} of {stats['replicas']} replicas stale, "
            f"worst {stats['max']:.6f})"
        )


def check_invariants(network: PGridNetwork, *, require_full_coverage: bool = False) -> None:
    """Run all structural checks; optionally require full live coverage.

    Coverage is only a hard invariant once anti-entropy has converged
    (offline replicas may lag in between), so it is opt-in.
    """
    check_partition_tiling(network)
    check_routing_complementarity(network)
    if require_full_coverage:
        covered, total = live_key_coverage(network.peers)
        if covered != total:
            raise PartitionError(
                f"live replicas cover {covered} of {total} keys owned by "
                f"partitions with online members"
            )
