"""Load-balancing quality metric of Sec. 4.4.

The decentralized construction is scored by how far the resulting
assignment of peers to key-space partitions deviates from the reference
produced by Algorithm 1 (``repro.core.reference``) with global knowledge:

    deviation = RMS_i( n_i - n'_i ) / mean_i( n_i )

where ``n_i`` is the reference peer count of leaf ``i`` and ``n'_i`` the
peer mass the decentralized overlay puts on that leaf.  Normalizing by the
average replication makes the metric comparable across ``n_min`` values,
matching the paper's "we measure deviations relative to the average
replication".

A decentralized peer whose path does not coincide with a reference leaf is
attributed *fractionally*: a peer covering a super-interval of several
leaves spreads its unit mass over them proportionally to interval overlap,
and a peer strictly inside a leaf contributes its whole unit to it.  Total
attributed mass always equals the peer count.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..exceptions import PartitionError
from ..pgrid.bits import Path
from .reference import ReferencePartition

__all__ = ["attribute_peers", "load_balance_deviation"]


def attribute_peers(
    peer_paths: Sequence[Path],
    reference: ReferencePartition,
) -> List[float]:
    """Fractional peer mass per reference leaf.

    For each peer path ``w`` and leaf path ``k``: if ``k`` is a prefix of
    ``w`` (peer inside leaf) the peer contributes 1 to that leaf; if ``w``
    is a proper prefix of ``k`` (peer spans several leaves) it contributes
    ``2^(len(w) - len(k))`` -- the fraction of its own interval the leaf
    occupies; disjoint pairs contribute nothing.  Contributions over all
    leaves sum to 1 per peer because the leaves tile the key space.
    """
    leaves = reference.leaves
    if not leaves:
        raise PartitionError("reference partition has no leaves")
    masses = [0.0] * len(leaves)
    # Leaves are sorted in key-space order; locate each peer by binary
    # search on interval start to keep attribution O(P log K).
    starts = [leaf.path.interval()[0] for leaf in leaves]
    import bisect as _bisect

    for w in peer_paths:
        w_lo, w_hi = w.interval()
        # First leaf whose interval could intersect [w_lo, w_hi).
        i = _bisect.bisect_right(starts, w_lo) - 1
        i = max(i, 0)
        while i < len(leaves):
            k = leaves[i].path
            k_lo, k_hi = k.interval()
            if k_lo >= w_hi:
                break
            overlap = min(w_hi, k_hi) - max(w_lo, k_lo)
            if overlap > 0:
                masses[i] += overlap / (w_hi - w_lo)
            i += 1
    return masses


def load_balance_deviation(
    peer_paths: Sequence[Path],
    reference: ReferencePartition,
) -> float:
    """The paper's deviation metric: RMS leaf error over mean replication.

    Zero iff the decentralized peer mass matches the reference exactly on
    every leaf; dimensionless and invariant under scaling both peer
    populations by a common factor.
    """
    masses = attribute_peers(peer_paths, reference)
    errors = [
        leaf.n_peers - mass for leaf, mass in zip(reference.leaves, masses)
    ]
    k = len(reference.leaves)
    rms = math.sqrt(sum(e * e for e in errors) / k)
    mean_replication = reference.total_peers / k
    if mean_replication == 0:
        raise PartitionError("reference partition assigns zero peers")
    return rms / mean_replication
