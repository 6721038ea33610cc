"""Global reference partitioner -- Algorithm 1, ``Partition(p, n, d)``.

The paper defines the *optimal* partitioning as the output of a recursive,
globally-coordinated bisection: split a partition while it is overloaded
(``d > d_max``) and there are enough peers to populate both halves
(``n >= 2 n_min``); assign peers to the halves proportionally to their
data loads, but never fewer than ``n_min`` to either half (lines 6-10).

The decentralized construction (``repro.core.construction``) is evaluated
by its deviation from this reference (Sec. 4.4); see
``repro.core.deviation``.
"""

from __future__ import annotations

import bisect as _bisect
from dataclasses import dataclass, field
from typing import List, Sequence

from ..exceptions import PartitionError
from ..pgrid.bits import Path, ROOT
from ..pgrid.keyspace import KEY_BITS, MAX_KEY

__all__ = ["ReferenceLeaf", "ReferencePartition", "reference_partition"]


@dataclass(frozen=True)
class ReferenceLeaf:
    """One leaf of the reference partitioning.

    ``path``
        the trie path / key-space partition;
    ``n_peers``
        peers assigned by Algorithm 1 (fractional in the idealized real-
        valued recursion, integral if ``integer_peers`` was requested);
    ``n_keys``
        distinct data keys falling inside the partition.
    """

    path: Path
    n_peers: float
    n_keys: int


@dataclass
class ReferencePartition:
    """The complete output of Algorithm 1 over a key population."""

    leaves: List[ReferenceLeaf] = field(default_factory=list)
    d_max: float = 0.0
    n_min: int = 0

    @property
    def paths(self) -> List[Path]:
        """All leaf paths in key-space order."""
        return [leaf.path for leaf in self.leaves]

    @property
    def total_peers(self) -> float:
        """Sum of assigned peers (conserved by the recursion)."""
        return sum(leaf.n_peers for leaf in self.leaves)

    @property
    def total_keys(self) -> int:
        """Sum of keys over the leaves (equals the distinct key count)."""
        return sum(leaf.n_keys for leaf in self.leaves)

    @property
    def depth(self) -> int:
        """Maximum leaf depth (trie height)."""
        return max((leaf.path.length for leaf in self.leaves), default=0)

    def mean_replication(self) -> float:
        """Average number of peers per leaf -- the replication the overlay
        offers for a uniformly chosen partition."""
        if not self.leaves:
            return 0.0
        return self.total_peers / len(self.leaves)

    def leaf_for_key(self, key: int) -> ReferenceLeaf:
        """The leaf whose partition contains the integer ``key``."""
        for leaf in self.leaves:
            if leaf.path.contains_key(key, KEY_BITS):
                return leaf
        raise PartitionError(f"no leaf covers key {key}")


def reference_partition(
    keys: Sequence[int],
    n_peers: int,
    *,
    d_max: float,
    n_min: int,
    integer_peers: bool = False,
    max_depth: int = KEY_BITS,
) -> ReferencePartition:
    """Run Algorithm 1 on a population of integer keys.

    The keys are sorted and deduplicated once; the recursion then counts
    a half's keys with two binary searches of that sorted list.

    Parameters
    ----------
    keys:
        The distinct data keys (integers in ``[0, 2^KEY_BITS)``).
        Duplicates are tolerated and counted once, matching the paper's
        storage-load measure "number of keys present in the partition".
        A key outside the key space raises :class:`PartitionError`
        naming it; it would otherwise weigh on a half it does not lie
        in.
    n_peers:
        Total number of peers to distribute.
    d_max:
        Maximal storage load per partition (split while ``d > d_max``).
    n_min:
        Minimal replication factor (never assign fewer than ``n_min``
        peers to a partition created by a split).
    integer_peers:
        If true, peer counts are kept integral by largest-remainder
        rounding at every split; otherwise the idealized real-valued
        recursion of the paper's analysis is used.
    max_depth:
        Safety bound on recursion depth (defaults to the key precision).

    Returns
    -------
    ReferencePartition
        Leaves in key-space order; peer counts sum to ``n_peers``.
    """
    sorted_keys = sorted(set(keys))
    if sorted_keys and (sorted_keys[0] < 0 or sorted_keys[-1] >= MAX_KEY):
        bad = next(key for key in keys if not 0 <= key < MAX_KEY)
        raise PartitionError(f"key {bad} out of range [0, 2^{KEY_BITS})")
    return _partition(
        sorted_keys,
        n_peers,
        d_max=d_max,
        n_min=n_min,
        integer_peers=integer_peers,
        max_depth=max_depth,
    )


def _partition(
    sorted_keys: Sequence[int],
    n_peers: int,
    *,
    d_max: float,
    n_min: int,
    integer_peers: bool,
    max_depth: int = KEY_BITS,
) -> ReferencePartition:
    """Algorithm 1 on sorted, distinct keys in ``[0, 2^KEY_BITS)``:
    :func:`reference_partition` without the sort and the key checks."""
    if n_peers < 1:
        raise PartitionError(f"need at least one peer, got {n_peers}")
    if n_min < 1:
        raise PartitionError(f"n_min must be >= 1, got {n_min}")
    if d_max <= 0:
        raise PartitionError(f"d_max must be positive, got {d_max}")

    result = ReferencePartition(leaves=[], d_max=d_max, n_min=n_min)

    def count_keys(lo: int, hi: int) -> int:
        """Distinct keys in the half-open integer range [lo, hi)."""
        return _bisect.bisect_left(sorted_keys, hi) - _bisect.bisect_left(sorted_keys, lo)

    def split_peers(n: float, d0: int, d1: int) -> tuple[float, float]:
        """Lines 2-11 of Algorithm 1: proportional assignment with an
        ``n_min`` floor for the lighter side."""
        d = d0 + d1
        n0 = n * d0 / d
        n1 = n - n0
        if n0 < n_min or n1 < n_min:
            if d0 <= d1:
                n0 = float(n_min)
                n1 = n - n0
            else:
                n1 = float(n_min)
                n0 = n - n1
        if integer_peers:
            n0_int = int(round(n0))
            n0_int = max(n_min, min(int(n) - n_min, n0_int))
            n0, n1 = float(n0_int), n - n0_int
        return n0, n1

    def recurse(path: Path, n: float, d: int) -> None:
        lo, hi = path.key_range(KEY_BITS)
        overloaded = d > d_max
        enough_peers = n >= 2 * n_min
        splittable = path.length < max_depth and hi - lo > 1
        if overloaded and enough_peers and splittable:
            mid = (lo + hi) // 2
            d0 = count_keys(lo, mid)
            d1 = d - d0
            if d0 > 0 and d1 > 0:
                n0, n1 = split_peers(n, d0, d1)
                recurse(path.extend(0), n0, d0)
                recurse(path.extend(1), n1, d1)
                return
            # All keys fall on one side: descend without splitting peers
            # (Algorithm 1 never assigns peers to zero-key partitions).
            # The empty side still becomes a (peer-less, key-less) leaf so
            # the leaves always tile the key space -- the deviation
            # metric's fractional attribution relies on that.
            if d0 > 0:
                result.leaves.append(
                    ReferenceLeaf(path=path.extend(1), n_peers=0.0, n_keys=0)
                )
                recurse(path.extend(0), n, d0)
            else:
                result.leaves.append(
                    ReferenceLeaf(path=path.extend(0), n_peers=0.0, n_keys=0)
                )
                recurse(path.extend(1), n, d1)
            return
        result.leaves.append(ReferenceLeaf(path=path, n_peers=n, n_keys=d))

    total = len(sorted_keys)
    recurse(ROOT, float(n_peers), total)
    result.leaves.sort(key=lambda leaf: leaf.path)
    return result
