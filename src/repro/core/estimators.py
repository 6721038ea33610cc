"""Local estimators used by the decentralized indexing process (Secs. 3.2, 4.2).

Peers have no global knowledge; every quantity entering their decisions is
estimated from locally stored data keys and from the key sets exchanged in
pairwise interactions:

* :func:`estimate_split_fraction` -- the load fraction ``p`` of the lower
  half of the current partition, from a (sample of the) local key set;
* :func:`estimate_replica_count` -- the number of peers replicating the
  current partition, from the *overlap* of two peers' key sets
  (capture--recapture / Lincoln--Petersen maximum likelihood);
* :func:`estimate_partition_keys` -- the number of distinct keys in the
  partition from the same two-sample overlap.

The replica estimator satisfies the paper's calibration anchor: two peers
with identical key sets of size ``d_max`` yield an estimate of exactly
``n_min``, because the initial replication phase copies every key to
``n_min`` peers.

Each overlap formula is stated once, on counts
(:func:`replica_count_from_overlap`, :func:`partition_keys_from_overlap`),
which is what :mod:`repro.core.fig2` decides on; the public functions
count ``|A|``, ``|B|`` and ``|A ∩ B|`` on sets or :class:`KeyStore`\\ s and
delegate -- the oracle the engines' counting is tested against.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Iterable, Optional, Sequence, Union

from .._util import RngLike, make_rng
from ..exceptions import DomainError
from ..pgrid.keyspace import KEY_BITS
from ..pgrid.keystore import KeyStore

KeySetLike = Union[AbstractSet[int], KeyStore]

__all__ = [
    "estimate_split_fraction",
    "estimate_replica_count",
    "estimate_partition_keys",
    "sample_keys",
]


def sample_keys(keys: Sequence[int], m: Optional[int], rng: RngLike = None) -> Sequence[int]:
    """Draw ``m`` keys without replacement (all keys if ``m`` is ``None`` or
    exceeds the population)."""
    keys = list(keys)
    if m is None or m >= len(keys):
        return keys
    if m < 1:
        raise DomainError(f"sample size must be >= 1, got {m}")
    rand = make_rng(rng)
    return rand.sample(keys, m)


def estimate_split_fraction(keys: Iterable[int], level: int) -> float:
    """Fraction of keys falling into the ``0`` side of the level-``level``
    bisection -- the estimate ``p_hat`` driving the AEP probabilities.

    ``keys`` are integer keys already known to share the first ``level``
    bits (the current partition); the estimator simply counts the next
    bit.  Raises :class:`DomainError` for an empty key set: a peer with
    no data cannot form an estimate and must reconcile first.

    Because the keys share the partition prefix, "bit ``level`` is 0" is
    equivalent to "key below the partition midpoint", so the count is a
    plain comparison sweep (or a single binary search for a sorted
    :class:`KeyStore`) rather than a per-key bit extraction.
    """
    if not 0 <= level < KEY_BITS:
        raise DomainError(f"level {level} out of range [0, {KEY_BITS})")
    if isinstance(keys, KeyStore):
        total = len(keys)
        if total == 0:
            raise DomainError("cannot estimate a split fraction from zero keys")
        shift = KEY_BITS - 1 - level
        boundary = ((keys.min() >> (shift + 1)) * 2 + 1) << shift
        return keys.count_below(boundary) / total
    keys = keys if isinstance(keys, (set, frozenset, list, tuple)) else list(keys)
    total = len(keys)
    if total == 0:
        raise DomainError("cannot estimate a split fraction from zero keys")
    shift = KEY_BITS - 1 - level
    anchor = next(iter(keys))
    boundary = ((anchor >> (shift + 1)) * 2 + 1) << shift
    zeros = sum(1 for key in keys if key < boundary)
    return zeros / total


def _overlap_size(keys_a: KeySetLike, keys_b: KeySetLike) -> int:
    """``|A ∩ B|`` across plain sets and sorted :class:`KeyStore`\\ s."""
    if isinstance(keys_a, KeyStore):
        return keys_a.intersection_size(keys_b)
    if isinstance(keys_b, KeyStore):
        return keys_b.intersection_size(keys_a)
    return len(keys_a & keys_b)


def replica_count_from_overlap(size_a: int, size_b: int, overlap: int, n_min: int) -> float:
    """``R_hat = 1 + (n_min - 1) (|A| + |B|) / (2 |A ∩ B|)`` on counts; ``inf``
    when either sample or the overlap is empty.  The one statement of the
    formula :func:`estimate_replica_count` derives."""
    if size_a == 0 or size_b == 0 or overlap == 0:
        return math.inf
    return 1.0 + (n_min - 1) * (size_a + size_b) / (2.0 * overlap)


def partition_keys_from_overlap(size_a: int, size_b: int, overlap: int) -> float:
    """Lincoln--Petersen ``|A| |B| / |A ∩ B|`` on counts; ``|A| + |B|`` when a
    sample is empty and ``inf`` when the samples are disjoint.  The one
    statement of the formula behind :func:`estimate_partition_keys`."""
    if size_a == 0 or size_b == 0:
        return float(size_a + size_b)
    if overlap == 0:
        return math.inf
    return size_a * size_b / overlap


def estimate_replica_count(
    keys_a: KeySetLike,
    keys_b: KeySetLike,
    n_min: int,
) -> float:
    """Estimate the number of peers in the current partition from the
    overlap of two peers' key sets (Sec. 4.2).

    Under the model "each of the partition's distinct keys is replicated
    on exactly ``n_min`` of the partition's ``R`` peers", a key held by
    peer A is held by peer B with probability ``(n_min - 1) / (R - 1)``
    (the other ``n_min - 1`` replica slots fall on the remaining
    ``R - 1`` peers).  Equating that to the observed overlap fraction
    gives the capture--recapture maximum-likelihood estimate

    ``R_hat = 1 + (n_min - 1) * (|A| + |B|) / (2 |A ∩ B|)``

    With identical key sets it returns exactly ``n_min`` -- the paper's
    calibration anchor ("if D1 = D2 ... expect n_min peers, since keys
    were initially replicated n_min times").  With disjoint sets the
    population is unbounded from the two samples and ``inf`` is
    returned, which callers treat as "definitely enough peers to split".
    The arithmetic is :func:`replica_count_from_overlap`.
    """
    if n_min < 1:
        raise DomainError(f"n_min must be >= 1, got {n_min}")
    return replica_count_from_overlap(
        len(keys_a), len(keys_b), _overlap_size(keys_a, keys_b), n_min
    )


def estimate_partition_keys(
    keys_a: KeySetLike,
    keys_b: KeySetLike,
) -> float:
    """Estimate the number of *distinct* keys in the current partition from
    two peers' key sets (Lincoln--Petersen: ``|A| |B| / |A ∩ B|``).

    Returns ``inf`` for disjoint samples -- the two peers have evidence
    of at least ``|A| + |B|`` keys and no upper bound, so an overload
    test against any finite ``d_max`` should pass.  The arithmetic is
    :func:`partition_keys_from_overlap`.
    """
    return partition_keys_from_overlap(
        len(keys_a), len(keys_b), _overlap_size(keys_a, keys_b)
    )
