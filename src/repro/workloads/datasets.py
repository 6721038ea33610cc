"""Per-peer key assignments for the experiments (Secs. 4.4, 5.1).

The paper's setup assigns each peer a small number of keys (10 by
default) drawn from one of the evaluation distributions.  These helpers
produce exactly those assignments as lists-of-lists of integer keys.
"""

from __future__ import annotations

from typing import List, Optional

from .._util import RngLike, make_rng
from ..exceptions import DomainError
from ..pgrid.keyspace import KeyCodec
from .distributions import distribution

__all__ = ["workload_keys", "uniform_keys", "flatten"]


def workload_keys(
    label: str,
    peers: int,
    keys_per_peer: int = 10,
    *,
    seed: RngLike = None,
    codec: Optional[KeyCodec] = None,
) -> List[List[int]]:
    """Per-peer integer keys from the distribution with figure label
    ``label`` (``"U"``, ``"P0.5"``, ``"P1.0"``, ``"P1.5"``, ``"N"``,
    ``"A"``).

    With a multi-dimensional ``codec``, each key encodes a point of
    ``codec.dims`` attributes drawn i.i.d. from the distribution;
    without one (or with a scalar codec) the classic one-dimensional
    sampling is used, draw for draw.
    """
    if peers < 1:
        raise DomainError(f"need at least one peer, got {peers}")
    if keys_per_peer < 1:
        raise DomainError(f"need at least one key per peer, got {keys_per_peer}")
    rand = make_rng(seed)
    dist = distribution(label)
    n = peers * keys_per_peer
    if codec is not None and codec.dims > 1:
        flat = codec.encode_many(dist.sample_floats(n * codec.dims, rand))
    else:
        flat = dist.sample_keys(n, rand)
    return [
        flat[i * keys_per_peer : (i + 1) * keys_per_peer] for i in range(peers)
    ]


def uniform_keys(
    peers: int, keys_per_peer: int = 10, *, seed: RngLike = None
) -> List[List[int]]:
    """Shorthand for the uniform workload."""
    return workload_keys("U", peers, keys_per_peer, seed=seed)


def flatten(peer_keys: List[List[int]]) -> List[int]:
    """All keys of an assignment as one list (with duplicates)."""
    return [key for keys in peer_keys for key in keys]
