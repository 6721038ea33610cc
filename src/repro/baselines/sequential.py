"""Sequential-construction baseline (Secs. 1, 4.3).

Wraps :mod:`repro.pgrid.maintenance` into the same reporting shape as the
parallel construction so benches can print side-by-side rows:

* **messages**: both approaches are ``O(N log N)``-ish in total traffic;
* **latency**: the sequential build serializes every join, so its
  wall-clock latency equals its message count, while the parallel
  construction needs only ``O(log^2 N)`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .._util import RngLike, make_rng
from ..core.construction import ConstructionConfig, construct_overlay
from ..pgrid.maintenance import sequential_build

__all__ = ["ConstructionComparison", "compare_constructions"]


@dataclass
class ConstructionComparison:
    """Side-by-side costs of sequential vs parallel construction."""

    n_peers: int
    sequential_messages: int
    sequential_latency: float
    parallel_interactions: int
    parallel_latency_rounds: int

    @property
    def latency_speedup(self) -> float:
        """How much faster the parallel construction finishes.

        Sequential latency is measured in messages on the critical path
        (all serialized); parallel latency in rounds (each round is one
        parallel step of duration ~one interaction RTT).
        """
        if self.parallel_latency_rounds == 0:
            return float("inf")
        return self.sequential_latency / self.parallel_latency_rounds


def compare_constructions(
    peer_keys: Sequence[Sequence[int]],
    *,
    n_min: int = 5,
    d_max: float = 50.0,
    rng: RngLike = None,
) -> ConstructionComparison:
    """Build the same overlay twice -- sequentially and in parallel --
    and report the Sec. 4.3 cost split."""
    rand = make_rng(rng)
    seq = sequential_build(
        peer_keys, d_max=d_max, n_min=n_min, rng=make_rng(rand.randrange(2**31))
    )
    par = construct_overlay(
        peer_keys,
        ConstructionConfig(n_min=n_min, d_max=d_max),
        rng=make_rng(rand.randrange(2**31)),
    )
    return ConstructionComparison(
        n_peers=len(peer_keys),
        sequential_messages=seq.total_messages,
        sequential_latency=float(seq.latency),
        parallel_interactions=par.interactions,
        parallel_latency_rounds=par.rounds,
    )
