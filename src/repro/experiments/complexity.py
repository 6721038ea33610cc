"""Sec. 4.3: construction complexity -- sequential vs parallel.

The claim: both approaches move ``O(N log N)``-class total traffic, but
the standard maintenance model *serializes* its joins (latency ~ total
messages) while the parallel construction completes in ``O(log^2 N)``
rounds.  This harness sweeps the population size and reports both
measures so the latency gap and its growth are visible.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from ..baselines.sequential import compare_constructions
from ..workloads.datasets import uniform_keys

__all__ = ["latency_sweep"]


def latency_sweep(
    populations: Tuple[int, ...], *, seed: int
) -> List[Tuple[int, int, float, int, float, float]]:
    """Rows: (n, seq messages, seq latency, par rounds, speedup, log2^2 n)."""
    rows = []
    for n in populations:
        peer_keys = uniform_keys(n, 10, seed=seed + n)
        cmp = compare_constructions(peer_keys, n_min=5, d_max=50, rng=seed + 1)
        rows.append(
            (
                n,
                cmp.sequential_messages,
                cmp.sequential_latency,
                cmp.parallel_latency_rounds,
                cmp.latency_speedup,
                math.log2(n) ** 2,
            )
        )
    return rows
