"""Sec. 6: range query cost -- in-network trie vs hash-DHT + PHT.

The paper argues qualitatively that uniform-hashing overlays with an
additional index on top pay "multiple overlay network queries" per range
while the data-oriented trie answers in-network.  This harness measures
both systems on identical data: message/hop counts per range width.
"""

from __future__ import annotations

from typing import List, Tuple

from .._util import make_rng
from ..baselines.hashdht import HashDHT, PrefixHashTree
from ..pgrid.keyspace import float_to_key
from ..pgrid.network import PGridNetwork
from ..workloads.distributions import distribution

__all__ = ["range_cost_sweep"]

#: Fractional range widths swept.
WIDTHS = [0.01, 0.05, 0.1, 0.25, 0.5]


def range_cost_sweep(
    *,
    n_nodes: int,
    n_keys: int,
    queries_per_width: int,
    seed: int,
    label: str = "U",
) -> List[Tuple[float, float, float, float]]:
    """Rows: (width, P-Grid messages, PHT hops, cost ratio).

    Both systems index the same ``n_keys`` keys over ``n_nodes`` nodes
    with comparable leaf capacities; costs are averaged over
    ``queries_per_width`` random ranges of each width.
    """
    rand = make_rng(seed)
    keys = distribution(label).sample_keys(n_keys, rng=rand)
    leaf_capacity = max(2 * n_keys // n_nodes, 8)

    net = PGridNetwork.ideal(
        keys, n_nodes, d_max=leaf_capacity, n_min=2, rng=seed + 1
    )
    dht = HashDHT(n_nodes, rng=seed + 2)
    pht = PrefixHashTree(dht, leaf_capacity=leaf_capacity)
    pht.build(keys)

    rows = []
    for width in WIDTHS:
        pgrid_costs = []
        pht_costs = []
        for q in range(queries_per_width):
            start = rand.uniform(0.0, 1.0 - width)
            lo = float_to_key(start)
            hi = float_to_key(min(start + width, 0.999999999))
            res = net.range_query(lo, hi, rng=seed + 100 + q)
            cost = pht.range_query(lo, hi)
            assert res.keys == cost.keys, "both systems must agree on results"
            pgrid_costs.append(res.messages)
            pht_costs.append(cost.hops)
        pgrid_mean = sum(pgrid_costs) / len(pgrid_costs)
        pht_mean = sum(pht_costs) / len(pht_costs)
        rows.append(
            (width, pgrid_mean, pht_mean, pht_mean / max(pgrid_mean, 1e-9))
        )
    return rows
