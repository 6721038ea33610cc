"""The pre-existing unstructured overlay (bootstrap substrate).

The construction algorithm assumes "a pre-existing, generic, unstructured
overlay network" for random peer encounters (Sec. 2.2).  We model it as an
undirected random graph maintained by a bootstrap server: each joining
node receives ``degree`` random existing nodes as neighbors, yielding a
connected Erdos-Renyi-like topology.

Uniform random peer sampling -- "a non-trivial problem in itself which we
solve by a variant of random walks" -- is done by the wire nodes' ``WALK``
messages over these neighbor lists (:mod:`repro.simnet.node`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from .._util import RngLike, make_rng
from ..exceptions import SimulationError

__all__ = ["UnstructuredOverlay", "DEFAULT_DEGREE"]

#: Neighbors handed to each joining node.
DEFAULT_DEGREE = 5


@dataclass
class UnstructuredOverlay:
    """Adjacency of the unstructured bootstrap overlay."""

    degree: int = DEFAULT_DEGREE
    neighbors: Dict[int, Set[int]] = field(default_factory=dict)

    def join(self, node_id: int, rng: RngLike = None) -> List[int]:
        """Add a node, wiring it to up to ``degree`` random existing nodes.

        Returns the neighbor list assigned to the newcomer.
        """
        rand = make_rng(rng)
        if node_id in self.neighbors:
            raise SimulationError(f"node {node_id} already joined")
        existing = list(self.neighbors)
        self.neighbors[node_id] = set()
        if existing:
            chosen = rand.sample(existing, min(self.degree, len(existing)))
            for other in chosen:
                self.neighbors[node_id].add(other)
                self.neighbors[other].add(node_id)
        return sorted(self.neighbors[node_id])

    def neighbors_of(self, node_id: int) -> List[int]:
        """Sorted neighbor list."""
        return sorted(self.neighbors.get(node_id, ()))
