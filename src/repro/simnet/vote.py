"""Decentralized initiation of the indexing process (Sec. 4.1).

Any peer that locally decides a (re-)index would be useful floods a vote
request over the pre-existing unstructured overlay.  Replies carry each
peer's vote plus piggy-backed resource information (local storage offered
and data volume to index); they flow back along the flooding tree and are
aggregated en route to bound bandwidth.  The initiator then derives the
global parameters (``d_max`` from the average data volume and desired
``n_min``, Sec. 4.2) and floods the go/no-go decision.

This module implements the vote as a synchronous computation over the
overlay graph with explicit message accounting -- the initiation protocol
is orthogonal to the (asynchronous) index-construction process, as the
paper notes, so simulating its latency adds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from ..exceptions import SimulationError
from .topology import UnstructuredOverlay

__all__ = ["VoteOutcome", "PeerVote", "run_vote", "derived_parameters"]


@dataclass
class PeerVote:
    """One peer's reply to the vote request."""

    peer_id: int
    in_favor: bool
    local_keys: int
    storage_offered: int


@dataclass
class VoteOutcome:
    """Aggregated result of the initiation vote."""

    initiator: int
    yes: int
    no: int
    total_keys: int
    total_storage: int
    peers_reached: int
    messages: int

    @property
    def passed(self) -> bool:
        """Simple majority of reached peers."""
        return self.yes > self.no

    @property
    def avg_keys_per_peer(self) -> float:
        """``d_avg`` -- drives the ``d_max`` parameter (Sec. 4.2)."""
        if self.peers_reached == 0:
            return 0.0
        return self.total_keys / self.peers_reached


def run_vote(
    overlay: UnstructuredOverlay,
    initiator: int,
    vote_fn: Callable[[int], PeerVote],
    *,
    alive: Optional[Set[int]] = None,
) -> VoteOutcome:
    """Flood a vote from ``initiator`` and aggregate the replies.

    ``vote_fn(peer_id)`` produces each reached peer's vote.  The flood
    builds a BFS spanning tree over (alive) overlay edges; each edge
    carries one request and one aggregated reply, and the final decision
    flood costs one more message per edge of the tree -- all counted.
    """
    if initiator not in overlay.neighbors:
        raise SimulationError(f"initiator {initiator} is not part of the overlay")
    if alive is not None and initiator not in alive:
        raise SimulationError("initiator is offline")

    # BFS flood (requests).
    parent: Dict[int, Optional[int]] = {initiator: None}
    order: List[int] = [initiator]
    frontier = [initiator]
    messages = 0
    while frontier:
        nxt: List[int] = []
        for node in frontier:
            for neigh in overlay.neighbors_of(node):
                if alive is not None and neigh not in alive:
                    continue
                messages += 1  # request sent (duplicates are suppressed
                # by the receiver but still cost bandwidth)
                if neigh not in parent:
                    parent[neigh] = node
                    order.append(neigh)
                    nxt.append(neigh)
        frontier = nxt

    # Aggregate replies bottom-up along the spanning tree.
    votes = {pid: vote_fn(pid) for pid in order}
    yes = sum(1 for v in votes.values() if v.in_favor)
    no = len(votes) - yes
    total_keys = sum(v.local_keys for v in votes.values())
    total_storage = sum(v.storage_offered for v in votes.values())
    messages += len(order) - 1  # one aggregated reply per tree edge
    messages += len(order) - 1  # decision flood back down the tree

    return VoteOutcome(
        initiator=initiator,
        yes=yes,
        no=no,
        total_keys=total_keys,
        total_storage=total_storage,
        peers_reached=len(order),
        messages=messages,
    )


def derived_parameters(outcome: VoteOutcome, n_min: int) -> dict:
    """Global indexing parameters announced with the go decision.

    Sec. 4.2: ``d_max = d_avg * n_min * 2``, so that leaves settle with
    between ``n_min`` and ``2 n_min`` replicas under perfect balancing.
    """
    if n_min < 1:
        raise SimulationError(f"n_min must be >= 1, got {n_min}")
    d_avg = outcome.avg_keys_per_peer
    return {
        "n_min": n_min,
        "d_max": 2.0 * d_avg * n_min,
        "replication_copies": n_min - 1,
    }
