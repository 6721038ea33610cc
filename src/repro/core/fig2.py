"""The Fig. 2 interaction, decided in one place.

Two peers that meet during construction are in one of four relations
(:func:`relation`), and the paper's rules follow from it:

``split``
    both share a partition that is :func:`overloaded` -> balanced split
    with probability ``alpha`` of :func:`split_probabilities`;
``decide``
    one peer has already refined its path below the other's, whose
    partition is overloaded -> AEP :func:`rules_3_4` with ``beta``;
``replicate``
    both share a partition that is *not* overloaded -> they become
    replicas and reconcile their key sets (anti-entropy);
``refer``
    the partitions diverge -> the initiator gains a routing entry and is
    referred to a peer with a longer matching prefix.

Everything here is a pure function of counts (Sec. 4.2) and holds no
peer, key or generator: the round engine (:mod:`repro.core.construction`,
on key bitmaps) and the wire node (:mod:`repro.simnet.node`, on key sets)
build a :class:`Meeting`, ask, draw their own uniforms and apply the answer.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Tuple

from ..pgrid.bits import Path
from ..pgrid.keyspace import KEY_BITS
from .estimators import partition_keys_from_overlap, replica_count_from_overlap
from .probabilities import (
    DecisionProbabilities,
    decision_probabilities,
    heuristic_probabilities,
)

__all__ = [
    "STRATEGIES",
    "Meeting",
    "relation",
    "overloaded",
    "split_probabilities",
    "rules_3_4",
]

#: Strategies for choosing the split probabilities (Fig. 6(d) ablation).
STRATEGIES = ("theory", "uncorrected", "heuristic")

SAME, A_UNDECIDED, B_UNDECIDED, DIVERGED = "same", "a_undecided", "b_undecided", "diverged"


def relation(a: Path, b: Path) -> str:
    """Classify a pair of paths per Fig. 2: equal, one a proper prefix of
    the other (that peer is still undecided at its level), or diverged."""
    if a == b:
        return SAME
    if a.is_prefix_of(b):
        return A_UNDECIDED
    if b.is_prefix_of(a):
        return B_UNDECIDED
    return DIVERGED


class Meeting(NamedTuple):
    """What two peers learn by comparing key lists, counted once per meeting.

    ``level`` is the length of the shallower peer's path, whose partition
    may be refined; ``size_a``, ``size_b`` and ``overlap`` count both key
    sets in that partition and their intersection; ``known()`` is how many
    of its peers the pair's replica lists name -- a callable, because it
    costs a set union and only the last overload threshold asks.
    """

    level: int
    size_a: int
    size_b: int
    overlap: int
    known: Callable[[], int]

    @property
    def total(self) -> int:
        """``|A ∪ B|``."""
        return self.size_a + self.size_b - self.overlap

    def replica_estimate(self, n_min: int) -> float:
        """The Sec. 4.2 key-overlap estimate of the partition's peer count."""
        return replica_count_from_overlap(self.size_a, self.size_b, self.overlap, n_min)

    def replica_evidence(self, n_min: int) -> float:
        """Best local estimate of the partition's peer count: the overlap
        estimate, or the discovered replicas once they outnumber it
        (synchronized replicas estimate exactly ``n_min`` by design)."""
        r_hat = self.replica_estimate(n_min)
        return max(r_hat, float(self.known())) if math.isfinite(r_hat) else r_hat


def overloaded(meeting: Meeting, d_max: float, n_min: int) -> bool:
    """Local overload test: the partition at ``meeting.level`` justifies a
    further split.  Disjoint samples estimate "unbounded", i.e. definitely
    overloaded -- correct early in the process, when each peer has seen
    only a sliver of the partition."""
    if meeting.level >= KEY_BITS - 1 or not meeting.size_a or not meeting.size_b:
        return False
    if meeting.total <= d_max / 2.0:
        # Capture-recapture can report "unbounded" from two disjoint
        # slivers; require direct evidence of real volume before
        # declaring overload, so near-empty deep partitions settle.
        return False
    if partition_keys_from_overlap(meeting.size_a, meeting.size_b, meeting.overlap) <= d_max:
        return False
    return meeting.replica_evidence(n_min) >= 2 * n_min


def split_probabilities(
    zeros: int, m_eff: int, peers_hat: float, n_min: int, strategy: str
) -> Tuple[DecisionProbabilities, int]:
    """Decision probabilities for bisecting a partition, and its minority
    side, when ``zeros`` of the ``m_eff`` keys looked at (the pair's union
    or a sample of it) lie below the partition midpoint.

    The estimated minority fraction is floored at ``n_min / peers_hat``
    (the decentralized analogue of Algorithm 1's lines 6-10: never aim
    fewer than ``n_min`` peers at a side); the probability functions
    follow ``strategy`` (one of :data:`STRATEGIES`).
    """
    p_hat = zeros / m_eff
    minority = 0 if p_hat <= 0.5 else 1
    q = min(p_hat, 1.0 - p_hat)
    if math.isfinite(peers_hat) and peers_hat >= 2 * n_min:
        q = max(q, n_min / peers_hat)
    q = min(max(q, 1.0 / (4.0 * m_eff)), 0.5)
    if strategy == "heuristic":
        return heuristic_probabilities(q), minority
    if strategy == "uncorrected":
        return decision_probabilities(q), minority
    return decision_probabilities(q, m=m_eff), minority


def rules_3_4(
    decided_side: int, minority: int, beta: float, draw: Callable[[], float],
    has_opposite_ref: bool,
) -> Tuple[int, bool]:
    """AEP rules 3/4 for an undecided peer meeting one already decided for
    ``decided_side``: the side to take, and whether the decided peer itself
    becomes the reference covering the other side.

    ``draw`` yields one uniform in ``[0, 1)``; only rule 4 calls it.
    Joining the decided peer's own side takes a reference into the
    opposite subtree from its table; while it has none (transient) the
    undecided peer takes the opposite side, keeping both reachable.
    """
    if decided_side == minority:
        return 1 - minority, True  # rule 3: join the majority
    if draw() < beta:
        return minority, True  # rule 4, first case: join the minority
    if not has_opposite_ref:
        return 1 - decided_side, True
    return decided_side, False  # rule 4, second case: same side, shared reference
