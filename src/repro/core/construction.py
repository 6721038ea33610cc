"""Decentralized, parallel construction of the overlay from scratch.

This module implements the complete indexing process of Secs. 2.2 and 4:
starting from ``N`` peers that each hold a handful of data keys and know
nothing about each other's data, it produces a trie-structured overlay in
which

* every peer has a *path* (its key-space partition),
* storage load is balanced against the skew of the key distribution,
* every partition is replicated by roughly ``n_min``..``2 n_min`` peers,
* routing tables hold references to the complementary subtree at every
  level of a peer's path.

The process is round-based: in every round each *active* peer initiates
one interaction with a (uniformly sampled) random peer, and the Fig. 2
interaction rules fire -- split, decide (AEP rules 3/4), replicate or
refer.  The rules themselves are :mod:`repro.core.fig2`; this engine
counts what a pair sees (a :class:`~repro.core.fig2.Meeting`), asks, draws
the uniforms and moves paths, keys and references accordingly: a split
exchanges the keys that now fall outside each peer's refined path, a
referred initiator contacts the recommended peer next (prefix routing
during construction).

Synchronization and termination follow Sec. 4.2: peers that cannot find a
useful interaction stop initiating after :data:`MAX_IDLE_ATTEMPTS` attempts
and only react to incoming contacts; the process ends when every peer is
passive.  Every decision rests on *local* counts only (the overlap of the
two key lists and the pair's replica lists), and split ratios use the
corrected decision probabilities by default (strategy ``"theory"``).

Key bitmaps
-----------
Everything a meeting needs from two key sets -- the size of each, of their
union and of their overlap, how many keys lie below the partition midpoint,
which keys leave on a split -- is a count or a contiguous slice over the
*sorted* keys, so the engine never touches a key per meeting.  The distinct
input keys are sorted once into the ``universe``.  A path's *frame* is the
index range ``(offset, end)`` its partition covers in the universe, and a
peer's keys are one ``int`` whose bit ``i`` stands for
``universe[offset + i]``.  Union and overlap are ``|`` / ``&`` with
``int.bit_count()``, the split fraction is the bit count below the
0-child's frame width, a split keeps the low bits or shifts the high ones
down, and a deeper peer's keys enter a shallower peer's frame by a shift.

Frames, not one bitmap over the whole universe: a frame halves with every
level, so the bitmaps shrink as the trie deepens and a meeting costs in
proportion to its partition.  (A global bitmap makes every meeting pay for
the universe: faster at N=256, slower and 85 MiB heavier at N=4096 with
100k keys.)  The price is paid at the root: until the first splits, each
of the ``N`` peers holds a root-frame bitmap of ``|universe| / 8`` bytes,
``N * |universe| / 8`` in all (about 50 MiB at N=4096 with 100k keys).
No replicated key set is ever built: the initial replication phase only
draws which peers receive a copy of each input batch, and the batches
are then dealt one at a time -- packed once into a root-frame bitmap,
OR-ed into the owner's and the receivers' bitmaps, and dropped -- so
besides the ``N`` peer bitmaps only one batch bitmap is alive at a
time.  In-flight keys (``outbox``) are few and stay plain sets;
``ConstructionPeer.keys`` is filled in, as a plain set, when the process
has settled.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .._util import RngLike, make_rng
from ..exceptions import ConstructionError, DomainError
from ..pgrid.bits import Path, ROOT
from ..pgrid.keyspace import KEY_BITS
from .constants import DEFAULT_D_MAX_FACTOR, DEFAULT_N_MIN
from . import fig2
from .probabilities import DecisionProbabilities

__all__ = [
    "ConstructionConfig",
    "ConstructionPeer",
    "ConstructionResult",
    "construct_overlay",
]

#: Consecutive useless interactions before a peer stops initiating (the
#: paper uses 2).
MAX_IDLE_ATTEMPTS = 2
#: Hard safety bound on rounds.
MAX_ROUNDS = 400
#: Maximum directed follow-up contacts after a refer interaction
#: (prefix-routing during construction).
REFER_HOPS = 8


def _keys_in_partition(keys, path: Path) -> set:
    """Subset of ``keys`` (an outbox) inside ``path``'s partition.

    Runs on every interaction of a peer with keys in flight; one
    precomputed shift/compare per key beats a ``contains_key`` call per
    key by an order of magnitude.
    """
    length = path.length
    if not length:
        return set(keys)
    shift = KEY_BITS - length
    bits = path.bits
    return {k for k in keys if k >> shift == bits}


def _positions(bitmap: int) -> List[int]:
    """Ascending indices of the set bits of ``bitmap``."""
    digits = bin(bitmap)[:1:-1]  # least significant bit first
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _reframe(bitmap: int, src_offset: int, dst_offset: int, dst_end: int) -> int:
    """The part of ``bitmap`` (bit 0 = universe index ``src_offset``) that
    lies inside the frame ``(dst_offset, dst_end)``, relative to that frame."""
    shift = dst_offset - src_offset
    moved = bitmap >> shift if shift >= 0 else bitmap << -shift
    return moved & ((1 << (dst_end - dst_offset)) - 1)


def _compare(
    a: ConstructionPeer, b: ConstructionPeer, keys_a: int, keys_b: int
) -> Tuple[int, fig2.Meeting]:
    """``a`` compares key lists with ``b``, a peer of its own partition or
    of one nested in it, both bitmaps in ``a``'s frame: the union (a bitmap
    in that frame) and the counts :mod:`repro.core.fig2` decides on."""
    return keys_a | keys_b, fig2.Meeting(
        a.path.length,
        keys_a.bit_count(),
        keys_b.bit_count(),
        (keys_a & keys_b).bit_count(),
        lambda: len(a.replicas | b.replicas | {a.peer_id, b.peer_id}),
    )


@dataclass
class ConstructionConfig:
    """Tunable parameters of the decentralized construction.

    ``n_min``
        minimal replication factor (Sec. 2.2, criterion 2);
    ``d_max``
        maximal storage load per partition; ``None`` derives the paper's
        default ``DEFAULT_D_MAX_FACTOR * n_min`` (figure captions use
        factors 10/20/30; a caller wanting another factor passes the
        product);
    ``strategy``
        ``"theory"`` = corrected probabilities of Eqs. (9)/(10) (COR),
        ``"uncorrected"`` = plain ``alpha``/``beta`` (AEP),
        ``"heuristic"`` = the Fig. 6(d) straw-man functions;
    ``sample_size``
        number of local keys sampled for the ``p`` estimate (``None`` =
        use every locally stored key).

    The paper's two global parameters plus the Fig. 6 ablation axes; the
    termination and referral bounds are the module constants
    :data:`MAX_IDLE_ATTEMPTS`, :data:`MAX_ROUNDS` and :data:`REFER_HOPS`.
    """

    n_min: int = DEFAULT_N_MIN
    d_max: Optional[float] = None
    strategy: str = "theory"
    sample_size: Optional[int] = None
    seed: Optional[int] = None

    def resolved_d_max(self) -> float:
        """The storage-load bound actually used."""
        if self.d_max is not None:
            return float(self.d_max)
        return DEFAULT_D_MAX_FACTOR * self.n_min

    def validate(self) -> None:
        """Raise :class:`DomainError` on out-of-range parameters."""
        if self.n_min < 1:
            raise DomainError(f"n_min must be >= 1, got {self.n_min}")
        if self.resolved_d_max() <= 0:
            raise DomainError("d_max must be positive")
        if self.strategy not in fig2.STRATEGIES:
            raise DomainError(
                f"unknown strategy {self.strategy!r}; expected one of {fig2.STRATEGIES}"
            )
        if self.sample_size is not None and self.sample_size < 1:
            raise DomainError(f"sample_size must be >= 1, got {self.sample_size}")


@dataclass
class ConstructionPeer:
    """State of one peer during and after construction.

    ``keys`` is the set of data keys the peer stores: its input batch
    until the engine deals it into key bitmaps, empty while the rounds
    run, and at the end the keys it was left with, all inside its
    ``path`` partition.  ``outbox`` holds displaced keys in flight to a
    responsible peer; ``routing`` maps each level of the path to peer ids
    whose paths have the complementary bit at that level; ``replicas``
    are same-partition peers discovered so far.
    """

    peer_id: int
    path: Path = ROOT
    keys: set = field(default_factory=set)
    outbox: set = field(default_factory=set)
    routing: Dict[int, List[int]] = field(default_factory=dict)
    replicas: set = field(default_factory=set)
    idle_strikes: int = 0
    active: bool = True
    interactions_initiated: int = 0

    def add_route(self, level: int, other: int, limit: int = 4) -> None:
        """Record ``other`` as a routing reference at ``level`` (bounded)."""
        refs = self.routing.setdefault(level, [])
        if other not in refs:
            refs.append(other)
            del refs[:-limit]

    def route_candidates(self, level: int) -> List[int]:
        """Known peers in the complementary subtree at ``level``."""
        return self.routing.get(level, [])


@dataclass
class ConstructionResult:
    """Outcome of a full decentralized construction run.

    Cost counters follow the paper's Fig. 6 metrics: ``interactions``
    counts every initiated contact (including refer hops and wasted
    meetings), ``keys_moved`` every data key shipped between peers
    (replication, splits, reconciliation) -- the bandwidth proxy of
    Fig. 6(f) -- and ``rounds`` is the parallel latency proxy.
    """

    peers: List[ConstructionPeer]
    rounds: int
    interactions: int
    keys_moved: int
    replication_keys_moved: int
    splits: int
    replicate_meetings: int
    refer_meetings: int
    undeliverable_keys: int = 0
    bilateral_interactions: int = 0
    bandwidth_keys: int = 0

    @property
    def n(self) -> int:
        """Number of peers."""
        return len(self.peers)

    @property
    def interactions_per_peer(self) -> float:
        """All initiated contacts per peer, including refer routing hops."""
        return self.interactions / self.n

    @property
    def bilateral_interactions_per_peer(self) -> float:
        """Fig. 6(e) metric: split/replicate/decide meetings per peer
        (routing hops to *locate* partners are accounted separately,
        as in Sec. 4.3's complexity split)."""
        return self.bilateral_interactions / self.n

    @property
    def bandwidth_keys_per_peer(self) -> float:
        """Fig. 6(f) metric: total keys transmitted per peer, counting the
        key lists exchanged for comparison in every bilateral meeting as
        well as actual movements and the initial replication copies."""
        return self.bandwidth_keys / self.n

    @property
    def paths(self) -> List[Path]:
        """All peer paths (input to the deviation metric)."""
        return [peer.path for peer in self.peers]

    def replication_factor(self) -> float:
        """Mean number of peers per distinct leaf path."""
        by_path: Dict[Path, int] = {}
        for peer in self.peers:
            by_path[peer.path] = by_path.get(peer.path, 0) + 1
        if not by_path:
            return 0.0
        return len(self.peers) / len(by_path)

    def mean_path_length(self) -> float:
        """Average peer path length (trie depth actually reached)."""
        return sum(p.path.length for p in self.peers) / len(self.peers)


def construct_overlay(
    peer_keys: Sequence[Sequence[int]],
    config: ConstructionConfig | None = None,
    *,
    rng: RngLike = None,
) -> ConstructionResult:
    """Run the full decentralized construction (Secs. 2.2, 4.2, 4.4).

    Parameters
    ----------
    peer_keys:
        One integer-key sequence per peer -- the data each peer initially
        holds (e.g. 10 keys each, as in the paper's experiments).
    config:
        See :class:`ConstructionConfig`; ``None`` uses paper defaults.
    rng:
        Seed or generator; construction is deterministic given a seed.

    Returns
    -------
    ConstructionResult
        Final peer states (paths, keys, routing tables) plus the cost
        counters for Figs. 6(e)/6(f).
    """
    config = config or ConstructionConfig()
    config.validate()
    rand = make_rng(rng if rng is not None else config.seed)
    n = len(peer_keys)
    if n < 2 * config.n_min:
        raise ConstructionError(
            f"population {n} cannot sustain replication n_min={config.n_min}"
        )

    peers = [
        ConstructionPeer(peer_id=i, keys=set(map(int, keys)))
        for i, keys in enumerate(peer_keys)
    ]
    state = _Construction(peers, config, rand)
    state.replication_phase()
    state.frame_keys()
    state.run_rounds()
    state.flush_outboxes()
    return state.result()


class _Construction:
    """Mutable engine behind :func:`construct_overlay`."""

    def __init__(self, peers: List[ConstructionPeer], config: ConstructionConfig, rand):
        self.peers = peers
        self.config = config
        self.rand = rand
        self.d_max = config.resolved_d_max()
        self.interactions = 0
        self.keys_moved = 0
        self.replication_keys_moved = 0
        self.splits = 0
        self.replicate_meetings = 0
        self.refer_meetings = 0
        self.rounds = 0
        self.undeliverable_keys = 0
        self.bilateral_interactions = 0
        self.bandwidth_keys = 0
        # Receivers of each peer's input batch, by peer id: drawn by
        # replication_phase() and dealt by frame_keys().
        self.receivers: Dict[int, List[int]] = {}
        # Key bitmaps (module docstring), indexed by peer id; filled by
        # frame_keys().
        self.universe: List[int] = []
        self.bitmap: List[int] = []
        self.frame: List[Tuple[int, int]] = []

    # -- phase 1: initial replication (Sec. 4.2) -------------------------

    def replication_phase(self) -> None:
        """Draw, for every peer's input batch, ``n_min - 1`` random other
        peers that receive a copy, so each key starts with ``n_min``
        replicas -- the calibration the replica-count estimator relies on.
        Only the receivers are recorded; :meth:`frame_keys` deals the
        copies."""
        n = len(self.peers)
        copies = self.config.n_min - 1
        if copies <= 0:
            return
        for i, peer in enumerate(self.peers):
            if not peer.keys:
                continue
            others = self.rand.sample(range(n - 1), min(copies, n - 1))
            self.receivers[i] = [j + 1 if j >= i else j for j in others]
            self.replication_keys_moved += len(peer.keys) * len(others)

    def frame_keys(self) -> None:
        """Sort the distinct keys into the universe and deal every input
        batch: pack it once into a root-frame bitmap, OR that into its
        owner's and its receivers' bitmaps, and empty the batch.  Until
        :meth:`result`, a peer's keys live in ``self.bitmap``, not in
        ``peer.keys``."""
        peers = self.peers
        self.universe = sorted(set().union(*(peer.keys for peer in peers)))
        root = (0, len(self.universe))
        bitmap = self.bitmap = [0] * len(peers)
        self.frame = [root] * len(peers)
        for i, peer in enumerate(peers):
            batch = self._pack(peer.keys, *root)
            peer.keys = set()
            bitmap[i] |= batch
            for j in self.receivers.pop(i, ()):
                bitmap[j] |= batch

    def _pack(self, keys, offset: int, end: int) -> int:
        """Bitmap, in the frame ``(offset, end)``, of ``keys`` inside it."""
        universe = self.universe
        buffer = bytearray((end - offset + 7) >> 3)
        for key in keys:
            i = bisect_left(universe, key, offset, end) - offset
            buffer[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(buffer, "little")

    def _lower_width(self, path: Path, offset: int, end: int) -> int:
        """Width of the frame of ``path``'s 0-child: the number of universe
        keys below the midpoint of ``path``'s partition, whose frame is
        ``(offset, end)``."""
        midpoint = ((path.bits << 1) | 1) << (KEY_BITS - 1 - path.length)
        return bisect_left(self.universe, midpoint, offset, end) - offset

    # -- phase 2: rounds of random interactions ---------------------------

    def run_rounds(self) -> None:
        """Round-based concurrent process with Sec. 4.2 termination."""
        n = len(self.peers)
        while self.rounds < MAX_ROUNDS:
            active_ids = [p.peer_id for p in self.peers if p.active]
            if not active_ids:
                break
            self.rounds += 1
            self.rand.shuffle(active_ids)
            for pid in active_ids:
                peer = self.peers[pid]
                if not peer.active:
                    continue  # deactivated earlier in this round
                partner_id = self.rand.randrange(n - 1)
                if partner_id >= pid:
                    partner_id += 1
                self._interact(peer, self.peers[partner_id])
        else:
            raise ConstructionError(
                f"construction did not settle within {MAX_ROUNDS} rounds"
            )

    # -- interaction dispatch (Fig. 2) -------------------------------------

    def _interact(self, initiator: ConstructionPeer, partner: ConstructionPeer) -> None:
        """One initiated interaction, following referrals up to a bound."""
        hops = 0
        while True:
            initiator.interactions_initiated += 1
            self.interactions += 1
            delivered = self._exchange_outbox(initiator, partner)
            related = fig2.relation(initiator.path, partner.path)
            if related != fig2.DIVERGED:
                # Bilateral meeting: the initiator ships its key list so
                # the pair can compare content and estimate the partition
                # population -- the dominant bandwidth term of Fig. 6(f).
                self.bilateral_interactions += 1
                self.bandwidth_keys += self.bitmap[initiator.peer_id].bit_count()
                if related == fig2.SAME:
                    useful = self._meet_same_partition(initiator, partner)
                elif related == fig2.A_UNDECIDED:
                    useful = self._decide_against(initiator, partner)
                else:
                    # The partner lags behind; from its perspective the
                    # initiator has decided, so the partner applies rules 3/4.
                    useful = self._decide_against(partner, initiator)
                self._strike(initiator, useful or delivered)
                return
            # Diverging paths: refer.  The initiator learns a routing entry
            # and is handed a better-matching peer to contact next.
            self.refer_meetings += 1
            next_partner = self._refer(initiator, partner)
            hops += 1
            if next_partner is None or hops >= REFER_HOPS:
                self._strike(initiator, useful=delivered)
                return
            partner = next_partner

    def _exchange_outbox(self, a: ConstructionPeer, b: ConstructionPeer) -> bool:
        """Deliver in-flight keys that fall into the other peer's partition.

        Keys displaced by path refinements travel piggy-backed on ordinary
        interactions until they meet a peer responsible for them -- the
        decentralized analogue of forwarding displaced data along the
        growing routing structure.
        """
        moved = 0
        for src, dst in ((a, b), (b, a)):
            if not src.outbox:
                continue
            deliverable = _keys_in_partition(src.outbox, dst.path)
            if deliverable:
                src.outbox -= deliverable
                self.bitmap[dst.peer_id] |= self._pack(deliverable, *self.frame[dst.peer_id])
                moved += len(deliverable)
        self.keys_moved += moved
        return moved > 0

    def _strike(self, peer: ConstructionPeer, useful: bool) -> None:
        """Track useless interactions; passive peers stop initiating."""
        if useful:
            peer.idle_strikes = 0
        else:
            peer.idle_strikes += 1
            if peer.idle_strikes >= MAX_IDLE_ATTEMPTS:
                peer.active = False

    # -- same-partition meeting: split or replicate -------------------------

    def _meet_same_partition(
        self, a: ConstructionPeer, b: ConstructionPeer
    ) -> bool:
        """Possibility 1/2 of Fig. 2.  Returns whether the initiator should
        stay active.

        While the shared partition is overloaded the bisection is *in
        progress*: even a failed balanced-split coin flip keeps the peer
        active, because AEP's undecided peers initiate interactions until
        a decision is reached (Sec. 3.1) -- the expected number of
        attempts is exactly what Eq. (3) prices in.
        """
        union, meeting = _compare(a, b, self.bitmap[a.peer_id], self.bitmap[b.peer_id])
        if not fig2.overloaded(meeting, self.d_max, self.config.n_min):
            return self._replicate(a, b, union, meeting)
        probs, _minority = self._split_policy(a, union, meeting)
        if self.rand.random() < probs.alpha:
            lower, upper = (a, b) if self.rand.random() < 0.5 else (b, a)
            self._assign_side(lower, 0, counterpart=upper)
            self._assign_side(upper, 1, counterpart=lower)
            self.splits += 1
        return True

    def _split_policy(
        self, peer: ConstructionPeer, union: int, meeting: fig2.Meeting
    ) -> Tuple[DecisionProbabilities, int]:
        """Decision probabilities for splitting ``peer``'s partition, in
        whose frame ``union`` is expressed, and the minority side.

        The split fraction is the share of the union's keys (or of a
        ``sample_size`` sample of them, drawn from the keys in ascending
        order) below the partition midpoint, i.e. inside the 0-child's
        frame; the floor under it is the pair's replica evidence.
        """
        lower = self._lower_width(peer.path, *self.frame[peer.peer_id])
        m_eff = meeting.total
        sample_size = self.config.sample_size
        if sample_size is not None and m_eff > sample_size:
            m_eff = sample_size
            sample = self.rand.sample(_positions(union), sample_size)
            zeros = sum(1 for i in sample if i < lower)
        else:
            zeros = (union & ((1 << lower) - 1)).bit_count()
        n_min = self.config.n_min
        return fig2.split_probabilities(
            zeros, m_eff, meeting.replica_evidence(n_min), n_min, self.config.strategy
        )

    def _assign_side(
        self, peer: ConstructionPeer, side: int, counterpart: ConstructionPeer
    ) -> None:
        """Extend ``peer``'s path by ``side``; ship foreign keys across.

        Keys that fall outside the counterpart's (possibly deeper)
        partition enter the counterpart's outbox and travel on until a
        responsible peer is met.
        """
        offset, end = self.frame[peer.peer_id]
        lower = self._lower_width(peer.path, offset, end)
        peer.add_route(peer.path.length, counterpart.peer_id)
        peer.path = peer.path.extend(side)
        # The 0-child's frame is the low ``lower`` bits of the parent's,
        # the 1-child's the rest: one side stays, the other leaves, each
        # already expressed in its child's frame.
        keys = self.bitmap[peer.peer_id]
        halves = (keys & ((1 << lower) - 1), keys >> lower)
        frames = ((offset, offset + lower), (offset + lower, end))
        self.bitmap[peer.peer_id] = halves[side]
        self.frame[peer.peer_id] = frames[side]
        leave = halves[1 - side]
        sibling_offset, sibling_end = frames[1 - side]
        # Displaced outbox keys that no longer belong anywhere near this
        # peer keep travelling through its outbox regardless of the split.
        if leave:
            there, there_end = self.frame[counterpart.peer_id]
            direct = _reframe(leave, sibling_offset, there, there_end)
            self.bitmap[counterpart.peer_id] |= direct
            moved = leave.bit_count()
            if direct.bit_count() != moved:
                rest = leave ^ _reframe(direct, there, sibling_offset, sibling_end)
                universe = self.universe
                counterpart.outbox.update(
                    universe[sibling_offset + i] for i in _positions(rest)
                )
            self.keys_moved += moved
        # Replica lists refer to the old, coarser partition; they are
        # re-discovered lazily through replicate meetings.
        peer.replicas.clear()
        peer.active = True
        peer.idle_strikes = 0

    # -- rules 3/4 against an already-decided peer ---------------------------

    def _decide_against(
        self, undecided: ConstructionPeer, decided: ConstructionPeer
    ) -> bool:
        """AEP rules 3/4: ``undecided``'s path is a proper prefix of
        ``decided``'s, so the decided peer's next bit reveals its side.
        Returns whether the interaction made progress."""
        level = undecided.path.length
        # The decided peer's frame is nested in the undecided one's, so
        # its keys enter the wider frame by a shift.
        nested = self.frame[decided.peer_id][0] - self.frame[undecided.peer_id][0]
        union, meeting = _compare(
            undecided, decided,
            self.bitmap[undecided.peer_id], self.bitmap[decided.peer_id] << nested,
        )
        if not fig2.overloaded(meeting, self.d_max, self.config.n_min):
            # Not enough load to justify refining; reconcile instead so the
            # lagging peer catches up with the partition content it missed.
            return self._pull_keys(undecided, union, meeting)
        probs, minority = self._split_policy(undecided, union, meeting)
        # Joining the decided peer's own side takes a reference from its
        # table; keys then ship to that peer, on the opposite side.
        shared = self._shared_reference(decided, level)
        side, via_decided = fig2.rules_3_4(
            decided.path.bit(level), minority, probs.beta, self.rand.random,
            shared is not None,
        )
        self._assign_side(undecided, side, counterpart=decided if via_decided else shared)
        return True

    def _shared_reference(
        self, peer: ConstructionPeer, level: int
    ) -> Optional[ConstructionPeer]:
        """A peer from ``peer``'s routing table on the opposite side of
        ``level`` (rule 4's "obtains a reference from the contacted peer")."""
        for ref in peer.route_candidates(level):
            other = self.peers[ref]
            if other.path.length > level and other.path.bit(level) != peer.path.bit(level):
                return other
        return None

    # -- replicate / reconcile (possibility 2) --------------------------------

    def _replicate(
        self, a: ConstructionPeer, b: ConstructionPeer, union: int, seen: fig2.Meeting
    ) -> bool:
        """Anti-entropy reconciliation of two same-partition replicas:
        both peers converge on the union (one shared, immutable bitmap)."""
        moved = 2 * seen.total - seen.size_a - seen.size_b
        self.replicate_meetings += 1
        if moved == 0 and b.peer_id in a.replicas and a.peer_id in b.replicas:
            return False  # fully synchronized copies: a useless interaction
        self.keys_moved += moved
        self.bitmap[a.peer_id] = self.bitmap[b.peer_id] = union
        a.replicas.add(b.peer_id)
        b.replicas.add(a.peer_id)
        a.replicas.update(b.replicas - {a.peer_id})
        b.replicas.update(a.replicas - {b.peer_id})
        b.active = True
        b.idle_strikes = 0
        return True

    def _pull_keys(self, behind: ConstructionPeer, union: int, seen: fig2.Meeting) -> bool:
        """A lagging peer catches up on the partition content it missed
        (without refining its path): ``seen`` compares its keys with those
        of a peer further down its subtree, in its own frame.  Returns
        whether keys moved."""
        moved = seen.size_b - seen.overlap
        if moved:
            self.bitmap[behind.peer_id] = union
            self.keys_moved += moved
            behind.active = True
            behind.idle_strikes = 0
        return moved > 0

    # -- refer (possibility 3) -------------------------------------------------

    def _refer(
        self, initiator: ConstructionPeer, partner: ConstructionPeer
    ) -> Optional[ConstructionPeer]:
        """Diverging-path meeting: exchange routing entries, get referred.

        Both peers add each other at the divergence level (if it lies
        inside their paths).  The partner then recommends, from its own
        routing table, a peer whose path shares a longer prefix with the
        initiator -- one step of prefix routing toward the initiator's
        partition.
        """
        cpl = initiator.path.common_prefix_length(partner.path)
        if cpl < initiator.path.length:
            initiator.add_route(cpl, partner.peer_id)
        if cpl < partner.path.length:
            partner.add_route(cpl, initiator.peer_id)
        # Partner recommends its best-matching contact.  Its references
        # at level l lie in its complementary subtree at l, so they share
        # exactly l bits with the initiator for l < cpl and exactly cpl
        # for l > cpl: only the level-cpl references -- the initiator's
        # side of the divergence -- can beat cpl, and they alone are
        # scanned.  This is the hottest loop of the refer phase, so the
        # common-prefix computation is inlined against the initiator's path.
        best: Optional[ConstructionPeer] = None
        best_cpl = cpl
        ini_path = initiator.path
        ini_bits = ini_path.bits
        ini_len = ini_path.length
        ini_id = initiator.peer_id
        peers = self.peers
        for ref in partner.routing.get(cpl, ()):
            if ref == ini_id:
                continue
            candidate = peers[ref]
            cand_path = candidate.path
            cand_len = cand_path.length
            n = cand_len if cand_len < ini_len else ini_len
            diff = (ini_bits >> (ini_len - n)) ^ (cand_path.bits >> (cand_len - n)) if n else 0
            c = n if not diff else n - diff.bit_length()
            if c > best_cpl or (
                best is not None
                and c == best_cpl
                and cand_len < best.path.length
            ):
                best, best_cpl = candidate, c
        return best

    # -- final outbox flush ---------------------------------------------------

    def flush_outboxes(self) -> None:
        """Deliver keys still in flight when the process settles.

        Every sibling subtree created by a split is populated, so a
        responsible peer exists for (almost) every key; the rare
        leftovers are counted as ``undeliverable_keys`` instead of being
        silently dropped.
        """
        pending = []
        for peer in self.peers:
            pending.extend(peer.outbox)
            peer.outbox = set()
        if not pending:
            return
        # Ascending keys: the least-loaded tie-break below depends on the
        # delivery order, which must not be a set's memory layout.
        pending.sort()
        # Index peers by path for O(path-length) delivery per key.
        by_path: Dict[Path, List[ConstructionPeer]] = {}
        max_len = 0
        for peer in self.peers:
            by_path.setdefault(peer.path, []).append(peer)
            max_len = max(max_len, peer.path.length)
        for key in pending:
            delivered = False
            for length in range(max_len, -1, -1):
                prefix = Path(key >> (KEY_BITS - length) if length else 0, length)
                group = by_path.get(prefix)
                if group:
                    target = min(group, key=lambda p: self.bitmap[p.peer_id].bit_count())
                    if target.path.contains_key(key, KEY_BITS):
                        self.bitmap[target.peer_id] |= self._pack(
                            (key,), *self.frame[target.peer_id]
                        )
                        self.keys_moved += 1
                        delivered = True
                    break
            if not delivered:
                self.undeliverable_keys += 1

    # -- result ------------------------------------------------------------------

    def result(self) -> ConstructionResult:
        """Unpack every bitmap into its peer's plain key set and report."""
        universe = self.universe
        for peer, keys, (offset, _end) in zip(self.peers, self.bitmap, self.frame):
            peer.keys = {universe[offset + i] for i in _positions(keys)}
        return ConstructionResult(
            peers=self.peers,
            rounds=self.rounds,
            interactions=self.interactions,
            keys_moved=self.keys_moved,
            replication_keys_moved=self.replication_keys_moved,
            splits=self.splits,
            replicate_meetings=self.replicate_meetings,
            refer_meetings=self.refer_meetings,
            undeliverable_keys=self.undeliverable_keys,
            bilateral_interactions=self.bilateral_interactions,
            # Total keys on the wire: comparison lists + movements + the
            # initial replication copies.
            bandwidth_keys=self.bandwidth_keys
            + self.keys_moved
            + self.replication_keys_moved,
        )
