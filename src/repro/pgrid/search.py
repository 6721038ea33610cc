"""Query processing over the trie overlay: prefix routing and range shower.

Exact-match search resolves the requested key bit by bit (Sec. 2.1):
whenever the current peer cannot resolve the next bit locally it forwards
the query to one of its routing references for that level.  The
expected cost is ``O(log K)`` messages for ``K`` leaf partitions
*irrespective of the trie's shape*, because every hop resolves at least
one bit and the references are random within the complementary subtree.
Which reference a hop takes is Kademlia's rule, one step for both
backends (:func:`closest_ref`): the one whose path shares the longest
prefix with the key, so a hop fixes every bit its references can, not
just one.  A wire retry draws uniformly instead (see
:mod:`repro.pgrid.liveness`); a data-plane retry needs no such escape,
since every attempt starts from a newly drawn random peer.  On the
layered benchmark's ``dataplane-mix`` (N=1024, ideal overlay) this cut
hops per lookup from 4.01 to 2.44 against a uniform draw.

Range queries use the recursive *shower* strategy enabled by in-network
key order (the very property uniform-hashing DHTs destroy, Sec. 6): the
initiating peer answers its own slice of the range and forwards the
disjoint remainders into the complementary subtrees that intersect the
range.  Message cost is ``O(log K + K_range)`` where ``K_range`` is the
number of partitions the range spans -- no per-key lookups, no
fragmentation.  Both backends share the three pure steps: every routed
hop asks :func:`level_toward` where a key leaves the path and
:func:`closest_ref` which reference to take toward it, and
:func:`split_range` cuts a range at a path -- ``_shower`` here recurses
on its pieces, routing each toward its low end, the wire node
(:mod:`repro.simnet.node`) answers its own slice and sends one
``range_query`` into each intersecting subtree.

A box query (:class:`~repro.pgrid.mdim.ZBox`) showers its z-span:
:func:`split_range` drops the pieces that miss the box, and a partition
answers with the keys in the box.

Per-hop constant factors matter as much as the asymptotics once overlays
grow past a few hundred peers, so the inner loops avoid allocation:

* reference selection ranks a level's references in one pass over the
  routing table, reading each one's peer object once for both its
  liveness and its path: no copy, no callback, and a draw only on a tie;
* the key ranges of a peer's own partition and of every complementary
  subtree are memoized per :class:`~repro.pgrid.bits.Path` instead of
  being rebuilt from fresh ``Path`` objects on every ``_shower`` call;
* local range extraction delegates to the sorted key store
  (``O(log n + hits)`` instead of a full scan).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, List, Mapping, Optional, Sequence, Set, Tuple

from .._util import RngLike, make_rng
from ..exceptions import RoutingError
from .bits import Path
from .keyspace import KEY_BITS
from .mdim import ZBox
from .peer import PGridPeer

if TYPE_CHECKING:  # pragma: no cover
    from .network import PGridNetwork

__all__ = [
    "LookupResult", "RangeResult", "alive_ref", "closest_ref", "level_toward", "lookup",
    "range_query", "split_range",
]

#: Bound on routing hops before a lookup is declared failed (a correct
#: overlay of K partitions needs at most ~log2 K + retries).
MAX_HOPS = 4 * KEY_BITS


@dataclass
class LookupResult:
    """Outcome of an exact-match query.

    ``hops`` counts forwarded messages (0 if the start peer was already
    responsible), matching the paper's "query hops" measure.
    """

    key: int
    found: bool
    responsible: Optional[int]
    hops: int
    visited: List[int]
    value_present: bool = False

    @property
    def success(self) -> bool:
        """True iff a responsible, online peer was reached."""
        return self.found


@dataclass
class RangeResult:
    """Outcome of a range query.

    ``keys`` are all data keys found in the half-open integer range;
    ``messages`` counts every inter-peer forward; ``partitions`` the
    distinct peer :class:`~repro.pgrid.bits.Path` partitions that
    contributed results.
    """

    lo: int
    hi: int
    keys: Set[int] = field(default_factory=set)
    messages: int = 0
    partitions: Set[Path] = field(default_factory=set)
    failures: int = 0

    @property
    def complete(self) -> bool:
        """True iff no sub-range had to be abandoned due to failures."""
        return self.failures == 0


@lru_cache(maxsize=65536)
def _subtree_ranges(path: Path) -> Tuple[Tuple[int, int], Tuple[Tuple[int, int], ...]]:
    """``((own_lo, own_hi), ((comp_lo, comp_hi) per level))`` for ``path``.

    The complementary subtree at level ``l`` is the sibling of the
    ``l+1``-bit prefix; its key range is pure shift arithmetic, memoized
    because every shower step that splits visits all levels of the
    current peer's path.  ``Path`` is immutable and hashable, so the cache stays
    valid across routing-table rebuilds and peer churn.
    """
    own = path.key_range(KEY_BITS)
    comps = tuple(
        path.prefix(level).extend(1 - path.bit(level)).key_range(KEY_BITS)
        for level in range(path.length)
    )
    return own, comps


def level_toward(path: Path, key: int) -> Optional[int]:
    """The level at which ``key`` leaves ``path`` -- the first bit where
    they differ -- or ``None`` when ``path``'s partition holds it."""
    # The first differing bit is the highest set bit of one XOR (at the
    # root both sides are 0: every key is inside).
    length = path.length
    diff = (key >> (KEY_BITS - length)) ^ path.bits
    return length - diff.bit_length() if diff else None


def split_range(
    path: Path, lo: int, hi: int, box: Optional[ZBox] = None
) -> Tuple[Optional[Tuple[int, int]], List[Tuple[int, int, int]]]:
    """One shower step: cut ``[lo, hi)`` at a peer with ``path``.

    Returns the peer's own slice (``None`` when the range misses its
    partition) and ``(level, sub_lo, sub_hi)`` for every complementary
    subtree the range intersects, in ascending level order.  The pieces
    are pairwise disjoint and together tile ``[lo, hi)``.  With a
    ``box``, only the pieces that meet it are returned.
    """
    (own_lo, own_hi), comps = _subtree_ranges(path)
    own_lo = lo if lo > own_lo else own_lo
    own_hi = hi if hi < own_hi else own_hi
    own = (own_lo, own_hi) if own_lo < own_hi else None
    subs = []
    for level, (c_lo, c_hi) in enumerate(comps):
        sub_lo = lo if lo > c_lo else c_lo
        sub_hi = hi if hi < c_hi else c_hi
        if sub_lo < sub_hi:
            subs.append((level, sub_lo, sub_hi))
    if box is not None:
        if own is not None and not box.meets(*own):
            own = None
        subs = [sub for sub in subs if box.meets(sub[1], sub[2])]
    return own, subs


def closest_ref(
    refs: Sequence[int],
    key: int,
    level: int,
    rng,
    *,
    path_of: Optional[Callable[[int], Optional[Path]]] = None,
    peers: Optional[Mapping[int, PGridPeer]] = None,
):
    """The greedy step of a routed hop on both backends (Kademlia's
    rule): of the references ``refs`` at routing ``level``, the one
    whose path shares the longest prefix with ``key``.

    A path the key falls inside beats any partial match (the deeper the
    better), and an unknown path counts as ``level + 1`` bits -- all a
    reference at ``level`` is known to share with a key leaving through
    it.  A tie costs one ``_randbelow`` draw, a single best none.

    Where the paths come from is all the backends do differently, so it
    is the one choice the caller makes:

    * ``path_of`` -- a wire node's known path of each reference (``None``
      where it knows none); returns the winning reference id;
    * ``peers`` -- the data plane's peer objects by id, the oracle that
      also says who is online: references missing or offline there are
      passed over; returns the winning peer, or ``None`` when none is
      left.

    One loop for both on purpose: the data plane calls this on every
    hop, and filtering its online references into a list first, then
    reading their paths through a callback, cost about 30% more per
    pick than reading ``peers`` here.
    """
    best = ties = None
    top = -1
    for ref in refs:
        if peers is None:
            path = path_of(ref)
            if path is None:
                match = level + 1
        else:
            ref = peers.get(ref)
            if ref is None or not ref.online:
                continue
            path = ref.path
        # (``is not None``: a Path's truth is its length, a Python call.)
        if path is not None:
            length = path.length
            diff = (key >> (KEY_BITS - length)) ^ path.bits
            # Inside: ranked above every partial match (no partial match
            # can exceed KEY_BITS bits).
            match = length - diff.bit_length() if diff else KEY_BITS + 1 + length
        if match > top:
            top = match
            best = ref
            ties = None
        elif match == top:
            if ties is None:
                ties = [best, ref]
            else:
                ties.append(ref)
    if ties is None:
        return best
    return ties[rng._randbelow(len(ties))]


def alive_ref(
    network: "PGridNetwork", peer: PGridPeer, level: int, key: int, rand
) -> Optional[PGridPeer]:
    """The online routing reference of ``peer`` at ``level`` whose
    current path best matches ``key`` (:func:`closest_ref`), or ``None``
    when every reference there is offline."""
    return closest_ref(
        peer.routing.refs_view(level), key, level, rand, peers=network.peers
    )


def lookup(
    network: "PGridNetwork",
    key: int,
    *,
    start: Optional[int] = None,
    rng: RngLike = None,
) -> LookupResult:
    """Route an exact-match query for ``key`` through the overlay.

    ``start`` selects the issuing peer (random online peer by default).
    Every hop takes the online reference whose path best matches the
    key (:func:`alive_ref`); the lookup fails (``found=False``) only
    when every reference for the required level is offline or the hop
    bound is exceeded.
    """
    rand = make_rng(rng)
    current = network.peer(start) if start is not None else network.random_online_peer(rand)
    if current is None:
        raise RoutingError("no online peer available to issue the query")
    visited = [current.peer_id]
    hops = 0
    while hops <= MAX_HOPS:
        level = level_toward(current.path, key)
        if level is None:
            # Positional: keywords cost a dataclass __init__ 0.3 us,
            # a twentieth of a lookup.
            return LookupResult(
                key, True, current.peer_id, hops, visited, key in current.keys
            )
        nxt = alive_ref(network, current, level, key, rand)
        if nxt is None:
            return LookupResult(key, False, None, hops, visited)
        current = nxt
        hops += 1
        visited.append(current.peer_id)
    return LookupResult(key=key, found=False, responsible=None, hops=hops, visited=visited)


def range_query(
    network: "PGridNetwork",
    lo: int,
    hi: int,
    *,
    start: Optional[int] = None,
    rng: RngLike = None,
    box: Optional[ZBox] = None,
) -> RangeResult:
    """Answer a range query ``[lo, hi)`` with the shower strategy.

    The initiating peer collects its local matches, then splits the
    remainder of the range along its own path: the complementary subtree
    at every level covers a disjoint slice of the key space, and each
    slice intersecting the range receives one forwarded sub-query.  The
    recursion bottoms out at peers whose partitions lie inside the range.
    """
    if not 0 <= lo <= hi <= (1 << KEY_BITS):
        raise RoutingError(f"invalid key range [{lo}, {hi})")
    rand = make_rng(rng)
    result = RangeResult(lo=lo, hi=hi)
    first = network.peer(start) if start is not None else network.random_online_peer(rand)
    if first is None:
        raise RoutingError("no online peer available to issue the query")
    _shower(network, first, lo, hi, result, rand, box)
    return result


def _shower(
    network: "PGridNetwork",
    peer: PGridPeer,
    lo: int,
    hi: int,
    result: RangeResult,
    rand,
    box: Optional[ZBox] = None,
) -> None:
    """Recursive step of the shower range algorithm."""
    own, subs = split_range(peer.path, lo, hi, box)
    # Local contribution.
    if own is not None:
        found = peer.matching_keys(*own)
        result.partitions.add(peer.path)
        if found:
            result.keys.update(found if box is None else filter(box.contains, found))
    # Forward into every complementary subtree intersecting the range.
    for level, sub_lo, sub_hi in subs:
        nxt = alive_ref(network, peer, level, sub_lo, rand)
        result.messages += 1
        if nxt is None:
            result.failures += 1
            continue
        _shower(network, nxt, sub_lo, sub_hi, result, rand, box)
