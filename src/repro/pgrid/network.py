"""The assembled P-Grid overlay network.

:class:`PGridNetwork` is the user-facing object tying peers, routing and
query processing together.  Overlays can be obtained three ways:

* :func:`build_overlay` -- run the paper's decentralized parallel
  construction over per-peer key sets (the headline contribution);
* :meth:`PGridNetwork.from_construction` -- wrap an existing
  :class:`~repro.core.construction.ConstructionResult`;
* :meth:`PGridNetwork.ideal` -- materialize the reference partitioning
  of Algorithm 1 directly (globally coordinated; used as ground truth in
  tests and baselines).

The ideal overlay is two steps, shared by both scenario backends:
:func:`ideal_layout` (Algorithm 1's leaves with their keys and integral
peer counts) and :func:`draw_references` (the randomized references of
each ``(peer_id, path)`` member).  :meth:`PGridNetwork.ideal` deals
:class:`PGridPeer` objects from the one and routing tables from the
other; the message backend
(:mod:`repro.scenarios.message_runner`) spawns its wire nodes straight
from the same two, with no network in between.
"""

from __future__ import annotations

import random as _random
from bisect import bisect_left
from dataclasses import dataclass, field
from math import ceil as _ceil, log as _log
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .._util import RngLike, make_rng, mean, sample_online
from ..exceptions import PartitionError, RoutingError
from .bits import Path
from .keyspace import KEY_BITS, float_to_key, string_to_key
from .keystore import KeyStore
from .mdim import ZBox
from .peer import PGridPeer
from .routing import RoutingTable
from .search import LookupResult, RangeResult, lookup, range_query

__all__ = [
    "PGridNetwork",
    "WriteResult",
    "build_overlay",
    "draw_references",
    "ideal_layout",
]

KeyLike = Union[int, float, str]


@dataclass
class WriteResult:
    """Outcome of a routed mutation (insert or delete).

    Mirrors :class:`~repro.pgrid.search.LookupResult` for the routing
    half (``hops``/``visited``/``found``/``responsible``) so existing
    insert callers keep working, and adds the write-path bookkeeping:
    ``replicas_written`` counts the online same-partition replicas the
    mutation was eagerly applied to (offline replicas converge later
    through anti-entropy -- that lag is the replica divergence the
    scenario reports measure).
    """

    key: int
    op: str
    found: bool
    responsible: Optional[int]
    hops: int
    visited: List[int]
    replicas_written: int = 0

    @property
    def success(self) -> bool:
        """True iff the mutation reached an online responsible peer."""
        return self.found


def _to_key(value: KeyLike) -> int:
    """Coerce a float in [0,1), a string, or an integer key to an integer key."""
    if isinstance(value, bool):
        raise PartitionError("booleans are not valid keys")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return float_to_key(value)
    if isinstance(value, str):
        return string_to_key(value)
    raise PartitionError(f"unsupported key type {type(value).__name__}")


# -- the ideal overlay in two steps ----------------------------------------------


def ideal_layout(
    keys: Sequence[int], n_peers: int, *, d_max: float, n_min: int
) -> List[Tuple[Path, List[int], int]]:
    """Algorithm 1's leaves in key order, as ``(path, keys, peers)``:
    each leaf's path, its sorted keys and how many peers hold them.

    The keys are sorted and deduplicated once.  Keys outside
    ``[0, 2^KEY_BITS)`` are cut off that sorted list before
    partitioning, so they neither steer Algorithm 1 nor reach a peer;
    the in-range run goes to Algorithm 1 as it is.  The leaves tile the
    key space in order, so each leaf's keys are one slice of the run,
    cut by one binary search per leaf boundary.  The peer counts are
    integral and sum to ``n_peers``.
    """
    from ..core.reference import _partition

    sorted_keys = sorted(set(keys))
    lo_i = bisect_left(sorted_keys, 0)
    hi_i = bisect_left(sorted_keys, 1 << KEY_BITS)
    sorted_keys = sorted_keys[lo_i:hi_i]
    reference = _partition(
        sorted_keys, n_peers, d_max=d_max, n_min=n_min, integer_peers=True
    )
    paths = [leaf.path for leaf in reference.leaves]
    cuts = [bisect_left(sorted_keys, path.key_range(KEY_BITS)[0]) for path in paths]
    cuts.append(len(sorted_keys))
    leaf_keys = [sorted_keys[a:b] for a, b in zip(cuts, cuts[1:])]
    counts = [int(round(leaf.n_peers)) for leaf in reference.leaves]
    # Algorithm 1 assigns *zero* peers to empty-side leaves (keeping
    # its storage-deviation analysis clean), but an operational
    # overlay must leave no key range unowned -- the decentralized
    # construction populates empty regions too, and a gap makes every
    # lookup into it fail structurally.  Cover each empty leaf with
    # one peer reassigned from the most-populated leaf, never
    # draining a donor below n_min (or, failing that, below one).
    empty = [i for i, c in enumerate(counts) if c == 0]
    for floor in (max(1, n_min), 1):
        for i in empty:
            donor = max(range(len(counts)), key=counts.__getitem__)
            if counts[donor] > floor:
                counts[donor] -= 1
                counts[i] = 1
        empty = [i for i in empty if counts[i] == 0]
        if not empty:
            break
    return list(zip(paths, leaf_keys, counts))


def draw_references(
    members: Sequence[Tuple[int, Path]], *, rng: RngLike = None, max_refs: int = 4
) -> List[Dict[int, List[int]]]:
    """Random routing references for each ``(peer_id, path)`` member.

    For each level of a member's path, up to ``max_refs`` ids are
    sampled uniformly from the members under the complementary subtree,
    implementing the paper's randomized reference selection.  Returns
    one fresh levels dict per member, in member order: ascending levels,
    each level's ids in draw order, and no key for a level whose
    complementary subtree holds no member.  The candidates of a subtree
    are its members in member order, so the draws depend on that order.
    """
    rand = make_rng(rng)
    # Hot setup sweep (O(N * depth), dominates message-backend
    # construction): prefixes are keyed by ``(length, bits)`` int
    # pairs computed with shifts -- no Path allocation or hashing.  The
    # empty prefix is never a complementary subtree, so it gets no
    # bucket.
    by_prefix: Dict[Tuple[int, int], List[int]] = {}
    for peer_id, path in members:
        bits = path.bits
        length = path.length
        for n in range(1, length + 1):
            key = (n, bits >> (length - n))
            bucket = by_prefix.get(key)
            if bucket is None:
                bucket = by_prefix[key] = []
            bucket.append(peer_id)
    # ``random.sample`` inlined below, drawing through the same
    # ``_randbelow`` in the same order (pool-swap for small
    # populations, rejection set otherwise -- the exact CPython
    # algorithm, unchanged across the 3.10-3.13 support window and
    # pinned by the golden digests), minus the per-call argument
    # checking that dominates at ~10 samples per peer.  ``k`` is at
    # most ``max_refs``, so the table-size thresholds are
    # precomputed per ``k``.
    randbelow = rand._randbelow
    # A vanilla Random's _randbelow is rejection sampling over
    # getrandbits; drawing through getrandbits directly skips one
    # method call per draw (~10 draws/peer here) and produces the
    # bit-identical stream.  Subclasses overriding _randbelow keep
    # their own draw path.
    fastdraw = type(rand)._randbelow is _random.Random._randbelow
    getrandbits = rand.getrandbits
    by_prefix_get = by_prefix.get
    setsizes = [
        21 + (4 ** _ceil(_log(k * 3, 4)) if k > 5 else 0)
        for k in range(max_refs + 1)
    ]
    # Members sharing a path (replica groups) see identical candidate
    # lists at every level, so the per-level lookup plan (candidate
    # list, population, draw count, branch choice) is computed once
    # per unique path and replayed per member -- only the draws
    # themselves stay per-member.
    plans: Dict[Tuple[int, int], list] = {}
    plans_get = plans.get
    drawn: List[Dict[int, List[int]]] = []
    for _, path in members:
        bits = path.bits
        length = path.length
        pkey = (length, bits)
        plan = plans_get(pkey)
        if plan is None:
            plan = plans[pkey] = []
            for level in range(length):
                # The complementary subtree: the (level+1)-bit
                # prefix with its last bit flipped.
                comp = (level + 1, (bits >> (length - 1 - level)) ^ 1)
                candidates = by_prefix_get(comp)
                if not candidates:
                    continue
                n = len(candidates)
                k = max_refs if n > max_refs else n
                plan.append(
                    (level, candidates, n, k, n <= setsizes[k], n.bit_length())
                )
        levels: Dict[int, List[int]] = {}
        for level, candidates, n, k, use_pool, nbits_n in plan:
            result = [None] * k
            if use_pool:
                pool = list(candidates)
                for i in range(k):
                    m = n - i
                    if fastdraw:
                        nbits = m.bit_length()
                        j = getrandbits(nbits)
                        while j >= m:
                            j = getrandbits(nbits)
                    else:
                        j = randbelow(m)
                    result[i] = pool[j]
                    pool[j] = pool[m - 1]
            else:
                selected = set()
                selected_add = selected.add
                for i in range(k):
                    if fastdraw:
                        j = getrandbits(nbits_n)
                        while j >= n:
                            j = getrandbits(nbits_n)
                    else:
                        j = randbelow(n)
                    while j in selected:
                        if fastdraw:
                            j = getrandbits(nbits_n)
                            while j >= n:
                                j = getrandbits(nbits_n)
                        else:
                            j = randbelow(n)
                    selected_add(j)
                    result[i] = candidates[j]
            levels[level] = result
        drawn.append(levels)
    return drawn


@dataclass
class PGridNetwork:
    """A routable collection of P-Grid peers."""

    peers: Dict[int, PGridPeer] = field(default_factory=dict)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_construction(cls, result, *, max_refs: int = 4) -> "PGridNetwork":
        """Adopt the outcome of the decentralized construction.

        Copies paths, keys and the routing references accumulated during
        construction into full :class:`PGridPeer` objects.
        """
        net = cls()
        for cpeer in result.peers:
            peer = PGridPeer(
                peer_id=cpeer.peer_id,
                path=cpeer.path,
                keys=cpeer.keys,
                replicas=set(cpeer.replicas),
                routing=RoutingTable(max_refs_per_level=max_refs),
            )
            for level, refs in cpeer.routing.items():
                for ref in refs:
                    peer.routing.add(level, ref)
            net.peers[peer.peer_id] = peer
        net._prune_dangling_routes()
        return net

    @classmethod
    def ideal(
        cls,
        keys: Sequence[int],
        n_peers: int,
        *,
        d_max: float,
        n_min: int,
        max_refs: int = 4,
        rng: RngLike = None,
    ) -> "PGridNetwork":
        """Materialize Algorithm 1's reference partitioning directly.

        Peers are dealt to the leaves of :func:`ideal_layout` in key
        order, ids counting up from 0; each leaf's peers store the leaf's
        keys and are each other's replicas, and :meth:`rebuild_routing`
        fills the routing tables with random references into every
        complementary subtree -- the overlay a perfect, globally
        coordinated construction would produce.
        """
        rand = make_rng(rng)
        net = cls()
        peers = net.peers
        # rebuild_routing gives every peer its own table; until then they
        # share one empty placeholder.
        placeholder = RoutingTable(max_refs_per_level=max_refs)
        first = 0
        for path, leaf_keys, count in ideal_layout(keys, n_peers, d_max=d_max, n_min=n_min):
            ids = range(first, first + count)
            group = set(ids)
            # One shared immutable template per leaf; each peer gets an
            # independent copy (a single C-level list copy).
            leaf_store = KeyStore._from_sorted(leaf_keys)
            for pid in ids:
                peer = peers[pid] = PGridPeer(
                    peer_id=pid, path=path, keys=leaf_store.copy(), routing=placeholder
                )
                peer.replicas = group - {pid}
            first = ids.stop
        net.rebuild_routing(rng=rand, max_refs=max_refs)
        return net

    # -- routing bookkeeping ----------------------------------------------

    def rebuild_routing(self, *, rng: RngLike = None, max_refs: int = 4) -> None:
        """(Re)fill every peer's routing table with random references:
        :func:`draw_references` over the peers in dict order."""
        peers = self.peers.values()
        drawn = draw_references(
            [(peer.peer_id, peer.path) for peer in peers], rng=rng, max_refs=max_refs
        )
        for peer, levels in zip(peers, drawn):
            peer.routing = RoutingTable(max_refs_per_level=max_refs, levels=levels)

    def _prune_dangling_routes(self) -> None:
        """Remove references to unknown peer ids (defensive)."""
        for peer in self.peers.values():
            for level in list(peer.routing.levels):
                peer.routing.levels[level] = [
                    r for r in peer.routing.levels[level] if r in self.peers
                ]

    # -- peer access ---------------------------------------------------------

    def peer(self, peer_id: int) -> PGridPeer:
        """The peer with the given id."""
        try:
            return self.peers[peer_id]
        except KeyError:
            raise RoutingError(f"unknown peer id {peer_id}") from None

    def _peer_tuple(self) -> Tuple[PGridPeer, ...]:
        """Cached tuple of peer objects for O(1) random indexing.

        Rebuilt whenever the peer *count* changes (joins/removals);
        ``online`` flips mutate the cached objects in place, so churn
        never invalidates the cache.
        """
        cache = getattr(self, "_peers_cache", None)
        if cache is None or len(cache) != len(self.peers):
            cache = tuple(self.peers.values())
            self._peers_cache = cache
        return cache

    def random_online_peer(self, rng: RngLike = None) -> Optional[PGridPeer]:
        """A uniformly random online peer, or ``None`` if all are offline.

        Rejection-samples the cached peer tuple
        (:func:`repro._util.sample_online`) instead of materializing
        the online list per query -- the old O(N) scan dominated lookup
        latency at a few thousand peers.
        """
        return sample_online(
            self._peer_tuple(), lambda peer: peer.online, make_rng(rng)
        )

    def online_count(self) -> int:
        """Number of currently online peers (the live population)."""
        return sum(1 for p in self.peers.values() if p.online)

    def __len__(self) -> int:
        return len(self.peers)

    # -- queries ---------------------------------------------------------------

    def lookup(
        self, value: KeyLike, *, start: Optional[int] = None, rng: RngLike = None
    ) -> LookupResult:
        """Exact-match query for a float, string or integer key."""
        return lookup(self, _to_key(value), start=start, rng=rng)

    def range_query(
        self,
        lo: KeyLike,
        hi: KeyLike,
        *,
        start: Optional[int] = None,
        rng: RngLike = None,
        box: Optional[ZBox] = None,
    ) -> RangeResult:
        """Range query over ``[lo, hi)`` in key order; a ``box`` query
        showers its z-span (:mod:`repro.pgrid.search`)."""
        return range_query(self, _to_key(lo), _to_key(hi), start=start, rng=rng, box=box)

    def insert(self, value: KeyLike, *, rng: RngLike = None) -> WriteResult:
        """Insert a key: route to the responsible partition, store on the
        responsible peer and its *online* replicas.

        Offline replicas miss the write and converge through the
        reconciliation machinery (:mod:`repro.pgrid.replication`); until
        they do, the partition is measurably divergent.  ``success``
        means the mutation was applied at an online owner -- like query
        success, it is a routing outcome.  Durability of a *re-insert of
        a previously deleted key* is additionally subject to delete-wins
        reconciliation: it sticks once the insert has cleared the
        tombstone on every replica (see
        :func:`repro.pgrid.replication.reconcile`).
        """
        return self._write("insert", _to_key(value), rng=rng)

    def delete(self, value: KeyLike, *, rng: RngLike = None) -> WriteResult:
        """Delete a key: route to the responsible partition, erase it on
        the responsible peer and its *online* replicas.

        Each erase leaves a tombstone (death certificate), so the delete
        survives union-style anti-entropy instead of resurrecting from
        the first stale replica (delete-wins; see
        :func:`repro.pgrid.replication.reconcile`).
        """
        return self._write("delete", _to_key(value), rng=rng)

    def _write(self, op: str, key: int, *, rng: RngLike = None) -> WriteResult:
        res = lookup(self, key, rng=rng)
        replicas_written = 0
        if res.found and res.responsible is not None:
            target = self.peers[res.responsible]
            apply = target.store if op == "insert" else target.erase
            apply(key)
            for rid in sorted(target.replicas):
                replica = self.peers.get(rid)
                if replica is not None and replica.online and replica.responsible_for(key):
                    (replica.store if op == "insert" else replica.erase)(key)
                    replicas_written += 1
        return WriteResult(
            key=key,
            op=op,
            found=res.found,
            responsible=res.responsible,
            hops=res.hops,
            visited=res.visited,
            replicas_written=replicas_written,
        )

    # -- durability ---------------------------------------------------------------

    def checkpoint_peer(self, peer_id: int, now: float = 0.0) -> dict:
        """Snapshot one peer's durable state (see :mod:`repro.pgrid.state`).

        Returns the versioned snapshot dict; callers persist it in a
        :class:`~repro.pgrid.state.StateStore` (the simulated disk).
        """
        from .state import snapshot_peer

        return snapshot_peer(self.peer(peer_id), now)

    def restore_peer(self, peer_id: int, snapshot: dict) -> PGridPeer:
        """Restore a peer in place from a :meth:`checkpoint_peer` snapshot.

        The peer resumes with its checkpointed path, keys, replicas,
        routing refs, and tombstones; restored routing refs may be stale
        and are re-validated by the next ``repair_routes`` maintenance
        sweep (the data plane's liveness hand-off).  The caller decides
        when to flip ``online`` back on.
        """
        from .state import restore_peer

        peer = self.peer(peer_id)
        restore_peer(peer, snapshot)
        return peer

    # -- statistics ---------------------------------------------------------------

    def mean_path_length(self) -> float:
        """Average peer path length (the paper reports ~6 for 296 peers)."""
        if not self.peers:
            return 0.0
        return mean(p.path.length for p in self.peers.values())

    def partitions(self) -> Dict[Path, List[int]]:
        """Peers grouped by identical path (structural replica groups)."""
        groups: Dict[Path, List[int]] = {}
        for peer in self.peers.values():
            groups.setdefault(peer.path, []).append(peer.peer_id)
        return groups

    def replication_factor(self) -> float:
        """Mean structural replicas per partition."""
        groups = self.partitions()
        if not groups:
            return 0.0
        return len(self.peers) / len(groups)

    def paths(self) -> List[Path]:
        """All peer paths."""
        return [p.path for p in self.peers.values()]

    def all_keys(self) -> set:
        """Union of stored keys across peers."""
        out: set = set()
        for peer in self.peers.values():
            out.update(peer.keys)
        return out

    def is_consistent(self) -> bool:
        """Structural sanity: keys inside partitions, routes complementary."""
        for peer in self.peers.values():
            # Keys are sorted, so the partition containment check reduces
            # to the two extreme keys.
            if len(peer.keys):
                lo, hi = peer.path.key_range(KEY_BITS)
                if peer.keys.min() < lo or peer.keys.max() >= hi:
                    return False
            for level, refs in peer.routing.levels.items():
                if level >= peer.path.length:
                    if refs:
                        return False
                    continue
                comp = peer.path.prefix(level).extend(1 - peer.path.bit(level))
                for ref in refs:
                    other = self.peers.get(ref)
                    if other is None or not comp.is_prefix_of(other.path):
                        return False
        return True


def build_overlay(
    peer_keys: Sequence[Sequence[KeyLike]],
    *,
    config=None,
    rng: RngLike = None,
    max_refs: int = 4,
    reconcile_rounds: int = 4,
) -> PGridNetwork:
    """Build an overlay from scratch with the paper's parallel algorithm.

    ``peer_keys`` holds each peer's initial data (floats in ``[0, 1)``,
    strings, or integer keys).  After construction a few anti-entropy
    sweeps converge the structural replicas (the paper's end state:
    "all peers discovered all their replicas" and content is fully
    reconciled); pass ``reconcile_rounds=0`` to inspect the raw state.
    The raw construction metrics are available through
    :func:`repro.core.construction.construct_overlay` when needed.
    """
    from ..core.construction import construct_overlay
    from .replication import anti_entropy_sweep, reconcile_down

    int_keys = [[_to_key(v) for v in keys] for keys in peer_keys]
    result = construct_overlay(int_keys, config, rng=rng)
    net = PGridNetwork.from_construction(result, max_refs=max_refs)
    if reconcile_rounds > 0:
        anti_entropy_sweep(net, rounds=reconcile_rounds, rng=rng)
        reconcile_down(net)
    return net
