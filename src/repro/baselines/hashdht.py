"""Uniform-hashing DHT + Prefix Hash Tree index: the Sec. 6 strawman.

Standard overlays remove key skew by uniform hashing, which destroys key
order; to support range queries "an additional index on top of the
overlay network needs to be created" (the paper cites the Prefix Hash
Tree).  This module implements that combination so the cost claims of
Sec. 6 can be measured rather than asserted:

* :class:`HashDHT` -- nodes own hashed-id arcs; every ``get(name)`` costs
  an ``O(log N)``-hop routing walk (Chord-style);
* :class:`PrefixHashTree` -- a trie over the *original* key space whose
  nodes are stored **in** the DHT under hashed labels; a range query
  walks the trie, paying one full DHT lookup per visited trie node.

Compared with P-Grid's in-network trie (one descent + per-partition
forwards), the PHT multiplies every trie step by the DHT's routing cost
-- the "multiple overlay network queries ... to locate all the
semantically close content" the paper criticizes, plus the cost of
constructing and maintaining the second index in the first place.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .._util import RngLike, make_rng
from ..exceptions import DomainError
from ..pgrid.keyspace import KEY_BITS

__all__ = ["HashDHT", "PrefixHashTree", "RangeQueryCost"]

#: Identifier-space bits of the hash DHT ring.
RING_BITS = 64


def _hash(name: str) -> int:
    """Uniform hash of a label onto the ring."""
    digest = hashlib.sha1(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (1 << RING_BITS)


class HashDHT:
    """A Chord-flavored DHT: nodes at hashed positions, keys at hashed
    labels, lookups cost ``ceil(log2 N)`` routing hops in expectation.

    Routing is modeled analytically (hop count) rather than message by
    message: the baseline's *asymptotic* cost is what Sec. 6 argues
    about, and it is deliberately favourable to the baseline (no
    failures, perfect finger tables).
    """

    def __init__(self, n_nodes: int, *, rng: RngLike = None):
        if n_nodes < 1:
            raise DomainError(f"need at least one node, got {n_nodes}")
        rand = make_rng(rng)
        self.node_ids = sorted(rand.randrange(1 << RING_BITS) for _ in range(n_nodes))
        self.storage: Dict[int, Dict[str, object]] = {nid: {} for nid in self.node_ids}
        self.lookups = 0
        self.hops = 0

    def _owner(self, point: int) -> int:
        """Successor node of a ring position."""
        idx = bisect_right(self.node_ids, point)
        return self.node_ids[idx % len(self.node_ids)]

    def lookup_cost(self) -> int:
        """Expected routing hops for one lookup."""
        return max(1, math.ceil(math.log2(len(self.node_ids))))

    def put(self, name: str, value: object) -> int:
        """Store a value under a label; returns hops spent."""
        owner = self._owner(_hash(name))
        self.storage[owner][name] = value
        cost = self.lookup_cost()
        self.lookups += 1
        self.hops += cost
        return cost

    def get(self, name: str) -> Tuple[Optional[object], int]:
        """Fetch a value by label; returns ``(value, hops)``."""
        owner = self._owner(_hash(name))
        cost = self.lookup_cost()
        self.lookups += 1
        self.hops += cost
        return self.storage[owner].get(name), cost

    def storage_load(self) -> List[int]:
        """Items per node (uniform hashing balances this; key *order* is
        what it destroys)."""
        return [len(items) for items in self.storage.values()]


@dataclass
class RangeQueryCost:
    """Result and cost of a PHT range query."""

    keys: Set[int]
    dht_lookups: int
    hops: int
    trie_nodes_visited: int


class PrefixHashTree:
    """A trie over the original (order-preserving) key space stored in a
    hash DHT -- the 'index on top' of Sec. 6.

    Leaves hold at most ``leaf_capacity`` keys; internal nodes are split
    lazily on insert.  Every node -- internal or leaf -- lives in the DHT
    under the hashed label of its prefix, so *every* traversal step of a
    range query is a full DHT lookup.
    """

    def __init__(self, dht: HashDHT, *, leaf_capacity: int = 50):
        if leaf_capacity < 1:
            raise DomainError("leaf_capacity must be >= 1")
        self.dht = dht
        self.leaf_capacity = leaf_capacity
        # The trie structure: prefix label -> ("leaf", keys) or ("node",)
        self.dht.put("pht:", ("leaf", set()))
        self.build_lookups = self.dht.lookups

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _label(bits: str) -> str:
        return f"pht:{bits}"

    # -- construction -----------------------------------------------------------

    def insert(self, key: int) -> int:
        """Insert one key; returns DHT lookups spent (descent + splits)."""
        if not 0 <= key < (1 << KEY_BITS):
            raise DomainError(f"key {key} out of range")
        spent = 0
        bits = ""
        while True:
            value, _ = self.dht.get(self._label(bits))
            spent += 1
            if value is None:
                value = ("leaf", set())
                self.dht.put(self._label(bits), value)
                spent += 1
            if value[0] == "leaf":
                keys: Set[int] = value[1]
                keys.add(key)
                if len(keys) > self.leaf_capacity and len(bits) < KEY_BITS - 1:
                    # Split the leaf into two children.
                    self.dht.put(self._label(bits), ("node",))
                    zeros = {
                        k
                        for k in keys
                        if (k >> (KEY_BITS - 1 - len(bits))) & 1 == 0
                    }
                    ones = keys - zeros
                    self.dht.put(self._label(bits + "0"), ("leaf", zeros))
                    self.dht.put(self._label(bits + "1"), ("leaf", ones))
                    spent += 3
                return spent
            bits += "1" if (key >> (KEY_BITS - 1 - len(bits))) & 1 else "0"

    def build(self, keys: Sequence[int]) -> int:
        """Insert many keys; returns total DHT lookups spent."""
        return sum(self.insert(k) for k in keys)

    # -- range queries ------------------------------------------------------------

    def range_query(self, lo: int, hi: int) -> RangeQueryCost:
        """All keys in ``[lo, hi)``; every visited trie node costs one DHT
        lookup of ``lookup_cost()`` hops."""
        if not 0 <= lo <= hi <= (1 << KEY_BITS):
            raise DomainError(f"invalid range [{lo}, {hi})")
        before = self.dht.lookups
        hops_before = self.dht.hops
        found: Set[int] = set()
        visited = 0
        stack = [""]
        while stack:
            bits = stack.pop()
            width = KEY_BITS - len(bits)
            node_lo = int(bits, 2) << width if bits else 0
            node_hi = node_lo + (1 << width)
            if node_lo >= hi or node_hi <= lo:
                continue
            value, _ = self.dht.get(self._label(bits))
            visited += 1
            if value is None:
                continue
            if value[0] == "leaf":
                found.update(k for k in value[1] if lo <= k < hi)
            else:
                stack.append(bits + "0")
                stack.append(bits + "1")
        return RangeQueryCost(
            keys=found,
            dht_lookups=self.dht.lookups - before,
            hops=self.dht.hops - hops_before,
            trie_nodes_visited=visited,
        )
