"""Sorted-array key storage for the query-serving data plane.

The operational overlay is read-heavy: every ``matching_keys`` call of the
shower range algorithm (Sec. 2.3) scans a peer's stored keys, and every
reconciliation merges two replicas' key sets.  A hash set answers
membership in O(1) but degrades range extraction to a full scan; a sorted
array answers ``matching_keys(lo, hi)`` in ``O(log n + hits)`` with a
C-level slice, keeps reconciliation a linear merge of two sorted runs, and
halves memory per key.  That trade matches the access pattern: peers
accumulate keys in bursts (construction, anti-entropy) and then serve
orders of magnitude more range/membership probes.

:class:`KeyStore` deliberately mirrors the :class:`set` vocabulary
(``add``/``discard``/``update``/``in``/iteration/``-``/``|``) so existing
call sites and tests that assign plain sets keep working unchanged;
:class:`~repro.pgrid.peer.PGridPeer` coerces any iterable assigned to its
``keys`` attribute into a ``KeyStore``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, List, Tuple

__all__ = ["KeyStore"]

#: Below this incoming/resident ratio ``update`` prefers per-key binary
#: insertion over a full linear merge (shifts are C-level ``memmove``s).
_INSORT_RATIO = 8


class KeyStore:
    """Distinct integer keys in a sorted array.

    Invariant: ``_keys`` is strictly increasing.  All public operations
    preserve it; trusted constructors (:meth:`_from_sorted`) adopt a list
    the caller guarantees is sorted and duplicate-free.
    """

    __slots__ = ("_keys",)

    def __init__(self, keys: Iterable[int] = ()):
        if isinstance(keys, KeyStore):
            self._keys = list(keys._keys)
        else:
            self._keys = sorted(set(keys))

    @classmethod
    def _from_sorted(cls, sorted_keys: List[int]) -> "KeyStore":
        """Adopt ``sorted_keys`` (strictly increasing) without copying."""
        store = object.__new__(cls)
        store._keys = sorted_keys
        return store

    # -- set-compatible basics -------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)

    def __contains__(self, key: int) -> bool:
        keys = self._keys
        i = bisect_left(keys, key)
        return i < len(keys) and keys[i] == key

    def __eq__(self, other) -> bool:
        if isinstance(other, KeyStore):
            return self._keys == other._keys
        if isinstance(other, (set, frozenset)):
            return len(self._keys) == len(other) and all(k in other for k in self._keys)
        return NotImplemented

    def __repr__(self) -> str:
        return f"KeyStore({self._keys!r})"

    def add(self, key: int) -> None:
        """Insert ``key``, keeping the array sorted (no-op if present)."""
        keys = self._keys
        i = bisect_left(keys, key)
        if i == len(keys) or keys[i] != key:
            keys.insert(i, key)

    def discard(self, key: int) -> None:
        """Remove ``key`` if present."""
        keys = self._keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            del keys[i]

    def remove(self, key: int) -> None:
        """Remove ``key``; raises :class:`KeyError` if absent."""
        keys = self._keys
        i = bisect_left(keys, key)
        if i == len(keys) or keys[i] != key:
            raise KeyError(key)
        del keys[i]

    def clear(self) -> None:
        """Drop every key."""
        del self._keys[:]

    def copy(self) -> "KeyStore":
        """An independent copy (one C-level list copy)."""
        return KeyStore._from_sorted(list(self._keys))

    def min(self) -> int:
        """Smallest stored key (raises :class:`IndexError` when empty)."""
        return self._keys[0]

    def max(self) -> int:
        """Largest stored key (raises :class:`IndexError` when empty)."""
        return self._keys[-1]

    # -- set algebra used by the overlay ---------------------------------

    def __sub__(self, other) -> set:
        """Keys present here but not in ``other`` (as a plain set)."""
        if isinstance(other, KeyStore):
            other = other._keys
            # Merge-style difference of two sorted runs.
            out = set()
            j = 0
            n = len(other)
            for k in self._keys:
                while j < n and other[j] < k:
                    j += 1
                if j == n or other[j] != k:
                    out.add(k)
            return out
        return {k for k in self._keys if k not in other}

    def __rsub__(self, other) -> set:
        return {k for k in other if k not in self}

    def __or__(self, other) -> set:
        out = set(self._keys)
        out.update(other)
        return out

    __ror__ = __or__

    def __and__(self, other) -> set:
        if isinstance(other, KeyStore):
            a, b = self._keys, other._keys
            if len(b) < len(a):
                a, b = b, a
            bset = set(b)
            return {k for k in a if k in bset}
        return {k for k in self._keys if k in other}

    __rand__ = __and__

    def intersection_size(self, other) -> int:
        """``|self ∩ other|`` without materializing the intersection."""
        if isinstance(other, KeyStore):
            a, b = self._keys, other._keys
            if len(b) < len(a):
                a, b = b, a
            bset = set(b)
            return sum(1 for k in a if k in bset)
        return sum(1 for k in self._keys if k in other)

    # -- bulk merges -------------------------------------------------------

    def update(self, keys: Iterable[int]) -> int:
        """Merge ``keys`` in; returns the number of *new* keys absorbed.

        Another :class:`KeyStore` merges in one linear pass; any other
        iterable is normalized (sorted, deduplicated) first.  Callers
        that already hold a strictly-increasing list should use
        :meth:`update_sorted` to skip the normalization.
        """
        if isinstance(keys, KeyStore):
            incoming = keys._keys
        else:
            incoming = sorted(set(keys))
        return self._merge_sorted(incoming)

    def update_sorted(self, sorted_keys: List[int]) -> int:
        """Merge a strictly-increasing list of keys in one linear pass.

        The trusted fast path behind bulk reconciliation: the caller
        guarantees ``sorted_keys`` is sorted and duplicate-free (e.g. a
        slice returned by :meth:`matching_keys`).  Returns the number of
        new keys absorbed.
        """
        return self._merge_sorted(sorted_keys)

    def _merge_sorted(self, incoming: List[int]) -> int:
        """Merge a strictly-increasing list; returns keys added."""
        mine = self._keys
        if not incoming:
            return 0
        if not mine:
            self._keys = list(incoming)
            return len(incoming)
        # Disjoint append: reconciliation after splits often delivers a
        # run entirely above (or below) the resident keys.
        if incoming[0] > mine[-1]:
            mine.extend(incoming)
            return len(incoming)
        if incoming[-1] < mine[0]:
            self._keys = list(incoming) + mine
            return len(incoming)
        if len(incoming) * _INSORT_RATIO < len(mine):
            added = 0
            for k in incoming:
                i = bisect_left(mine, k)
                if i == len(mine) or mine[i] != k:
                    mine.insert(i, k)
                    added += 1
            return added
        before = len(mine)
        merged: List[int] = []
        append = merged.append
        i = j = 0
        na, nb = len(mine), len(incoming)
        while i < na and j < nb:
            x = mine[i]
            y = incoming[j]
            if x == y:
                append(x)
                i += 1
                j += 1
            elif x < y:
                append(x)
                i += 1
            else:
                append(y)
                j += 1
        if i < na:
            merged.extend(mine[i:])
        elif j < nb:
            merged.extend(incoming[j:])
        self._keys = merged
        return len(merged) - before

    def reconcile_with(self, other: "KeyStore") -> Tuple[int, int]:
        """Anti-entropy union: both stores end with the merged key set.

        Returns ``(self_received, other_received)`` -- how many keys each
        side was missing.  Identical stores short-circuit on a C-level
        list comparison, which is the dominant case once a replica group
        has converged.
        """
        mine, theirs = self._keys, other._keys
        if mine == theirs:
            return 0, 0
        n_mine, n_theirs = len(mine), len(theirs)
        self._merge_sorted(theirs)
        merged = self._keys
        other._keys = list(merged)
        return len(merged) - n_mine, len(merged) - n_theirs

    # -- range extraction (the hot read path) ------------------------------

    def matching_keys(self, lo: int, hi: int) -> List[int]:
        """Stored keys inside ``[lo, hi)`` in ``O(log n + hits)``.

        Returns a sorted list (a contiguous slice of the backing array);
        callers that need set semantics wrap it themselves.
        """
        keys = self._keys
        return keys[bisect_left(keys, lo) : bisect_left(keys, hi)]

    def count_range(self, lo: int, hi: int) -> int:
        """Number of stored keys inside ``[lo, hi)`` without a slice."""
        keys = self._keys
        return bisect_left(keys, hi) - bisect_left(keys, lo)

    def count_below(self, boundary: int) -> int:
        """Number of stored keys strictly below ``boundary``."""
        return bisect_left(self._keys, boundary)
