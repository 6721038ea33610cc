"""Multi-dimensional keyspaces: z-order composite keys and box queries.

The trie indexes one ordered dimension; this module extends key
construction to multi-attribute records (ROADMAP open item 4) by
bit-interleaving d quantized attributes into a single
:data:`~repro.pgrid.keyspace.KEY_BITS`-bit key.  Because interleaving
is order-preserving per dimension *prefix*, the existing prefix
routing, :class:`~repro.pgrid.store.KeyStore`, replication, writes
and caching serve d-dimensional point and box queries unchanged -- a
d-dimensional box becomes a small set of 1-D key ranges issued through
the ordinary range machinery.

Quantization contract
---------------------
:class:`ZOrderCodec` with ``dims = d`` quantizes each attribute
``x in [0, 1)`` to a cell index ``q = floor(x * 2**bits_per_dim)``
where ``bits_per_dim = KEY_BITS // d``.  Cell bits are interleaved
most-significant first, cycling dimensions in order (bit ``j`` of the
interleaved value, counting 0 as the MSB, is bit ``j // d`` of
dimension ``j % d``), and the result is left-shifted into the top
``d * bits_per_dim`` bits of the key so trie prefixes align with
z-order prefixes.  The ``KEY_BITS - d * bits_per_dim`` remainder bits
are zero.  Decoding returns the cell representative ``q / 2**
bits_per_dim`` per dimension; all box semantics (membership, oracle
audits) are defined on *cells*, never on the lost sub-cell fraction.

Split budget
------------
A box (inclusive per-dimension cell bounds) decomposes into disjoint,
ascending, maximal z-order key intervals by litmax/bigmin splitting:
a partial trie node is split at its z-midpoint into the ``[lo,
litmax]`` / ``[bigmin, hi]`` halves and each half is refined
recursively.  ``split_budget`` caps the interval count: when refining
one more node would exceed the budget, the node's whole key interval
is emitted instead.  Over-covering is therefore the *only* budget
failure mode -- every cell of the box is always covered, so recall
cannot drop below 1.0 at the decomposition layer; the cost of a tight
budget is extra scanned keys, which callers filter with
:meth:`ZOrderCodec.box_contains`.  ``box_ranges`` guarantees
``len(ranges) <= split_budget`` after adjacent-interval merging.

Recall-audit rules
------------------
Scenario runners audit every box query against a brute-force oracle
view: the sorted universe of workload keys is intersected with the
*issued* (possibly over-covering) ranges and filtered by
:meth:`ZOrderCodec.box_contains`; that set is the ground truth.  The
served result -- the union of keys returned by the per-range queries,
filtered by the same predicate -- is compared against it, and reports
carry ``recall = |served ∩ oracle| / |oracle|`` summed over boxes.
Both sides use the same cell-level membership predicate, so a
maintenance-free run must audit at exactly 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..exceptions import DomainError
from .keyspace import KEY_BITS, MAX_KEY, KeyCodec

__all__ = ["ZOrderCodec", "DEFAULT_SPLIT_BUDGET"]

#: Default cap on the number of 1-D ranges a box may decompose into.
DEFAULT_SPLIT_BUDGET: int = 16


@dataclass(frozen=True)
class ZOrderCodec(KeyCodec):
    """Morton (z-order) codec interleaving ``dims`` attributes.

    Frozen so codecs compare by value and survive
    ``dataclasses.replace`` on the specs that carry them.
    """

    dims: int = 2
    split_budget: int = DEFAULT_SPLIT_BUDGET

    def __post_init__(self):
        if not 1 <= self.dims <= KEY_BITS:
            raise DomainError(
                f"dims must lie in [1, {KEY_BITS}], got {self.dims}"
            )
        if self.split_budget < 1:
            raise DomainError(
                f"split budget must be >= 1, got {self.split_budget}"
            )

    # -- geometry ----------------------------------------------------------

    @property
    def bits_per_dim(self) -> int:
        """Quantization precision of each attribute."""
        return KEY_BITS // self.dims

    @property
    def cells_per_dim(self) -> int:
        """Number of quantization cells along each dimension."""
        return 1 << self.bits_per_dim

    @property
    def pad_bits(self) -> int:
        """Zeroed low-order key bits below the interleaved block."""
        return KEY_BITS - self.dims * self.bits_per_dim

    @property
    def name(self) -> str:
        return f"z{self.dims}"

    # -- quantization ------------------------------------------------------

    def quantize(self, x: float) -> int:
        """Cell index of an attribute value in ``[0, 1)``."""
        if not 0.0 <= x < 1.0:
            raise DomainError(f"attribute value must lie in [0, 1), got {x!r}")
        return min(int(x * self.cells_per_dim), self.cells_per_dim - 1)

    # -- interleaving ------------------------------------------------------

    def interleave(self, cells: Sequence[int]) -> int:
        """Interleave per-dimension cell indices into one z-value."""
        d, b = self.dims, self.bits_per_dim
        if len(cells) != d:
            raise DomainError(f"expected {d} cells, got {len(cells)}")
        top = self.cells_per_dim
        for q in cells:
            if not 0 <= q < top:
                raise DomainError(f"cell {q!r} out of range [0, {top})")
        z = 0
        for bit in range(b - 1, -1, -1):
            for q in cells:
                z = (z << 1) | ((q >> bit) & 1)
        return z

    def deinterleave(self, z: int) -> Tuple[int, ...]:
        """Per-dimension cell indices of a z-value."""
        d, b = self.dims, self.bits_per_dim
        if not 0 <= z < (1 << (d * b)):
            raise DomainError(f"z-value {z!r} out of range")
        cells = [0] * d
        for bit in range(b):
            chunk = z >> ((b - 1 - bit) * d)
            for j in range(d):
                cells[j] = (cells[j] << 1) | ((chunk >> (d - 1 - j)) & 1)
        return tuple(cells)

    # -- KeyCodec protocol -------------------------------------------------

    def encode(self, point: Sequence[float]) -> int:
        """Quantize and interleave a d-tuple of attributes into a key."""
        if self.dims == 1:
            return self.quantize(point[0]) << self.pad_bits
        return self.interleave([self.quantize(x) for x in point]) << self.pad_bits

    def decode(self, key: int) -> Tuple[float, ...]:
        """Cell-representative attributes of a key."""
        if not 0 <= key < MAX_KEY:
            raise DomainError(f"key {key!r} out of range [0, 2^{KEY_BITS})")
        scale = float(self.cells_per_dim)
        return tuple(q / scale for q in self.cells_of(key))

    # -- box machinery -----------------------------------------------------

    def cells_of(self, key: int) -> Tuple[int, ...]:
        """Per-dimension cell indices of a key (ignores pad bits)."""
        return self.deinterleave(key >> self.pad_bits)

    def box_contains(
        self, key: int, lo_cells: Sequence[int], hi_cells: Sequence[int]
    ) -> bool:
        """Whether a key's cell lies inside the inclusive cell box."""
        cells = self.cells_of(key)
        return all(
            lo_cells[j] <= cells[j] <= hi_cells[j] for j in range(self.dims)
        )

    def box_cells(self, lows: Sequence[float], highs: Sequence[float]):
        """Inclusive per-dimension cell bounds of a float box.

        The box is half-open per dimension (``lo <= x < hi``); the
        returned bounds name every cell that intersects it.
        """
        d = self.dims
        if len(lows) != d or len(highs) != d:
            raise DomainError(f"box must have {d} dimensions")
        lo_cells, hi_cells = [], []
        top = self.cells_per_dim - 1
        for lo, hi in zip(lows, highs):
            if not 0.0 <= lo < hi <= 1.0:
                raise DomainError(f"box side [{lo}, {hi}) is invalid")
            q_lo = min(int(lo * self.cells_per_dim), top)
            q_hi = min(int(hi * self.cells_per_dim), top)
            if q_hi > q_lo and hi * self.cells_per_dim == q_hi:
                q_hi -= 1  # hi is cell-aligned; that cell is excluded
            lo_cells.append(q_lo)
            hi_cells.append(max(q_hi, q_lo))
        return tuple(lo_cells), tuple(hi_cells)

    def box_ranges(
        self,
        lo_cells: Sequence[int],
        hi_cells: Sequence[int],
        max_ranges: Optional[int] = None,
    ) -> List[Tuple[int, int]]:
        """Decompose an inclusive cell box into half-open key ranges.

        Litmax/bigmin splitting over the implicit z-order trie, emitted
        in ascending key order, disjoint, adjacent intervals merged.
        At most ``max_ranges`` (default: the codec's ``split_budget``)
        intervals are returned; when the budget binds, partial trie
        nodes are emitted whole (over-covering, never under-covering).
        """
        budget = self.split_budget if max_ranges is None else max_ranges
        if budget < 1:
            raise DomainError(f"max_ranges must be >= 1, got {budget}")
        d, b = self.dims, self.bits_per_dim
        top = self.cells_per_dim - 1
        for j in range(d):
            if not 0 <= lo_cells[j] <= hi_cells[j] <= top:
                raise DomainError(
                    f"cell bounds [{lo_cells[j]}, {hi_cells[j]}] invalid "
                    f"in dimension {j}"
                )
        total_bits = d * b
        out: List[Tuple[int, int]] = []
        # Stack entries: (depth, z-prefix, per-dim inclusive cell bounds).
        # Children are pushed high-half first so nodes pop in ascending
        # z order, making `out` sorted by construction.
        stack = [(0, 0, tuple(zip((0,) * d, (top,) * d)))]
        while stack:
            depth, prefix, bounds = stack.pop()
            inside = all(
                lo_cells[j] <= bounds[j][0] and bounds[j][1] <= hi_cells[j]
                for j in range(d)
            )
            width = total_bits - depth
            node_lo = prefix << (width + self.pad_bits)
            node_hi = (prefix + 1) << (width + self.pad_bits)
            if inside or depth == total_bits:
                self._emit(out, node_lo, node_hi)
                continue
            if len(out) + len(stack) + 2 > budget:
                # Splitting could exceed the budget: over-cover instead.
                self._emit(out, node_lo, node_hi)
                continue
            # Split at the z-midpoint (litmax | bigmin): the next
            # interleaved bit belongs to dimension `depth % d` and
            # halves that dimension's cell interval.
            j = depth % d
            n_lo, n_hi = bounds[j]
            mid = (n_lo + n_hi) // 2  # top half starts at mid + 1
            for side in (1, 0):  # high child first: ascending pop order
                if side == 0:
                    child = bounds[:j] + ((n_lo, mid),) + bounds[j + 1 :]
                else:
                    child = bounds[:j] + ((mid + 1, n_hi),) + bounds[j + 1 :]
                c_lo, c_hi = child[j]
                if c_hi < lo_cells[j] or c_lo > hi_cells[j]:
                    continue  # disjoint from the box
                stack.append((depth + 1, (prefix << 1) | side, child))
        return out

    @staticmethod
    def _emit(out: List[Tuple[int, int]], lo: int, hi: int) -> None:
        if out and out[-1][1] == lo:
            out[-1] = (out[-1][0], hi)  # merge adjacent intervals
        else:
            out.append((lo, hi))
