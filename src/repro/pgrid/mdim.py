"""Multi-dimensional keyspaces: z-order composite keys and box queries.

The trie indexes one ordered dimension; this module extends key
construction to multi-attribute records by bit-interleaving d
quantized attributes into a single
:data:`~repro.pgrid.keyspace.KEY_BITS`-bit key.  Because interleaving
is order-preserving per dimension *prefix*, the existing prefix
routing, :class:`~repro.pgrid.store.KeyStore`, replication, writes
and caching serve d-dimensional point and box queries unchanged -- a
d-dimensional box is one range query that carries the box down the
trie.

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

Showering a box
---------------
Trie bit ``l`` halves dimension ``l mod d``: the trie already is the
box's quadtree.  A box (inclusive per-dimension cell bounds, carried as
a :class:`ZBox`) is one range query over its z-span ``[z(lo corner),
z(hi corner)]``, and the range shower of both backends
(:func:`repro.pgrid.search.split_range`) refines it with
:meth:`ZBox.meets` -- "does ``[a, b)`` hold a key of the box" -- in
place of the interval test: a hop forwards only into subtrees whose
piece meets the box, answers only when its own slice does, and only
with keys :meth:`ZBox.contains` accepts.  The wire origin counts a gap
that misses the box as covered and retries only the gaps that meet it.
:meth:`ZOrderCodec.box_ranges`, the capped litmax/bigmin decomposition
(over-covering, never under-covering), is on no query path: it is the
reference whose output the digest tests pin.

Recall-audit rules
------------------
A scenario runner's oracle for a box is the sorted workload universe's
keys in the z-span that :meth:`ZBox.contains` accepts; reports carry
``recall = |served ∩ oracle| / |oracle|`` summed over boxes.  Both sides
use the same cell-level predicate, so a maintenance-free run must audit
at exactly 1.0.

Kernels
-------
Everything above is computed on integer z-codes, never bit by bit.

*Byte-spread table.*  ``_tables(d)`` holds, per ``dims``, the 256
values "byte with ``d - 1`` zero bits between neighbouring bits".
``deinterleave`` shifts one dimension's bits down, masks a spread byte
and reads it back through the inverse mapping.  Spreading is strictly
monotone, so ``box_contains`` compares one dimension's masked bits of
the key with the same bits of the box corners and never deinterleaves.

*Chunk-spread table.*  ``_wide(d)`` spreads a whole 13-bit chunk at
once: at most 8,192 entries, each two byte-table entries put side by
side, built once per ``dims`` like ``_tables``.  For ``dims >= 2`` a
cell index has at most 26 bits, so spreading it is two lookups (low and
high chunk) with no loop; for ``dims == 1`` spreading is the identity,
and ``_wide(1)`` is ``range(2**KEY_BITS)``, which answers the same two
lookups without building a table.  ``_zcode`` (``interleave``,
``box_ranges``) and the batch encoder read it.

*Batch encode.*  ``encode_many`` quantizes and interleaves consecutive
``dims``-tuples of one flat float list in a single loop, the same for
every ``dims``: a key set of n points is one call, not n ``encode``
calls, and ``encode`` is that loop on one point.  Each attribute is
scaled by ``2**bits_per_dim``, a power of two, so the product is exact
and its floor is a valid cell for every ``x < 1`` -- no clamp.

*Clipped corners.*  ``box_ranges`` carries a trie node as ``(width,
zlo, zhi)``: the number of z-code bits below its prefix and the z-codes
of the lowest and highest corner of the box *clipped to the node*.
Both codes start with the node's prefix, so the prefix is not stored;
the node lies inside the box exactly when ``zlo`` / ``zhi`` are its
first / last code.  The next interleaved bit halves one dimension:
the low child keeps ``zlo`` and its ``zhi`` gets that dimension's bit
cleared and its lower bits set (litmax); the high child keeps ``zhi``
and its ``zlo`` gets the bit set and the lower bits cleared (bigmin) --
three mask operations with the dimension's bit mask.

*Chain jump.*  Where ``zlo`` and ``zhi`` agree in the next bit the box
lies in one half and the node has a single child with the same corners,
so ``(zlo ^ zhi).bit_length()`` names the width of the last node of
that chain.  No node of a chain is inside the box (its corners agree in
a bit its first and last code differ in), and walking it neither emits
nor stacks anything, so the cap test ``len(out) + len(stack) + 2 >
budget`` has one value along the whole chain: testing it once, at the
chain's top, and over-covering with the *top* node when it binds emits
the same ranges as visiting every level.

*Next code in the box.*  :meth:`ZBox.meets` walks the clipped corners
down the path of the code ``z`` of ``[a, b)``'s first key: ``z``'s bit at
the split picks the high child, or the low child with the high child's
bigmin kept in case the low child holds nothing at or after ``z``.  The
range meets the box when that next box code is at most its last key's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import DomainError
from .keyspace import KEY_BITS, MAX_KEY, KeyCodec

__all__ = ["ZOrderCodec", "ZBox", "DEFAULT_SPLIT_BUDGET"]

#: Default cap of :meth:`ZOrderCodec.box_ranges` on the number of 1-D
#: ranges a box decomposes into.
DEFAULT_SPLIT_BUDGET: int = 16


@lru_cache(maxsize=None)
def _tables(dims: int) -> Tuple[Tuple[int, ...], Dict[int, int], int]:
    """``(spread, compact, lane)`` of the ``dims``-dimensional codec.

    ``spread[byte]`` is the byte with ``dims - 1`` zero bits between
    neighbouring bits, ``compact`` is its inverse, and ``lane`` is the
    spread of a whole all-ones cell index: the z-code bits of the last
    dimension (``lane << s`` are those of dimension ``dims - 1 - s``).
    """
    spread = tuple(
        sum(1 << (bit * dims) for bit in range(8) if byte >> bit & 1)
        for byte in range(256)
    )
    compact = {wide: byte for byte, wide in enumerate(spread)}
    lane = sum(1 << (bit * dims) for bit in range(KEY_BITS // dims))
    return spread, compact, lane


#: Width of the chunks ``_wide`` spreads in one lookup.
_CHUNK: int = 13
_CHUNK_MASK: int = (1 << _CHUNK) - 1


@lru_cache(maxsize=None)
def _wide(dims: int) -> Sequence[int]:
    """``wide[chunk]`` is the 13-bit ``chunk`` with ``dims - 1`` zero bits
    between neighbouring bits (see "Kernels"); the identity for one
    dimension, where cell indices are too wide for two chunks."""
    if dims == 1:
        return range(MAX_KEY)
    spread, _, _ = _tables(dims)
    step = 8 * dims
    return tuple(
        spread[chunk & 255] | spread[chunk >> 8] << step
        for chunk in range(1 << min(_CHUNK, KEY_BITS // dims))
    )


def _zcode(cells: Sequence[int], dims: int) -> int:
    """Interleave ``dims`` cell indices the caller has range-checked."""
    wide, high = _wide(dims), _CHUNK * dims
    z = 0
    for q in cells:
        z = z << 1 | wide[q & _CHUNK_MASK] | wide[q >> _CHUNK] << high
    return z


@dataclass(frozen=True, slots=True)
class ZBox:
    """An inclusive cell box as a box query carries it ("Showering a
    box"): the z-codes of its lowest and highest corner, and the codec's
    ``dims``, ``pad`` bits and ``lane`` (see ``_tables``)."""

    dims: int
    pad: int
    lane: int
    zlo: int
    zhi: int

    @property
    def span(self) -> Tuple[int, int]:
        """The key range from the lowest to the highest corner's cell."""
        return self.zlo << self.pad, (self.zhi + 1) << self.pad

    def contains(self, key: int) -> bool:
        """Whether a key's cell lies inside the box."""
        z = key >> self.pad
        lane, zlo, zhi = self.lane, self.zlo, self.zhi
        for _ in range(self.dims):
            # Spreading is strictly monotone, so one dimension's bits
            # compare like its cell indices.
            if not zlo & lane <= z & lane <= zhi & lane:
                return False
            lane <<= 1
        return True

    def meets(self, lo: int, hi: int) -> bool:
        """Whether the key range ``[lo, hi)`` holds a key of the box: is
        the box's next code at or after ``lo``'s at most ``hi - 1``'s
        (see "Next code in the box")?"""
        if lo >= hi:
            return False
        z, lane, d = lo >> self.pad, self.lane, self.dims
        zlo, zhi, after = self.zlo, self.zhi, None
        while zlo < z <= zhi:
            split = (zlo ^ zhi).bit_length()
            bit = 1 << (split - 1)
            below = (lane << ((split - 1) % d)) & (bit - 1)
            bigmin = (zlo & ~below) | bit
            if z & bit:
                zlo = bigmin
            else:
                after, zhi = bigmin, (zhi | below) ^ bit  # litmax
        nxt = zlo if z <= zlo else after
        return nxt is not None and nxt <= (hi - 1) >> self.pad


@dataclass(frozen=True)
class ZOrderCodec(KeyCodec):
    """Morton (z-order) codec interleaving ``dims`` attributes.

    Frozen so codecs compare by value and survive
    ``dataclasses.replace`` on the specs that carry them.
    """

    dims: int = 2

    def __post_init__(self):
        if not 1 <= self.dims <= KEY_BITS:
            raise DomainError(
                f"dims must lie in [1, {KEY_BITS}], got {self.dims}"
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
        d = self.dims
        if len(cells) != d:
            raise DomainError(f"expected {d} cells, got {len(cells)}")
        top = 1 << (KEY_BITS // d)
        for q in cells:
            if not 0 <= q < top:
                raise DomainError(f"cell {q!r} out of range [0, {top})")
        return _zcode(cells, d)

    def deinterleave(self, z: int) -> Tuple[int, ...]:
        """Per-dimension cell indices of a z-value."""
        d = self.dims
        if not 0 <= z < (1 << (d * (KEY_BITS // d))):
            raise DomainError(f"z-value {z!r} out of range")
        spread, compact, _ = _tables(d)
        byte, step = spread[255], 8 * d
        cells = []
        for down in range(d - 1, -1, -1):
            rest = z >> down
            q = compact[rest & byte]
            shift = 8
            rest >>= step
            while rest:
                q |= compact[rest & byte] << shift
                shift += 8
                rest >>= step
            cells.append(q)
        return tuple(cells)

    # -- KeyCodec protocol -------------------------------------------------

    def encode(self, point: Sequence[float]) -> int:
        """Quantize and interleave a d-tuple of attributes into a key."""
        if len(point) != self.dims:
            raise DomainError(f"expected {self.dims} attributes, got {len(point)}")
        return self.encode_many(point)[0]

    def encode_many(self, flat: Sequence[float]) -> List[int]:
        """The keys of consecutive d-tuples of a flat attribute list:
        ``encode_many(flat)[i] == encode(flat[i * d:(i + 1) * d])``."""
        d = self.dims
        if len(flat) % d:
            raise DomainError(f"expected a multiple of {d} attributes, got {len(flat)}")
        scale, pad = float(self.cells_per_dim), self.pad_bits
        wide, high = _wide(d), _CHUNK * d
        keys = []
        append = keys.append
        for point in zip(*[iter(flat)] * d):
            z = 0
            for x in point:
                if not 0.0 <= x < 1.0:
                    raise DomainError(f"attribute value must lie in [0, 1), got {x!r}")
                q = int(x * scale)
                z = z << 1 | wide[q & _CHUNK_MASK] | wide[q >> _CHUNK] << high
            append(z << pad)
        return keys

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
        if not 0 <= key < MAX_KEY:
            raise DomainError(f"key {key!r} out of range [0, 2^{KEY_BITS})")
        _, _, lane = _tables(self.dims)
        zlo, zhi = self.interleave(lo_cells), self.interleave(hi_cells)
        return ZBox(self.dims, self.pad_bits, lane, zlo, zhi).contains(key)

    def box(self, lo_cells: Sequence[int], hi_cells: Sequence[int]) -> ZBox:
        """The :class:`ZBox` of an inclusive cell box, as a box query
        carries it."""
        d = self.dims
        if len(lo_cells) != d or len(hi_cells) != d:
            raise DomainError(f"box must have {d} dimensions")
        top = self.cells_per_dim - 1
        for j in range(d):
            if not 0 <= lo_cells[j] <= hi_cells[j] <= top:
                raise DomainError(
                    f"cell bounds [{lo_cells[j]}, {hi_cells[j]}] invalid "
                    f"in dimension {j}"
                )
        _, _, lane = _tables(d)
        return ZBox(d, self.pad_bits, lane, _zcode(lo_cells, d), _zcode(hi_cells, d))

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
        At most ``max_ranges`` (default :data:`DEFAULT_SPLIT_BUDGET`)
        intervals are returned; when the cap binds, partial trie nodes
        are emitted whole (over-covering, never under-covering).  The
        reference decomposition: no query path calls it (module
        docstring).
        """
        budget = DEFAULT_SPLIT_BUDGET if max_ranges is None else max_ranges
        if budget < 1:
            raise DomainError(f"max_ranges must be >= 1, got {budget}")
        box = self.box(lo_cells, hi_cells)
        d, pad, lane = box.dims, box.pad, box.lane
        out: List[Tuple[int, int]] = []
        # Stack entries: (width, zlo, zhi) -- a trie node by the number of
        # z-code bits below its prefix and the z-codes of the box clipped
        # to it (see "Kernels").  Children are pushed high-half first so
        # nodes pop in ascending z order, making `out` sorted by
        # construction.
        stack = [(d * self.bits_per_dim, box.zlo, box.zhi)]
        while stack:
            width, zlo, zhi = stack.pop()
            # zlo and zhi first differ in bit `split - 1`: every node from
            # this one down to the one `split` bits wide has one child.
            split = (zlo ^ zhi).bit_length()
            rest = (1 << split) - 1
            inside = zlo & rest == 0 and zhi & rest == rest
            over = len(out) + len(stack) + 2 > budget
            if inside and (split == width or not over):
                width = split  # the chain's last node is inside the box
            elif not over:
                # Split at the z-midpoint (litmax | bigmin): `bit` halves
                # its dimension's cell interval, `below` are that
                # dimension's lower bits.
                bit = 1 << (split - 1)
                below = (lane << ((split - 1) % d)) & (bit - 1)
                stack.append((split - 1, (zlo & ~below) | bit, zhi))  # [bigmin, hi]
                stack.append((split - 1, zlo, (zhi | below) ^ bit))  # [lo, litmax]
                continue
            # Emit the node whole: inside the box, or over-covering because
            # splitting it could exceed the budget.
            prefix = zlo >> width
            lo, hi = prefix << (width + pad), (prefix + 1) << (width + pad)
            if out and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)  # merge adjacent intervals
            else:
                out.append((lo, hi))
        return out
