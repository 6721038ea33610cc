"""Binary paths over the recursively bisected key space (Sec. 2.1).

A P-Grid peer's *path* is the bit sequence identifying its key-space
partition: bit ``0`` selects the lower half of the current interval, bit
``1`` the upper half.  Paths therefore double as trie node labels and as
dyadic sub-intervals of ``[0, 1)``.

:class:`Path` is immutable, hashable and cheap (two ints), so it can be
used freely as a dict key and copied by reference across thousands of
simulated peers.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterator, Tuple

__all__ = ["Path", "ROOT"]


@total_ordering
class Path:
    """An immutable, most-significant-bit-first binary path.

    ``bits`` holds the path's bits as an integer (first bit = most
    significant of the ``length`` low bits); ``length`` is the number of
    bits.  The empty path (``length == 0``) denotes the whole key space.

    ``Path(bits, length)`` checks that ``bits`` fits in ``length`` bits.
    Paths derived from a valid one (:meth:`extend`, :meth:`prefix`,
    :meth:`parent`, :meth:`sibling`) fit by construction, so they come
    from the trusted constructor :func:`_derived`, which fills the two
    slots without re-validating: an overlay build derives a path per split
    and per routing level of every peer.
    """

    __slots__ = ("bits", "length")

    def __init__(self, bits: int = 0, length: int = 0):
        if length < 0:
            raise ValueError(f"path length must be >= 0, got {length}")
        if bits < 0 or bits >> length:
            raise ValueError(f"bits {bits:#x} do not fit in {length} bit(s)")
        _set_bits(self, bits)
        _set_length(self, length)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Path is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "Path":
        """Parse a path from a string of ``'0'``/``'1'`` characters."""
        bits = 0
        for ch in text:
            if ch not in "01":
                raise ValueError(f"invalid path character {ch!r} in {text!r}")
            bits = (bits << 1) | (ch == "1")
        return cls(bits, len(text))

    # -- basic accessors -------------------------------------------------

    def bit(self, index: int) -> int:
        """The bit at position ``index`` (0 = first / most significant)."""
        if not 0 <= index < self.length:
            raise IndexError(f"bit index {index} out of range for length {self.length}")
        return (self.bits >> (self.length - 1 - index)) & 1

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        for i in range(self.length):
            yield self.bit(i)

    def __str__(self) -> str:
        # One C-level int format instead of a per-bit generator: __str__
        # runs per partition when experiments render range-query results.
        if not self.length:
            return "<root>"
        return format(self.bits, f"0{self.length}b")

    def __repr__(self) -> str:
        return f"Path('{self}')" if self.length else "Path(<root>)"

    # -- equality / ordering ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Path)
            and self.length == other.length
            and self.bits == other.bits
        )

    def __lt__(self, other: "Path") -> bool:
        """Lexicographic / left-to-right key-space order.

        A path sorts before another iff its interval starts earlier, with
        a prefix sorting before its extensions by ``1`` and after its
        extensions by ``0``-then-content (standard bit-string order).
        """
        if not isinstance(other, Path):
            return NotImplemented
        n = min(self.length, other.length)
        a = self.bits >> (self.length - n) if n else 0
        b = other.bits >> (other.length - n) if n else 0
        if a != b:
            return a < b
        return self.length < other.length

    def __hash__(self) -> int:
        return hash((self.bits, self.length))

    # -- structural operations ---------------------------------------------

    def extend(self, bit: int) -> "Path":
        """The child path obtained by appending one bit."""
        if bit not in (0, 1):
            raise ValueError(f"invalid bit {bit!r}")
        return _derived((self.bits << 1) | bit, self.length + 1)

    def prefix(self, n: int) -> "Path":
        """The prefix consisting of the first ``n`` bits."""
        if not 0 <= n <= self.length:
            raise ValueError(f"prefix length {n} out of range for length {self.length}")
        return _derived(self.bits >> (self.length - n), n)

    def parent(self) -> "Path":
        """The path with the last bit removed."""
        if self.length == 0:
            raise ValueError("the root path has no parent")
        return _derived(self.bits >> 1, self.length - 1)

    def sibling(self) -> "Path":
        """The path differing only in its last bit."""
        if self.length == 0:
            raise ValueError("the root path has no sibling")
        return _derived(self.bits ^ 1, self.length)

    def is_prefix_of(self, other: "Path") -> bool:
        """True iff ``self``'s interval contains ``other``'s."""
        if self.length > other.length:
            return False
        return other.bits >> (other.length - self.length) == self.bits if self.length else True

    def common_prefix_length(self, other: "Path") -> int:
        """Number of leading bits shared with ``other``."""
        n = min(self.length, other.length)
        a = self.bits >> (self.length - n) if n else 0
        b = other.bits >> (other.length - n) if n else 0
        diff = a ^ b
        if diff == 0:
            return n
        return n - diff.bit_length()

    # -- key-space geometry --------------------------------------------------

    def interval(self) -> Tuple[float, float]:
        """The dyadic sub-interval ``[lo, hi)`` of ``[0, 1)`` this path covers."""
        width = 2.0 ** (-self.length)
        return self.bits * width, (self.bits + 1) * width

    def width(self) -> float:
        """Interval width ``2^-length``."""
        return 2.0 ** (-self.length)

    def key_range(self, key_bits: int) -> Tuple[int, int]:
        """Integer key range ``[lo, hi)`` for keys of ``key_bits`` precision."""
        if self.length > key_bits:
            raise ValueError(
                f"path of length {self.length} exceeds key precision {key_bits}"
            )
        lo = self.bits << (key_bits - self.length)
        return lo, lo + (1 << (key_bits - self.length))

    def contains_key(self, key: int, key_bits: int) -> bool:
        """True iff the integer ``key`` (of ``key_bits`` precision) falls
        inside this path's partition."""
        return key >> (key_bits - self.length) == self.bits if self.length else True


_new = object.__new__
_set_bits = Path.bits.__set__
_set_length = Path.length.__set__


def _derived(bits: int, length: int) -> Path:
    """Trusted constructor: a :class:`Path` of ``bits`` and ``length``,
    which the caller guarantees are valid (``0 <= bits < 2 ** length``)."""
    path = _new(Path)
    _set_bits(path, bits)
    _set_length(path, length)
    return path


#: The empty path: the whole (un-partitioned) key space.
ROOT = Path()
