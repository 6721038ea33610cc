"""Key-space encodings: floats, strings and integers over ``[0, 1)``.

The paper assumes data keys from the unit interval with *order-preserving*
encodings so that range and prefix queries remain meaningful (Sec. 1, 6).
We fix a binary precision of :data:`KEY_BITS` bits and represent keys as
integers in ``[0, 2^KEY_BITS)``; this makes prefix tests and partition
counting exact and fast (integer shifts instead of float arithmetic).

Two encoders are provided:

* :func:`float_to_key` / :func:`key_to_float` for numeric attributes, and
* :func:`string_to_key` for text terms (the distributed inverted-file use
  case): strings are read as fractional digits in a configurable
  alphabet, which is strictly order-preserving on the alphabet order.

Key construction is unified behind the :class:`KeyCodec` API: a codec
object maps attribute tuples to keys and back, so workloads, specs and
runners thread *one* codec instead of scattering module-level calls.
:class:`ScalarCodec` wraps the two encoders above (``dims == 1``);
:class:`~repro.pgrid.mdim.ZOrderCodec` interleaves d attributes into
one key for multi-dimensional workloads.  The module-level functions
are the implementation :class:`ScalarCodec` wraps, not aliases of it,
and stay the direct way to encode one scalar key.
"""

from __future__ import annotations

import string as _string
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

from ..exceptions import DomainError

__all__ = [
    "KEY_BITS",
    "MAX_KEY",
    "float_to_key",
    "key_to_float",
    "string_to_key",
    "bit_at",
    "key_prefix",
    "DEFAULT_ALPHABET",
    "KeyCodec",
    "ScalarCodec",
]

#: Binary precision of integer keys.  53 bits makes ``float -> key`` lossless
#: for IEEE doubles in [0, 1); partition operations only ever touch the top
#: ~30 bits, so the extra precision is free.
KEY_BITS: int = 53

#: Exclusive upper bound of the integer key space.
MAX_KEY: int = 1 << KEY_BITS

#: Alphabet used by :func:`string_to_key`: ASCII lowercase plus a leading
#: "before everything" blank so shorter strings sort before their
#: extensions, mirroring lexicographic order.
DEFAULT_ALPHABET: str = " " + _string.ascii_lowercase


def float_to_key(x: float) -> int:
    """Map a float in ``[0, 1)`` to an integer key, preserving order."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"key value must lie in [0, 1), got {x!r}")
    return int(x * MAX_KEY)


def key_to_float(key: int) -> float:
    """Map an integer key back to the representative float of its cell."""
    if not 0 <= key < MAX_KEY:
        raise DomainError(f"key {key!r} out of range [0, 2^{KEY_BITS})")
    return key / MAX_KEY


def string_to_key(text: str, alphabet: str = DEFAULT_ALPHABET) -> int:
    """Order-preserving encoding of a string into the integer key space.

    Characters are interpreted as fractional digits base ``len(alphabet)``.
    Characters outside the alphabet are mapped to their closest in-alphabet
    rank (so arbitrary text degrades gracefully instead of raising).  The
    encoding is monotone: ``a <= b`` (lexicographically over the alphabet)
    implies ``string_to_key(a) <= string_to_key(b)``.
    """
    base = len(alphabet)
    if base < 2:
        raise DomainError("alphabet must contain at least two symbols")
    ranks = {ch: i for i, ch in enumerate(alphabet)}
    lo = 0.0
    width = 1.0
    for ch in text.lower():
        rank = ranks.get(ch)
        if rank is None:
            # Clamp unknown characters onto the nearest alphabet rank by
            # code point, keeping the map monotone on the known alphabet.
            rank = min(
                range(base), key=lambda i: abs(ord(alphabet[i]) - ord(ch))
            )
        width /= base
        lo += rank * width
        if width * MAX_KEY < 1.0:
            break  # further characters are below key precision
    return min(float_to_key(lo), MAX_KEY - 1)


class KeyCodec:
    """Maps attribute points to integer keys and back.

    A codec carries the *schema* of the keyspace: how many attributes a
    record has (``dims``) and how they pack into one ``KEY_BITS``-bit
    key.  Codecs are value objects -- implementations are frozen
    dataclasses so they compare by configuration and can ride on frozen
    specs.  ``encode`` must be order-preserving per attribute prefix so
    trie routing stays meaningful.
    """

    #: Number of attributes per record.
    dims: int = 1

    #: Short label used in reports.
    name: str = "codec"

    def encode(self, point) -> int:
        """An integer key for one attribute point."""
        raise NotImplementedError

    def decode(self, key: int) -> Tuple[float, ...]:
        """The representative attribute point of a key's cell."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScalarCodec(KeyCodec):
    """The classic one-dimensional keyspace behind the codec API.

    Wraps :func:`float_to_key` / :func:`string_to_key` /
    :func:`key_to_float`: floats encode losslessly, strings through the
    order-preserving fractional-digit reading over ``alphabet``.
    """

    alphabet: str = DEFAULT_ALPHABET

    dims = 1
    name = "scalar"

    def encode(self, point: Union[float, str, Sequence]) -> int:
        if isinstance(point, str):
            return string_to_key(point, self.alphabet)
        if isinstance(point, (tuple, list)):
            if len(point) != 1:
                raise DomainError(
                    f"scalar codec expects one attribute, got {len(point)}"
                )
            return self.encode(point[0])
        return float_to_key(point)

    def decode(self, key: int) -> Tuple[float]:
        return (key_to_float(key),)


def bit_at(key: int, level: int) -> int:
    """Bit ``level`` of a key (0 = most significant), i.e. the side of the
    level-``level`` bisection the key falls into."""
    if not 0 <= level < KEY_BITS:
        raise DomainError(f"level {level} out of range [0, {KEY_BITS})")
    return (key >> (KEY_BITS - 1 - level)) & 1


def key_prefix(key: int, length: int) -> int:
    """The top ``length`` bits of a key, as an integer (trie address)."""
    if not 0 <= length <= KEY_BITS:
        raise DomainError(f"prefix length {length} out of range")
    return key >> (KEY_BITS - length) if length else 0
