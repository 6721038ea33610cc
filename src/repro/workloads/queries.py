"""Query workload generation: point/range mixes and flash-crowd hotspots.

The paper's evaluation issues exact-match queries for the peers' own
keys (Sec. 5.1) and argues range queries as the workload that motivates
order-preserving overlays (Secs. 2.3, 6).  :class:`QuerySampler`
generalizes both into a declarative *query mix*: a weighted blend of
point lookups and fixed-span range scans, optionally concentrated on a
*hotspot* sub-interval of the key space (the flash-crowd pattern where a
small key region suddenly receives most of the traffic).

The sampler is deliberately independent of the scenario layer that
configures it (:mod:`repro.scenarios.spec`): it takes primitive weights
and returns integer keys, so it can drive any query front-end --
:class:`~repro.pgrid.network.PGridNetwork` lookups, the simnet protocol
nodes, or a future service API.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

from .._util import RngLike, make_rng
from ..exceptions import DomainError
from ..pgrid.keyspace import MAX_KEY, KeyCodec, float_to_key

__all__ = ["QuerySampler", "POINT", "RANGE"]

#: Query-kind tags returned by :meth:`QuerySampler.draw_kind`.
POINT = "point"
RANGE = "range"


class QuerySampler:
    """Draws query targets for a weighted point/range mix.

    Parameters
    ----------
    point_weight / range_weight:
        Relative frequencies of exact-match lookups and range scans
        (need not sum to one; both zero is invalid).
    range_span:
        Width of every range scan as a fraction of the key space.
    hotspot:
        Optional ``(lo, hi, weight)`` with ``0 <= lo < hi <= 1``:
        with probability ``weight`` a query targets the hot interval
        instead of the whole key space.
    universe / zipf_keys / zipf_exponent:
        When ``zipf_keys > 0`` and a (sorted) ``universe`` of workload
        keys is supplied, point draws switch from fresh uniform keys to
        a Zipf-ranked *popular set*: ``zipf_keys`` evenly spaced keys
        from the universe (restricted to the hotspot interval when one
        is configured), rank *i* drawn with weight ``1/(i+1)**s``.
        This is the repeat-heavy access pattern the serving-layer
        result caches exist for; fresh 53-bit uniform draws essentially
        never repeat, so without it a result cache can never hit.
        With a hotspot, its ``weight`` still splits traffic between the
        (Zipf) head and the uniform background tail.
    codec / box_spans:
        A multi-dimensional :class:`~repro.pgrid.keyspace.KeyCodec`
        switches point draws to d-attribute points (one hotspot coin
        per query, then every attribute confined to the hot interval --
        the *correlated-attribute* hotspot) and range draws to
        d-dimensional boxes (:meth:`draw_box`).  ``box_spans`` gives
        each dimension its own side length (skewed per-dimension
        selectivity); without it every side is ``range_span``.  A
        scalar codec (or none) leaves every draw byte-identical to the
        classic one-dimensional sampler.
    """

    __slots__ = (
        "point_weight",
        "range_weight",
        "range_span",
        "hotspot",
        "codec",
        "box_spans",
        "_popular",
        "_zipf_cum",
    )

    def __init__(
        self,
        *,
        point_weight: float = 1.0,
        range_weight: float = 0.0,
        range_span: float = 0.02,
        hotspot: Optional[Tuple[float, float, float]] = None,
        universe: Optional[Sequence[int]] = None,
        zipf_keys: int = 0,
        zipf_exponent: float = 0.9,
        codec: Optional[KeyCodec] = None,
        box_spans: Optional[Tuple[float, ...]] = None,
    ):
        if not (point_weight >= 0 and range_weight >= 0):
            raise DomainError("query-mix weights must be non-negative")
        if not point_weight + range_weight > 0:
            raise DomainError("query mix needs a positive total weight")
        if not 0 < range_span <= 1:
            raise DomainError(f"range span must lie in (0, 1], got {range_span}")
        if hotspot is not None:
            lo, hi, weight = hotspot
            if not 0.0 <= lo < hi <= 1.0:
                raise DomainError(f"hotspot interval [{lo}, {hi}) is invalid")
            if not 0.0 <= weight <= 1.0:
                raise DomainError(f"hotspot weight must lie in [0, 1], got {weight}")
        if zipf_keys < 0:
            raise DomainError(f"zipf_keys must be >= 0, got {zipf_keys}")
        if not zipf_exponent > 0:
            raise DomainError(
                f"zipf exponent must be positive, got {zipf_exponent}"
            )
        self.codec = codec if codec is not None and codec.dims > 1 else None
        if box_spans is not None:
            if self.codec is None:
                raise DomainError("box_spans requires a multi-dimensional codec")
            if len(box_spans) != self.codec.dims:
                raise DomainError(
                    f"box_spans needs {self.codec.dims} entries, "
                    f"got {len(box_spans)}"
                )
            for s in box_spans:
                if not 0 < s <= 1:
                    raise DomainError(f"box span must lie in (0, 1], got {s}")
        self.box_spans = tuple(box_spans) if box_spans is not None else None
        self.point_weight = float(point_weight)
        self.range_weight = float(range_weight)
        self.range_span = float(range_span)
        self.hotspot = hotspot
        self._popular = self._popular_set(universe, zipf_keys)
        self._zipf_cum = self._cum_weights(len(self._popular), zipf_exponent)

    # -- Zipf popular set --------------------------------------------------

    def _popular_set(
        self, universe: Optional[Sequence[int]], zipf_keys: int
    ) -> List[int]:
        if zipf_keys <= 0 or not universe:
            return []
        candidates: Sequence[int] = universe
        if self.hotspot is not None:
            lo, hi, _ = self.hotspot
            lo_k = float_to_key(lo)
            hi_k = float_to_key(min(hi, _BELOW_ONE))
            start = bisect_left(universe, lo_k)
            stop = bisect_left(universe, hi_k)
            if stop > start:
                candidates = universe[start:stop]
        n = len(candidates)
        if n <= zipf_keys:
            return list(candidates)
        # Evenly spaced picks keep the popular set spread over the
        # candidate interval (many owners) instead of one trie leaf.
        step = n / zipf_keys
        return [candidates[int(i * step)] for i in range(zipf_keys)]

    @staticmethod
    def _cum_weights(n: int, exponent: float) -> List[float]:
        cum: List[float] = []
        total = 0.0
        for rank in range(n):
            total += 1.0 / (rank + 1.0) ** exponent
            cum.append(total)
        return [c / total for c in cum] if total > 0 else []

    def _draw_popular(self, rand) -> int:
        u = rand.random()
        lo, hi = 0, len(self._zipf_cum) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._zipf_cum[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return self._popular[lo]

    # -- drawing -----------------------------------------------------------

    def draw_kind(self, rng: RngLike = None) -> str:
        """``POINT`` or ``RANGE``, per the configured weights."""
        rand = make_rng(rng)
        total = self.point_weight + self.range_weight
        return POINT if rand.random() * total < self.point_weight else RANGE

    def _target_float(self, rand) -> float:
        if self.hotspot is not None:
            lo, hi, weight = self.hotspot
            if rand.random() < weight:
                return lo + rand.random() * (hi - lo)
        return rand.random()

    def _target_point(self, rand) -> Tuple[float, ...]:
        """A d-attribute point; one hotspot coin confines *all*
        attributes to the hot interval (correlated-attribute hotspot)."""
        d = self.codec.dims
        if self.hotspot is not None:
            lo, hi, weight = self.hotspot
            if rand.random() < weight:
                return tuple(
                    min(lo + rand.random() * (hi - lo), _BELOW_ONE)
                    for _ in range(d)
                )
        return tuple(rand.random() for _ in range(d))

    def draw_point_key(self, rng: RngLike = None) -> int:
        """An integer key for one exact-match lookup."""
        rand = make_rng(rng)
        if self._popular:
            if self.hotspot is not None:
                _, _, weight = self.hotspot
                if rand.random() < weight:
                    return self._draw_popular(rand)
                if self.codec is not None:
                    return self.codec.encode(
                        tuple(rand.random() for _ in range(self.codec.dims))
                    )
                return float_to_key(min(rand.random(), _BELOW_ONE))
            return self._draw_popular(rand)
        if self.codec is not None:
            return self.codec.encode(self._target_point(rand))
        return float_to_key(min(self._target_float(rand), _BELOW_ONE))

    def draw_range(self, rng: RngLike = None) -> Tuple[int, int]:
        """A half-open integer key range of width ``range_span``."""
        rand = make_rng(rng)
        lo_f = min(self._target_float(rand), 1.0 - self.range_span)
        lo = float_to_key(max(lo_f, 0.0))
        hi = min(lo + max(int(self.range_span * MAX_KEY), 1), MAX_KEY)
        return lo, hi

    def draw_box(
        self, rng: RngLike = None
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Inclusive per-dimension cell bounds of one box query.

        The box is anchored at a point draw (hotspot-aware, so hot
        boxes are correlated across attributes) with per-dimension side
        lengths from ``box_spans`` (default: ``range_span`` on every
        side).  Requires a multi-dimensional codec.
        """
        if self.codec is None:
            raise DomainError("draw_box requires a multi-dimensional codec")
        rand = make_rng(rng)
        spans = self.box_spans or (self.range_span,) * self.codec.dims
        anchor = self._target_point(rand)
        lows, highs = [], []
        for x, span in zip(anchor, spans):
            lo = max(min(x, 1.0 - span), 0.0)
            lows.append(lo)
            highs.append(min(lo + span, 1.0))
        return self.codec.box_cells(lows, highs)


#: Largest float strictly below 1.0 accepted by :func:`float_to_key`.
_BELOW_ONE = 1.0 - 2.0**-53
