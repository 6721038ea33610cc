"""Time-binned measurement series for the Sec. 5 figures.

Figures 7-9 plot, over a ~500 minute experiment: the number of
participating peers, aggregate bandwidth split into maintenance and
query traffic, and query latency (average and standard deviation).
:class:`StatsCollector` accumulates exactly those series in fixed-width
time bins (one minute by default, like the paper's plots).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .._util import mean, std

__all__ = ["StatsCollector", "QueryRecord"]


@dataclass
class QueryRecord:
    """Outcome of one query issued during the experiment."""

    issued_at: float
    latency: float
    hops: int
    success: bool


class StatsCollector:
    """Accumulates per-bin counters during a simulation run.

    It is the byte ledger of both scenario backends
    (:mod:`repro.scenarios.base`): the message backend's transport
    records every wire message, the data-plane backend its nominal byte
    model, and the report reads series, per-phase and total bytes from
    :attr:`bytes_by_category` alone.

    Byte accounting is the per-message hot path (one
    :meth:`record_bytes` per send), so it accumulates into flat
    per-category bin arrays indexed by bin number instead of nested
    defaultdicts; :attr:`bytes_by_category` materializes the classic
    ``{category: {bin: bytes}}`` view on demand (cached between
    records).  Zero-padded bins are skipped in the view, so a recorded
    bin must never hold zero bytes or it would vanish from the series:
    a wire message is never smaller than the fixed header, and the
    data-plane tally does not pass on an operation that cost nothing (a
    cache hit, a maintenance tick that moved no key).
    """

    def __init__(self, bin_seconds: float = 60.0):
        self.bin_seconds = bin_seconds
        self._category_bins: Dict[str, List[int]] = {}
        self._bytes_view: Dict[str, Dict[int, int]] = {}
        self._bytes_view_dirty = False
        self.population_samples: Dict[int, int] = {}
        self.queries: List[QueryRecord] = []

    # -- recording ----------------------------------------------------------

    def _bin(self, t: float) -> int:
        return int(t // self.bin_seconds)

    @property
    def bytes_by_category(self) -> Dict[str, Dict[int, int]]:
        """``{category: {bin: bytes}}`` view of the flat bin arrays."""
        if self._bytes_view_dirty:
            self._bytes_view = {
                category: {b: v for b, v in enumerate(bins) if v}
                for category, bins in self._category_bins.items()
            }
            self._bytes_view_dirty = False
        return self._bytes_view

    def record_bytes(self, t: float, category: str, size: int) -> None:
        """Attribute ``size`` bytes of ``category`` traffic to time ``t``."""
        b = int(t // self.bin_seconds)
        bins = self._category_bins.get(category)
        if bins is None:
            bins = self._category_bins[category] = []
        if b >= len(bins):
            bins.extend([0] * (b + 1 - len(bins)))
        bins[b] += size
        self._bytes_view_dirty = True

    def record_population(self, t: float, online: int) -> None:
        """Record the online peer count at time ``t`` (last sample per bin
        wins)."""
        self.population_samples[self._bin(t)] = online

    def record_query(
        self, issued_at: float, latency: float, hops: int, success: bool
    ) -> None:
        """Record a finished (or timed-out) query."""
        self.queries.append(
            QueryRecord(issued_at=issued_at, latency=latency, hops=hops, success=success)
        )

    # -- series extraction -----------------------------------------------------

    def minutes(self) -> List[float]:
        """Bin start times in minutes (sorted)."""
        bins = set(self.population_samples)
        for per_bin in self.bytes_by_category.values():
            bins.update(per_bin)
        return [b * self.bin_seconds / 60.0 for b in sorted(bins)]

    def population_series(self) -> List[Tuple[float, int]]:
        """Fig. 7: (minute, online peers)."""
        return [
            (b * self.bin_seconds / 60.0, count)
            for b, count in sorted(self.population_samples.items())
        ]

    def bandwidth_series(self, category: str) -> List[Tuple[float, float]]:
        """Fig. 8: (minute, bytes/second) for one traffic category."""
        per_bin = self.bytes_by_category.get(category, {})
        return [
            (b * self.bin_seconds / 60.0, size / self.bin_seconds)
            for b, size in sorted(per_bin.items())
        ]

    def latency_series(
        self, window_bins: int = 10
    ) -> List[Tuple[float, float, float]]:
        """Fig. 9: (minute, avg latency, latency stddev) over sliding bins.

        Only successful queries carry a meaningful latency; failures are
        reported through :meth:`success_rate` instead.
        """
        by_bin: Dict[int, List[float]] = defaultdict(list)
        for q in self.queries:
            if q.success:
                by_bin[self._bin(q.issued_at)].append(q.latency)
        out = []
        for b in sorted(by_bin):
            window: List[float] = []
            for w in range(b - window_bins + 1, b + 1):
                window.extend(by_bin.get(w, ()))
            if window:
                out.append((b * self.bin_seconds / 60.0, mean(window), std(window)))
        return out

    # -- aggregates ---------------------------------------------------------------

    def success_rate(self, t_from: float = 0.0, t_to: float = math.inf) -> float:
        """Fraction of successful queries issued within ``[t_from, t_to)``."""
        window = [q for q in self.queries if t_from <= q.issued_at < t_to]
        if not window:
            return float("nan")
        return sum(q.success for q in window) / len(window)

    def mean_hops(self, t_from: float = 0.0, t_to: float = math.inf) -> float:
        """Average hop count of successful queries in the window."""
        window = [
            q for q in self.queries if q.success and t_from <= q.issued_at < t_to
        ]
        if not window:
            return float("nan")
        return mean(q.hops for q in window)

    def peak_bandwidth(self, category: str) -> float:
        """Maximum per-bin bytes/second for a category."""
        series = self.bandwidth_series(category)
        return max((bps for _, bps in series), default=0.0)
