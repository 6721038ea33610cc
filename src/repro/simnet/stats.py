"""The run's byte ledger: wire bytes per traffic category and time bin.

Fig. 8 plots aggregate bandwidth split into maintenance and query
traffic; :class:`StatsCollector` accumulates the bytes behind it in
fixed-width time bins, and the scenario report
(:mod:`repro.scenarios.base`) reads its series, per-phase and total
bytes from it.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["StatsCollector"]


class StatsCollector:
    """Accumulates wire bytes per category and time bin during a run.

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

    # -- recording ----------------------------------------------------------

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
