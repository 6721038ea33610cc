"""Per-level routing tables for prefix routing (Sec. 2.1).

For each bit position of its path a peer keeps one or more randomly
selected references to peers whose paths carry the *opposite* bit at that
position.  Multiple references per level provide the alternative access
paths that make the overlay resilient to failures and churn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Dict, Iterable, List, Mapping, Optional, Sequence

from .._util import RngLike, make_rng

__all__ = ["RoutingTable"]

#: Shared empty tuple returned by :meth:`RoutingTable.refs_view` for
#: unpopulated levels (avoids allocating an empty list per probe).
_NO_REFS: Sequence[int] = ()


@dataclass
class RoutingTable:
    """Routing references per path level, bounded per level.

    ``max_refs_per_level`` bounds memory and keeps the table's failure
    redundancy explicit (the paper keeps "one or more" references; our
    experiments default to 4, enough that churn rarely exhausts a level).
    """

    max_refs_per_level: int = 4
    levels: Dict[int, List[int]] = field(default_factory=dict)

    def add(self, level: int, peer_id: int) -> bool:
        """Insert a reference; evict the oldest beyond the bound.

        Returns True if the reference was new at this level.
        """
        refs = self.levels.setdefault(level, [])
        if peer_id in refs:
            return False
        refs.append(peer_id)
        if len(refs) > self.max_refs_per_level:
            refs.pop(0)
        return True

    def install(self, levels: Mapping[int, Iterable[int]]) -> None:
        """Replace the whole table with a copy of ``levels``, ascending."""
        self.levels = {level: list(levels[level]) for level in sorted(levels)}

    def remove(self, peer_id: int) -> None:
        """Drop a (failed) peer from every level."""
        for refs in self.levels.values():
            while peer_id in refs:
                refs.remove(peer_id)

    def refs(self, level: int) -> List[int]:
        """All references at ``level`` (possibly empty).

        Always a fresh copy: callers are free to shuffle or filter the
        result without perturbing the table's internal order (guarded by
        a regression test).
        """
        return list(self.levels.get(level, ()))

    def refs_view(self, level: int) -> Sequence[int]:
        """Zero-copy, read-only view of the references at ``level``.

        The hot query path probes references by index thousands of times
        per experiment; handing out the internal list avoids a copy per
        hop.  Callers MUST NOT mutate the returned sequence -- use
        :meth:`refs` for anything that rearranges or filters.
        """
        return self.levels.get(level, _NO_REFS)

    def choose(
        self, level: int, rng: RngLike = None, exclude: Container[int] = ()
    ) -> Optional[int]:
        """A random reference at ``level``, avoiding ``exclude`` if possible
        (one draw either way; once per routed hop on the wire)."""
        refs = self.levels.get(level)
        if not refs:
            return None
        if exclude:
            refs = [r for r in refs if r not in exclude] or refs
        return refs[make_rng(rng).randrange(len(refs))]

    def all_refs(self) -> List[int]:
        """Every referenced peer id (duplicates removed, order arbitrary)."""
        seen = set()
        for refs in self.levels.values():
            seen.update(refs)
        return list(seen)

    def depth(self) -> int:
        """Number of populated levels."""
        return len([lvl for lvl, refs in self.levels.items() if refs])

    def __contains__(self, peer_id: int) -> bool:
        return any(peer_id in refs for refs in self.levels.values())
