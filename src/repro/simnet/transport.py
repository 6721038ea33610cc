"""Message transport: latency models, loss, and byte accounting.

PlanetLab links are heterogeneous and heavily loaded; the paper's
absolute latency numbers mostly reflect that (Sec. 5.2).  We model links
with pluggable latency distributions (log-normal by default -- heavy
tailed like measured wide-area RTTs), optional uniform message loss, and
hard drops to offline nodes (churn).

Every message carries a size in bytes and a *category* ("maintenance" or
"query" in the paper's Fig. 8) so aggregate bandwidth can be binned over
time by :mod:`repro.simnet.stats`.
"""

from __future__ import annotations

import math
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Tuple, TYPE_CHECKING

from .._util import RngLike, make_rng
from ..exceptions import SimulationError
from .engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from .node import SimNode
    from .stats import StatsCollector

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "PerLinkLatency",
    "Message",
    "Network",
    "HEADER_BYTES",
    "KEY_BYTES",
    "REF_BYTES",
]

#: Fixed per-message overhead (headers, framing) in bytes.
HEADER_BYTES = 100

#: Wire size of one data key (the paper moves key *references*).
KEY_BYTES = 20

#: Wire size of one gossiped routing reference (a peer id + level tag).
REF_BYTES = 8


class LatencyModel:
    """Base class: one-way delay sampler in seconds.

    A model checks its fields when it is built, so one that could draw a
    negative or NaN delay fails there, naming itself, and not at the
    first send of a run.
    """

    def _require(self, field_name: str, ok: bool, rule: str) -> None:
        # ``ok`` is an ``x >= 0``-style comparison: false for NaN too.
        if not ok:
            raise SimulationError(
                f"{type(self).__name__}.{field_name} must be {rule}, "
                f"got {getattr(self, field_name)!r}"
            )

    def sample(self, rng) -> float:
        raise NotImplementedError

    def sample_link(self, src: int, dst: int, rng) -> float:
        """Delay for one message on the ``src -> dst`` link.

        The default ignores the endpoints (one shared distribution);
        :class:`PerLinkLatency` overrides this to give every link its
        own deterministic base delay.
        """
        return self.sample(rng)


@dataclass
class ConstantLatency(LatencyModel):
    """Fixed delay -- useful for deterministic tests."""

    delay: float = 0.05

    def __post_init__(self) -> None:
        self._require("delay", self.delay >= 0, ">= 0")

    def sample(self, rng) -> float:
        return self.delay


@dataclass
class UniformLatency(LatencyModel):
    """Uniform delay in ``[lo, hi]`` seconds."""

    lo: float = 0.02
    hi: float = 0.3

    def __post_init__(self) -> None:
        self._require("lo", self.lo >= 0, ">= 0")
        self._require("hi", self.hi >= self.lo, f">= lo ({self.lo})")

    def sample(self, rng) -> float:
        return rng.uniform(self.lo, self.hi)


@dataclass
class LogNormalLatency(LatencyModel):
    """Heavy-tailed delay, median ``median`` seconds, shape ``sigma``.

    Matches the qualitative latency profile of shared wide-area testbeds:
    most messages are quick, a tail is very slow.
    """

    median: float = 0.12
    sigma: float = 0.8
    cap: float = 30.0

    def __post_init__(self) -> None:
        self._require("median", self.median >= 0, ">= 0")
        self._require("sigma", math.isfinite(self.sigma), "finite")
        self._require("cap", self.cap >= 0, ">= 0")

    def sample(self, rng) -> float:
        return self.sample_link(0, 0, rng)  # the endpoints are ignored

    def sample_link(self, src: int, dst: int, rng) -> float:
        # The default model of every send, so the draw lives here and
        # ``sample`` takes the extra hop, not the other way round.
        value = self.median * math.exp(rng.gauss(0.0, self.sigma))
        return min(value, self.cap)


def _mix32(value: int) -> int:
    """A small deterministic 32-bit integer mixer (no Python ``hash``,
    which is randomized per process)."""
    value &= 0xFFFFFFFF
    value ^= value >> 16
    value = (value * 0x45D9F3B) & 0xFFFFFFFF
    value ^= value >> 16
    value = (value * 0x45D9F3B) & 0xFFFFFFFF
    value ^= value >> 16
    return value


@dataclass
class PerLinkLatency(LatencyModel):
    """Heterogeneous links: a fixed per-link base delay plus jitter.

    PlanetLab-style testbeds pair fast LAN-ish links with slow
    intercontinental ones; a single shared distribution hides that each
    *pair* of nodes keeps its characteristic RTT across messages.  Each
    undirected link gets a base delay drawn deterministically (a seeded
    integer mix of the endpoint ids -- stable across runs and Python
    processes) from ``[lo, hi]``; an optional ``jitter`` model adds a
    per-message component on top.  ``overrides`` pins specific links,
    keyed by the (unordered) endpoint pair.
    """

    lo: float = 0.02
    hi: float = 0.2
    jitter: Optional[LatencyModel] = None
    seed: int = 0
    overrides: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._require("lo", self.lo >= 0, ">= 0")
        self._require("hi", self.hi >= self.lo, f">= lo ({self.lo})")
        for link, delay in self.overrides.items():
            if not delay >= 0:
                raise SimulationError(
                    f"PerLinkLatency.overrides[{link}] must be >= 0, got {delay!r}"
                )

    def link_delay(self, src: int, dst: int) -> float:
        """The deterministic base delay of the ``{src, dst}`` link."""
        a, b = (src, dst) if src <= dst else (dst, src)
        pinned = self.overrides.get((a, b))
        if pinned is None:
            pinned = self.overrides.get((b, a))  # either key order pins
        if pinned is not None:
            return pinned
        h = _mix32(a * 2654435761 + b * 40503 + self.seed * 1013904223)
        return self.lo + (self.hi - self.lo) * (h / 2**32)

    def sample(self, rng) -> float:
        # Without endpoints there is no link identity; fall back to a
        # uniform draw over the base-delay range.
        return self.lo + (self.hi - self.lo) * rng.random()

    def sample_link(self, src: int, dst: int, rng) -> float:
        delay = self.link_delay(src, dst)
        if self.jitter is not None:
            delay += self.jitter.sample(rng)
        return delay


#: A directed link's ledger entry is keyed ``src << _LINK_SHIFT | dst``
#: (node ids are non-negative and below ``2**_LINK_SHIFT``).
_LINK_SHIFT = 32
_LINK_LOW = (1 << _LINK_SHIFT) - 1


class LinkBytes(Mapping):
    """Read-only ``(src, dst) -> bytes`` view of a :class:`Network`'s
    link ledger, which keys each directed link by one int.  It looks up,
    iterates and compares equal like the tuple-keyed dict it stands for."""

    __slots__ = ("_ledger",)

    def __init__(self, ledger: Dict[int, int]):
        self._ledger = ledger

    def __getitem__(self, link: Tuple[int, int]) -> int:
        try:
            src, dst = link
            size = None
            if src >= 0 and 0 <= dst <= _LINK_LOW:
                size = self._ledger.get((src << _LINK_SHIFT) | dst)
        except (TypeError, ValueError):  # not a pair of ints
            size = None
        if size is None:
            raise KeyError(link)
        return size

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for code in self._ledger:
            yield code >> _LINK_SHIFT, code & _LINK_LOW

    def __len__(self) -> int:
        return len(self._ledger)

    def values(self):
        return self._ledger.values()

    def items(self):
        return _LinkItems(self)


class _LinkItems(ItemsView):
    """``LinkBytes.items()``: decodes the ledger in one pass, without a
    lookup per link."""

    def __iter__(self):
        for code, size in self._mapping._ledger.items():
            yield (code >> _LINK_SHIFT, code & _LINK_LOW), size


@dataclass(slots=True)
class Message:
    """One message on the wire (lean ``slots`` layout: one instance per
    send is the kernel's dominant allocation)."""

    src: int
    dst: int
    kind: str
    payload: dict
    size_bytes: int
    category: str = "maintenance"


class Network:
    """Delivers messages between registered nodes via the simulator.

    ``loss_rate`` drops messages uniformly at random (silently); sends
    to a node that is *already* offline are refused at send time (the
    TCP connect fails -- :meth:`send` returns ``"refused"`` so the
    sender's liveness bookkeeping can react), while a node going
    offline after the send still drops the message at delivery,
    invisible to the sender; while a partition is installed
    (:meth:`set_partitions`) messages crossing a partition boundary are
    refused too (``"partition"``).  All traffic is reported to the
    optional stats collector, and the network keeps its own
    operational accounting:

    * ``messages_dropped`` with a per-cause breakdown
      (``drops_offline`` / ``drops_loss`` / ``drops_partition``),
    * ``inflight`` / ``inflight_peak`` -- messages currently on the wire
      and the run's high-water mark,
    * ``link_bytes`` -- *offered* bytes per directed ``(src, dst)``
      link, counted at send time like the stats collector's category
      totals (drops included -- compare against ``delivered`` for
      carried load).  The ledger behind it keys a link by one int,
      ``src << 32 | dst``, not by a tuple: ints are not tracked by the
      cyclic garbage collector, and a run uses tens of thousands of
      links.  ``link_bytes`` is a read-only :class:`LinkBytes` view that
      looks up and compares by ``(src, dst)``,
    * ``delivered`` -- messages handled per destination node (the
      message-level notion of per-peer load).
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        rng: RngLike = None,
        stats: "StatsCollector | None" = None,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.latency = latency or LogNormalLatency()
        self.loss_rate = loss_rate
        self.rng = make_rng(rng)
        self.stats = stats
        self.nodes: Dict[int, "SimNode"] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        self.drops_offline = 0
        self.drops_loss = 0
        self.drops_partition = 0
        self.inflight = 0
        self.inflight_peak = 0
        self._link_ledger: Dict[int, int] = {}
        self.link_bytes = LinkBytes(self._link_ledger)
        self.delivered: Dict[int, int] = {}
        self._partition_of: Optional[Dict[int, int]] = None

    def register(self, node: "SimNode") -> None:
        """Attach a node; its ``node_id`` becomes its address."""
        if node.node_id in self.nodes:
            raise SimulationError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node

    # -- network partitions -------------------------------------------------

    def set_partitions(self, groups: Iterable[Iterable[int]]) -> None:
        """Split the network: messages between different groups are dropped.

        ``groups`` lists disjoint sets of node ids; a node absent from
        every group forms its own singleton partition (it can reach
        nothing and nothing reaches it).  Messages already on the wire
        when the partition appears still arrive -- only new sends are
        filtered, like a real cut severing links, not queues.
        """
        mapping: Dict[int, int] = {}
        for index, group in enumerate(groups):
            for node_id in group:
                if node_id in mapping:
                    raise SimulationError(
                        f"node {node_id} appears in more than one partition group"
                    )
                mapping[node_id] = index
        self._partition_of = mapping

    def heal_partitions(self) -> None:
        """Remove the installed partition; all links work again."""
        self._partition_of = None

    # -- sending ------------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: dict,
        *,
        n_keys: int = 0,
        n_refs: int = 0,
        category: str = "maintenance",
    ) -> Optional[str]:
        """Queue a message for delivery.

        ``n_keys`` contributes ``KEY_BYTES`` each to the wire size, on
        top of the fixed header -- the paper's bandwidth unit is data
        keys moved, ours is bytes, related by this constant.  ``n_refs``
        likewise bills gossiped routing references at ``REF_BYTES``.

        Returns the *send-time* drop cause (``"offline"`` sender,
        ``"refused"`` destination, ``"partition"``, ``"loss"``) or
        ``None`` when the message made it onto the wire.  Refusals and
        partition failures are locally observable -- the sender's
        connect fails, like a TCP RST from a departed peer or a severed
        link -- so callers may feed them to their liveness bookkeeping.
        Random loss stays silent, and a destination that goes offline
        *after* the send still drops at delivery time, invisible to the
        sender, which only ever learns about it through timeouts.
        """
        # Hot path: most messages carry no keys or refs, so the size
        # collapses to the precomputed header constant.
        if n_keys or n_refs:
            size = HEADER_BYTES + n_keys * KEY_BYTES + n_refs * REF_BYTES
        else:
            size = HEADER_BYTES
        self.messages_sent += 1
        stats = self.stats
        if stats is not None:
            stats.record_bytes(self.sim.now, category, size)
        link = (src << _LINK_SHIFT) | dst
        ledger = self._link_ledger
        ledger[link] = ledger.get(link, 0) + size
        nodes = self.nodes
        sender = nodes.get(src)
        if sender is not None and not sender.online:
            # A node that just went offline cannot transmit.
            self.messages_dropped += 1
            self.drops_offline += 1
            return "offline"
        # A node in no group is its own singleton partition.
        mapping = self._partition_of
        if mapping is not None and (
            mapping.get(src, -1 - src) != mapping.get(dst, -1 - dst)
        ):
            self.messages_dropped += 1
            self.drops_partition += 1
            return "partition"
        receiver = nodes.get(dst)
        if receiver is not None and not receiver.online:
            # The connect is refused outright (the peer's port is
            # closed); messages already in flight when a node dies still
            # drop silently at delivery below.
            self.messages_dropped += 1
            self.drops_offline += 1
            return "refused"
        rng = self.rng
        if self.loss_rate > 0.0 and rng.random() < self.loss_rate:
            self.messages_dropped += 1
            self.drops_loss += 1
            return "loss"
        # Only a message that gets on the wire costs a Message and a
        # delivery closure.
        message = Message(src, dst, kind, payload, size, category)
        self.inflight = inflight = self.inflight + 1
        if inflight > self.inflight_peak:
            self.inflight_peak = inflight
        self.sim.schedule(
            self.latency.sample_link(src, dst, rng), lambda: self._deliver(message)
        )
        return None

    def _deliver(self, message: Message) -> None:
        self.inflight -= 1
        dst = message.dst
        node = self.nodes.get(dst)
        if node is None or not node.online:
            self.messages_dropped += 1
            self.drops_offline += 1
            return
        delivered = self.delivered
        delivered[dst] = delivered.get(dst, 0) + 1
        node.receive(message)

    def online_count(self) -> int:
        """Number of currently online nodes."""
        return sum(1 for node in self.nodes.values() if node.online)
