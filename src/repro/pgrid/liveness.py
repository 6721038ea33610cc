"""Routing-reference liveness: one repair subsystem, two evidence sources.

The paper's PlanetLab results (Sec. 5, 95-100% query success under
churn) assume peers *repair* their routing tables when references die.
Operationally that is two separable concerns:

* a **policy** -- whether routes are repaired at all
  (:class:`RouteRepairPolicy`, the on/off A/B), and the module
  constants that say when a reference is suspect, how hard it is
  probed, when it is evicted and how replacements travel
  (:data:`EVICT_AFTER` ... :data:`READD_COOLDOWN_S`; no caller ever gave
  one a second value, so they are not options);
* a **mechanism** -- the bookkeeping that turns failure/liveness
  evidence into those decisions.

Both execution layers share this module but differ in where their
evidence comes from:

* the **data plane** (:mod:`repro.pgrid.maintenance`) has oracle
  evidence -- ``peer.online`` is globally visible -- so its mechanism is
  the synchronous :func:`repair_routes` sweep: drop dead references,
  replenish depleted levels from the live population;
* the **message backend** (:mod:`repro.simnet.node`) must infer
  liveness from the traffic it already sends, Kademlia-style: every
  query timeout or partition-refused send marks the used reference
  suspect, every delivered message refreshes the sender, suspects are
  probed with ``ping``/``pong`` and evicted after :data:`EVICT_AFTER`
  silent probes, and evicted references are replaced by candidate
  references gossiped on anti-entropy exchanges.  :class:`LivenessTracker` is that state
  machine (per node, simulator-agnostic -- the node supplies timers and
  messages).

What a probe is for
-------------------
A level routes as long as *one* reference in it is alive, and a dead
reference is found for free the moment a send to it is refused
(correction on use).  So the periodic sweep
(``PGridNode.refresh_routes``) does not keep every reference fresh; it
keeps every *level* routable, and leaves dead spares to be found by use
or by rotation.  Three rules, one staleness test
(:meth:`LivenessTracker.confirmed_until`) behind both probe sources,
the sweep and confirm-on-use:

1. **One confirmed reference per level.**  A reference is *covered*
   while a probe to it is in flight, or while it is unsuspected and its
   last confirmation has not run out.  The sweep probes a level only
   when nothing in it is covered, and then its stalest reference, so
   successive lapses rotate through the spares: a dead one is found
   once rotation reaches it, one per lapse.
2. **Back-off on success, reset on a strike.**  A confirmation is good
   for :data:`CONFIRM_INTERVAL_S`, doubled each time one of our probes
   to an unsuspected reference is answered, up to
   :data:`CONFIRM_INTERVAL_MAX_S` -- a reference that keeps answering
   has earned a longer wait (session lengths are heavy-tailed).
   Passive traffic refreshes the confirmation without doubling; any
   strike, eviction or restart (:meth:`LivenessTracker.wipe`) returns
   the reference to the base.
3. **Gossip on demand.**  A ``ping`` says whether the prober has a
   level short of references (``want``); only then does the ``pong``
   carry :data:`GOSSIP_REFS` candidates per level, otherwise it is a
   bare header.

Measured against the rule this replaced (every reference silent for
60 s is stale, eight probed per node per tick), 18 library scenarios at
N=512 on the wire: maintenance bytes 242 -> 102 MB, success rates within
-0.13 ... +0.67 points, levels with no live reference at the end
unchanged (102 -> 100 summed) -- and the cost: dead spares linger until
rotation or use reaches them (none -> 511 of 10,394 references at the
end of ``mass-leave``).  The report's ``message_level.repair`` audits
both (``dark_levels_final``, ``dead_refs_final``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .._util import RngLike, make_rng
from .network import PGridNetwork

__all__ = ["RouteRepairPolicy", "LivenessTracker", "repair_routes"]


#: Strikes (failure evidence + silent probes) before eviction.
EVICT_AFTER = 2
#: Seconds a probe waits for its ``pong`` before striking.
PROBE_TIMEOUT_S = 10.0
#: Seconds a confirmation of a reference is good for until the
#: reference has earned more: the base of the per-reference confirm
#: interval, and what every strike, eviction and restart returns it to.
CONFIRM_INTERVAL_S = 60.0
#: Cap of the per-reference confirm interval (four doublings of the
#: base): the longest a reference that keeps answering goes unprobed.
CONFIRM_INTERVAL_MAX_S = 960.0
#: Lapsed levels probed per node per maintenance tick, stalest first.
#: Binds only where a path is longer than this (N=4096 and up), on the
#: first sweeps after every level lapses at once.
REFRESH_PROBES = 8
#: Candidate references gossiped per routing level on every
#: anti-entropy exchange and every ``pong``.
GOSSIP_REFS = 2
#: Seconds during which gossip may not re-install a reference this
#: node just evicted (a negative cache: peers that have not noticed
#: the death yet keep gossiping it; direct traffic from the
#: reference clears the tombstone early).
READD_COOLDOWN_S = 60.0


@dataclass(frozen=True)
class RouteRepairPolicy:
    """The on/off switch of the shared route-repair subsystem.

    ``enabled=False`` reproduces the repair-less PR-3 wire behavior and
    skips the data plane's repair sweep.  How the evidence-based
    mechanism of the message backend behaves when on is fixed by the
    module constants above.
    """

    #: Master switch: ``False`` = route blindly (the degradation baseline).
    enabled: bool = True


class LivenessTracker:
    """Evidence-driven liveness state machine for one node's references.

    States per reference: *live* (no strikes), *suspect* (>=1 strike;
    queries route around it while a probe chain decides), *evicted*
    (removed from the routing table; only gossip re-adds it).  The
    tracker is pure bookkeeping -- the owning node sends the pings,
    schedules the timeouts and mutates its routing table -- so the same
    class is unit-testable without a simulator.

    Counters (``suspects``, ``probes``, ``evictions``, ``replacements``,
    ``repair_bytes``) feed the scenario report's ``message_level.repair``
    section.
    """

    def __init__(self):
        #: Accumulated failure evidence per reference.
        self.strikes: Dict[int, int] = {}
        #: Outstanding probe nonce per reference (at most one in flight).
        self.probe_nonce: Dict[int, int] = {}
        #: Last time any message from the reference was delivered to us.
        self.last_confirmed: Dict[int, float] = {}
        #: Confirm interval of each reference that has backed off
        #: (absent = :data:`CONFIRM_INTERVAL_S`).
        self.confirm_interval: Dict[int, float] = {}
        #: Eviction tombstones: when each reference was last evicted.
        self.evicted_at: Dict[int, float] = {}
        self._nonce = 0
        # -- counters ------------------------------------------------------
        self.suspects = 0
        self.probes = 0
        self.evictions = 0
        self.replacements = 0
        self.repair_bytes = 0

    # -- evidence ----------------------------------------------------------

    def suspected(self, ref: int) -> bool:
        """True while ``ref`` has unresolved failure evidence."""
        return self.strikes.get(ref, 0) >= 1

    def note_alive(self, ref: int, now: float) -> None:
        """A message from ``ref`` was delivered: refresh, clear suspicion."""
        self.last_confirmed[ref] = now
        # Runs once per delivered message; the tombstone table is almost
        # always empty, so it is only touched when it holds something.
        if self.evicted_at:
            self.evicted_at.pop(ref, None)  # demonstrably back: clear tombstone
        if ref in self.strikes or ref in self.probe_nonce:
            if self.strikes.pop(ref, None) is None:
                # Our probe of a reference we did not suspect is
                # answered (by whatever arrives from it first): it has
                # earned a longer wait.  Passive traffic -- no probe in
                # flight -- never gets here.
                self.confirm_interval[ref] = min(
                    2.0 * self.confirm_interval.get(ref, CONFIRM_INTERVAL_S),
                    CONFIRM_INTERVAL_MAX_S,
                )
            self.probe_nonce.pop(ref, None)

    def note_failure(self, ref: int) -> bool:
        """Record failure evidence; returns True if a probe should start."""
        strikes = self.strikes.get(ref, 0)
        self.strikes[ref] = strikes + 1
        self.confirm_interval.pop(ref, None)
        if strikes == 0:
            self.suspects += 1
        return ref not in self.probe_nonce

    def confirmed_until(self, ref: int) -> float:
        """The instant ``ref``'s last confirmation runs out."""
        return self.last_confirmed.get(ref, 0.0) + self.confirm_interval.get(
            ref, CONFIRM_INTERVAL_S
        )

    def needs_confirmation(self, ref: int, now: float) -> bool:
        """Confirm-on-use: should forwarding to ``ref`` trigger a ping?"""
        if ref in self.probe_nonce:
            return False
        # Asked once per forwarded message: no interval is shorter than
        # the base, so a reference heard from within it is settled
        # without a second lookup.
        if now - self.last_confirmed.get(ref, 0.0) < CONFIRM_INTERVAL_S:
            return False
        return now >= self.confirmed_until(ref)

    # -- probe chain -------------------------------------------------------

    def begin_probe(self, ref: int) -> int:
        """Register one in-flight probe; returns its nonce."""
        self._nonce += 1
        self.probe_nonce[ref] = self._nonce
        self.probes += 1
        return self._nonce

    def probe_expired(self, ref: int, nonce: int) -> str:
        """Probe timer fired: ``""`` (stale), ``"probe"`` or ``"evict"``."""
        if self.probe_nonce.get(ref) != nonce:
            return ""  # answered or superseded in the meantime
        del self.probe_nonce[ref]
        strikes = self.strikes.get(ref, 0) + 1
        self.strikes[ref] = strikes
        self.confirm_interval.pop(ref, None)
        if strikes >= EVICT_AFTER:
            return "evict"
        return "probe"

    def cancel_probe(self, ref: int, nonce: int) -> None:
        """Void an in-flight probe without striking (e.g. we went
        offline and could never have heard the pong)."""
        if self.probe_nonce.get(ref) == nonce:
            del self.probe_nonce[ref]

    def note_evicted(self, ref: int, now: float = 0.0) -> None:
        """The owner removed ``ref`` from its table: reset its state (a
        gossip re-add starts fresh) and leave a tombstone so gossip from
        slower peers cannot re-install it immediately."""
        self.evictions += 1
        self.strikes.pop(ref, None)
        self.probe_nonce.pop(ref, None)
        self.last_confirmed.pop(ref, None)
        self.confirm_interval.pop(ref, None)
        self.evicted_at[ref] = now

    def wipe(self) -> None:
        """Forget every belief about every reference (counters stay):
        what a restart leaves of this state, warm or cold."""
        self.strikes.clear()
        self.probe_nonce.clear()
        self.last_confirmed.clear()
        self.confirm_interval.clear()
        self.evicted_at.clear()

    def recently_evicted(self, ref: int, now: float) -> bool:
        """True while ``ref``'s eviction tombstone blocks gossip re-adds."""
        evicted = self.evicted_at.get(ref)
        return evicted is not None and now - evicted < READD_COOLDOWN_S

    def note_replacement(self, n: int = 1) -> None:
        """Count references installed from gossip."""
        self.replacements += n


def repair_routes(
    network: PGridNetwork,
    *,
    policy: Optional[RouteRepairPolicy] = None,
    rng: RngLike = None,
) -> int:
    """Oracle-evidence repair: correction on use *with replenishment*.

    The data plane's policy instance -- liveness evidence is the global
    ``peer.online`` flag, so one synchronous sweep can replace dead
    references with live peers from the same complementary subtree and
    top depleted levels back up toward the table's redundancy bound.

    Replenishment matters under sustained churn: replacing only the dead
    references a level still holds makes degradation absorbing -- a deep
    outage strips a level to zero and nothing ever refills it, leaving
    the overlay permanently partitioned even after every peer returns
    (the scenario engine's Sec. 5.1 churn runs surfaced exactly this).
    Returns the number of reference replacements/additions made; a
    disabled ``policy`` makes the sweep a no-op (the degradation
    baseline).
    """
    if policy is not None and not policy.enabled:
        return 0
    rand = make_rng(rng)
    alive_by_prefix: dict = {}
    for peer in network.peers.values():
        if not peer.online:
            continue
        for length in range(peer.path.length + 1):
            alive_by_prefix.setdefault(peer.path.prefix(length), []).append(peer.peer_id)
    repaired = 0
    peers = network.peers
    for peer in peers.values():
        max_refs = peer.routing.max_refs_per_level
        for level in range(peer.path.length):
            refs = peer.routing.levels.get(level)
            if refs is None:
                refs = []
            dead = [r for r in refs if not peers[r].online]
            if not dead and len(refs) >= max_refs:
                continue
            comp = peer.path.prefix(level).extend(1 - peer.path.bit(level))
            candidates = [c for c in alive_by_prefix.get(comp, ()) if c not in refs]
            for d in dead:
                refs.remove(d)
            # Only actual reference installations count as repairs: the
            # scenario engine bills network traffic per repair, and a
            # local dead-ref deletion costs no messages.
            while len(refs) < max_refs and candidates:
                refs.append(candidates.pop(rand.randrange(len(candidates))))
                repaired += 1
            if refs and level not in peer.routing.levels:
                peer.routing.levels[level] = refs
    return repaired
