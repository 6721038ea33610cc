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

* the **data plane** has oracle evidence -- ``peer.online`` is globally
  visible -- so its mechanism is the synchronous :func:`repair_routes`
  sweep at the bottom of this module (the scenario runner and
  :mod:`repro.pgrid.maintenance` call it): drop dead references,
  replenish depleted levels from the live population;
* the **message backend** (:mod:`repro.simnet.node`) must infer
  liveness from the traffic it already sends, Kademlia-style: every
  query timeout or partition-refused send marks the used reference
  suspect, every delivered message refreshes the sender, suspects are
  probed with ``ping``/``pong`` and evicted after :data:`EVICT_AFTER`
  silent probes, and evicted references are replaced by candidate
  references gossiped on anti-entropy exchanges.

Who owns what on the wire
-------------------------
:class:`ReferenceTable` is a node's whole routing state: the levels,
the per-reference beliefs, the trusted pick, gossip out and in, what a
snapshot keeps, and the refresh sweep with its skip cache.  The node
owns what needs a path or a simulator: the level a key leaves through,
the ``ping``s the table says are due, their timers.  The scenario
runner and :mod:`repro.pgrid.state` go through the table's methods;
``tests/test_reference_table_scan.py`` fails if another file under
``src/`` names the belief dicts or the cache field.

What a probe is for
-------------------
A level routes as long as *one* reference in it is alive, and a dead
reference is found for free the moment a send to it is refused
(correction on use).  So the periodic sweep
(:meth:`ReferenceTable.due`, sent by ``PGridNode.refresh_routes``) does
not keep every reference fresh; it keeps every *level* routable, and
leaves dead spares to be found by use or by rotation.  Three rules, one
staleness test (:meth:`ReferenceTable.confirmed_until`) behind both
probe sources, the sweep and confirm-on-use:

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
   strike, eviction or restart (:meth:`ReferenceTable.wipe`) returns
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

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .._util import RngLike, make_rng
from .bits import Path
from .network import PGridNetwork
from .routing import RoutingTable

__all__ = ["RouteRepairPolicy", "ReferenceTable", "repair_routes"]


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


class ReferenceTable(RoutingTable):
    """One wire node's routing references and what it believes of them.

    States per reference: *live* (no strikes), *suspect* (>=1 strike;
    queries route around it while a probe chain decides), *evicted*
    (removed from every level; only gossip re-adds it).  Pure
    bookkeeping -- the owning node sends the pings and arms the timers
    -- so it is unit-testable without a node or a simulator.

    Whatever can leave a level without cover sooner than the last sweep
    computed is a method of this class and calls :meth:`_uncover`: the
    whole invariant of the skip cache in :meth:`due`.

    Counters (``suspects``, ``probes``, ``evictions``, ``replacements``,
    ``repair_bytes``) feed the scenario report's ``message_level.repair``
    section.
    """

    def __init__(self, owner: int, max_refs_per_level: int):
        super().__init__(max_refs_per_level)
        #: The node this table routes for: never a reference of its own.
        self.owner = owner
        #: Accumulated failure evidence per reference (never a zero
        #: count: the keys are exactly the suspects).
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
        #: The sweep's skip cache: the earliest instant a level can
        #: lapse, left by a sweep that found every level covered.
        self._lapse_at: Optional[float] = None
        # -- counters ------------------------------------------------------
        self.suspects = 0
        self.probes = 0
        self.evictions = 0
        self.replacements = 0
        self.repair_bytes = 0

    def _uncover(self) -> None:
        """Some level may now lapse sooner than the last sweep saw."""
        self._lapse_at = None

    # -- the levels ----------------------------------------------------------

    def add(self, level: int, ref: int) -> bool:
        """Bounded add of a complementary-subtree reference."""
        if ref == self.owner or not super().add(level, ref):
            return False
        self._uncover()  # may open, or displace the cover of, a level
        return True

    def install(self, levels: Mapping[int, Iterable[int]]) -> None:
        super().install(levels)
        self._uncover()

    def thin(self, depth: int, below: int) -> bool:
        """True iff one of levels ``0..depth-1`` holds fewer than ``below``
        references (``below=1``: empty, some keys are unreachable from here)."""
        get = self.levels.get
        for level in range(depth):
            refs = get(level)
            if refs is None or len(refs) < below:
                return True
        return False

    def short_of_refs(self, depth: int) -> bool:
        """True iff a level of a ``depth``-bit path holds fewer
        references than the bound.  Gossiped candidates only ever land
        at levels ``0..depth-1`` and never displace, so this is both
        when a probe asks for them and when any can be placed."""
        return self.thin(depth, self.max_refs_per_level)

    def pick(self, level: int, rng: random.Random) -> Optional[int]:
        """A random live-believed reference at ``level``.  Suspects are
        routed around while a probe chain decides their fate -- unless
        every reference there is suspect: gamble rather than dead-end."""
        return self.choose(level, rng, self.strikes)

    def audit(self, alive: Set[int], depth: int) -> Tuple[int, int]:
        """Ground truth against beliefs: how many references are not in
        ``alive``, and how many of levels ``0..depth-1`` hold none that
        is (one set intersection per level: every timed run ends here)."""
        dead = lit = 0
        for level, refs in self.levels.items():
            live = len(alive.intersection(refs))
            dead += len(refs) - live
            if live and level < depth:
                lit += 1
        return dead, depth - lit

    # -- gossip: how replacements travel ---------------------------------------

    def gossip(self) -> Tuple[Dict[int, List[int]], int]:
        """Candidate references per level for anti-entropy gossip, and
        how many there are in all (what the wire bills).

        Only live-believed references travel: gossiping a suspect would
        spread exactly the staleness repair exists to remove.
        """
        out = {}
        n_refs = 0
        strikes = self.strikes
        levels = self.levels
        for level in sorted(levels):
            refs = levels[level]
            if strikes:
                refs = [r for r in refs if r not in strikes]
            if refs:
                out[level] = refs = refs[:GOSSIP_REFS]
                n_refs += len(refs)
        return out, n_refs

    def accept_gossip(self, path: Path, their_path: Path, gossip: dict, now: float) -> None:
        """Install gossiped candidates into depleted levels of ``path``.

        A candidate at the sender's level ``l`` is known to live under
        the prefix ``their_path[:l] + ~their_path[l]``; placing it for
        *us* means finding where that prefix diverges from our own path.
        With ``c`` the length of the prefix the two paths share: below
        ``c`` the sender's levels are ours; the prefix of level ``c`` is
        our own side of the fork (it does not diverge from our path, the
        candidate's deeper position is unknown: skipped); above ``c``
        every prefix leaves our path at bit ``c`` -- unless our path
        ends there, a prefix of theirs, and nothing diverges.  Only
        levels below the redundancy bound accept candidates -- gossip
        replenishes, it never displaces a reference we still trust.
        """
        if not gossip or not self.short_of_refs(path.length):
            return
        max_refs = self.max_refs_per_level
        their_len = their_path.length
        common = their_path.common_prefix_length(path)
        for level in sorted(gossip):
            if level >= their_len or level == common:
                continue
            if level < common:
                mine = level
            elif common == path.length:
                break  # levels are sorted: every later one is above too
            else:
                mine = common
            refs = self.levels.setdefault(mine, [])
            for ref in gossip[level]:
                if len(refs) >= max_refs:
                    break
                if (
                    ref != self.owner
                    and ref not in refs
                    and not self.recently_evicted(ref, now)
                ):
                    refs.append(ref)
                    self._uncover()  # may open a level, with a stale reference
                    self.replacements += 1

    # -- evidence ----------------------------------------------------------

    def suspected(self, ref: int) -> bool:
        """True while ``ref`` has unresolved failure evidence."""
        return ref in self.strikes

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

    def _strike(self, ref: int) -> int:
        """One more strike: the reference stops covering its level and
        its earned interval is gone.  Returns the new count."""
        self._uncover()
        strikes = self.strikes[ref] = self.strikes.get(ref, 0) + 1
        self.confirm_interval.pop(ref, None)
        return strikes

    def strike(self, ref: int) -> bool:
        """Failure evidence (a timeout, a refused connect) against
        ``ref``; returns True if a probe should start.  Evidence against
        a stranger is dropped: there is nothing to repair."""
        if ref not in self:
            return False
        if self._strike(ref) == 1:
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
        if self._strike(ref) >= EVICT_AFTER:
            return "evict"
        return "probe"

    def cancel_probe(self, ref: int, nonce: int) -> None:
        """Void an in-flight probe without striking (e.g. we went
        offline and could never have heard the pong)."""
        if self.probe_nonce.get(ref) == nonce:
            del self.probe_nonce[ref]
            self._uncover()  # it covered its level, and no strike says so

    def unprobed_suspects(self) -> List[int]:
        """Suspects with no probe in flight (their chain was voided by
        our own absence), in id order: restart them, or they stay
        suspect -- and routed around -- forever."""
        return [ref for ref in sorted(self.strikes) if ref not in self.probe_nonce]

    def evict(self, ref: int, now: float) -> None:
        """Drop a dead-believed reference from every level and reset
        its state (a gossip re-add starts fresh).  If it was still in
        the table -- newer references may have displaced it -- count it
        and leave a tombstone against gossip from slower peers."""
        self._uncover()
        self.strikes.pop(ref, None)
        self.probe_nonce.pop(ref, None)
        if ref in self:
            self.remove(ref)
            self.evictions += 1
            self.last_confirmed.pop(ref, None)
            self.confirm_interval.pop(ref, None)
            self.evicted_at[ref] = now

    def recently_evicted(self, ref: int, now: float) -> bool:
        """True while ``ref``'s eviction tombstone blocks gossip re-adds."""
        evicted = self.evicted_at.get(ref)
        return evicted is not None and now - evicted < READD_COOLDOWN_S

    # -- the periodic sweep ----------------------------------------------------

    def due(self, now: float) -> List[int]:
        """The stalest reference of each *lapsed* level, to be probed.

        A level routes as long as one reference in it is alive, so that
        is all the sweep pays for: a level has lapsed when no reference
        in it is *covered* -- has a probe in flight, or is unsuspected
        with a confirmation that has not run out
        (:meth:`confirmed_until`).  Successive lapses of a level rotate
        through its references, stalest first, so dead spares are still
        found, one per lapse; use finds the rest.  At most
        :data:`REFRESH_PROBES` are due per sweep, stalest level first.
        """
        lapse_at = self._lapse_at
        if lapse_at is not None and now < lapse_at:
            # A previous sweep found every level covered until then, and
            # whatever could uncover one sooner called _uncover.
            return []
        in_flight = self.probe_nonce
        strikes = self.strikes
        confirmed_until = self.confirmed_until
        last_confirmed_get = self.last_confirmed.get
        # A probe in flight covers its level until it is answered (the
        # confirmation then lasts at least the base interval) or ends
        # in a strike or a cancellation (both uncover).
        in_flight_until = now + CONFIRM_INTERVAL_S
        lapsed = []
        lapse_at = None
        for refs in self.levels.values():
            until = now  # when this level's cover runs out
            for ref in refs:
                if ref in in_flight:
                    ref_until = in_flight_until
                elif ref in strikes:
                    continue
                else:
                    ref_until = confirmed_until(ref)
                if ref_until > until:
                    until = ref_until
            if until > now:
                if lapse_at is None or until < lapse_at:
                    lapse_at = until
            elif refs:
                lapsed.append(min((last_confirmed_get(r, 0.0), r) for r in refs))
        if not lapsed:
            self._lapse_at = lapse_at
            return []
        # ``last_confirmed`` is keyed by reference id, so a reference
        # that is the stalest of two levels appears once.
        return [ref for _, ref in sorted(set(lapsed))[:REFRESH_PROBES]]

    # -- restarts (see repro.pgrid.state) ------------------------------------------

    def wipe(self) -> None:
        """Forget every belief about every reference (levels and
        counters stay): what a restart leaves of this state, warm or
        cold."""
        self._uncover()
        self.strikes.clear()
        self.probe_nonce.clear()
        self.last_confirmed.clear()
        self.confirm_interval.clear()
        self.evicted_at.clear()

    def belief_ages(self, now: float) -> Tuple[list, list]:
        """What a snapshot keeps, as ``[ref, age_s]`` pairs in id order:
        the confirmation of each current reference (never heard from =
        confirmed at time 0; strangers' stamps are left out) and the
        eviction tombstones.  Strikes, probes in flight and earned
        back-off do not survive a process restart."""
        last_confirmed_get = self.last_confirmed.get
        return (
            [
                [ref, max(0.0, now - last_confirmed_get(ref, 0.0))]
                for ref in sorted(self.all_refs())
            ],
            [[ref, max(0.0, now - t)] for ref, t in sorted(self.evicted_at.items())],
        )

    def restore(self, levels, confirmed: list, evicted: list, now: float) -> None:
        """Resume from what :meth:`belief_ages` kept: the references
        come back *unconfirmed*, the eviction cooldowns with their age."""
        self.wipe()
        self.install(levels)
        self.last_confirmed = {
            # Rebase, then cap so needs_confirmation() is True for every
            # restored ref: they are handed to the probe machinery,
            # never trusted blindly.
            ref: min(now - age, now - CONFIRM_INTERVAL_S)
            for ref, age in confirmed
        }
        self.evicted_at = {ref: now - age for ref, age in evicted}


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
