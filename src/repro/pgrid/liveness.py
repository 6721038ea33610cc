"""Routing-reference liveness: one repair subsystem, two evidence sources.

The paper's PlanetLab results (Sec. 5, 95-100% query success under
churn) assume peers *repair* their routing tables when references die.
Repair is always on -- it is the protocol, not a mode.  Operationally
that is two separable concerns:

* a **policy** -- the module constants that say when a reference is
  suspect, how hard it is probed, when it is evicted and how
  replacements travel (:data:`EVICT_AFTER` ... :data:`READD_COOLDOWN_S`;
  no caller ever gave one a second value, so they are not options);
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
  probed with a ``ping`` whose connect decides them -- an accepted one
  clears the strike, a refused one strikes again, and
  :data:`EVICT_AFTER` strikes evict -- and evicted references are
  replaced by candidate references gossiped on anti-entropy exchanges.

Who owns what on the wire
-------------------------
:class:`ReferenceTable` is a node's whole routing state: the levels,
the per-reference beliefs, the trusted pick, gossip out and in, what a
snapshot keeps, and the refresh sweep with its skip cache.  The node
owns what needs a path or a transport: the level a key leaves through,
the ``ping``s the table says are due, and what their connects said.
The scenario runner and :mod:`repro.pgrid.state` go through the
table's methods; ``tests/test_reference_table_scan.py`` fails if
another file under ``src/`` names the belief dicts or the cache field.

What a probe is for
-------------------
A level routes as long as *one* reference in it is alive, and a dead
reference is found for free the moment a send to it is refused
(correction on use).  So the periodic sweep
(:meth:`ReferenceTable.due`, sent by ``PGridNode.refresh_routes``) does
not keep every reference fresh; it keeps every *level* routable, and
leaves dead spares to be found by use or by rotation.  Four rules, one
staleness test (:meth:`ReferenceTable.confirmed_until`) behind both
probe sources, the sweep and use:

1. **One confirmed reference per level.**  A reference is *covered*
   while it is unsuspected and its last confirmation has not run out.
   The sweep probes a level only when nothing in it is covered, and
   then its stalest reference, so successive lapses rotate through the
   spares: a dead one is found once rotation reaches it, one per lapse.
2. **Back-off on success, reset on a strike.**  A confirmation is good
   for :data:`CONFIRM_INTERVAL_S`, doubled each time one of our probes
   to an unsuspected reference is answered, up to
   :data:`CONFIRM_INTERVAL_MAX_S` -- a reference that keeps answering
   has earned a longer wait (session lengths are heavy-tailed).
   Passive traffic refreshes the confirmation without doubling; any
   strike, eviction or restart (:meth:`ReferenceTable.wipe`) returns
   the reference to the base.
3. **Gossip on demand, where it can land.**  A ``ping`` says whether
   the prober wants candidates (``want``); only then is it answered, by
   a ``pong`` carrying :data:`GOSSIP_REFS` candidates per level.  It
   asks only for levels that ``pong`` can reach: a responder at our
   level ``k`` shares exactly our first ``k`` bits, so
   :meth:`ReferenceTable.accept_gossip` puts its levels below ``k`` on
   ours, skips its level ``k`` (our own side of the fork) and puts its
   deeper ones at ``k`` -- never deeper.  So the ``ping`` asks iff one
   of our levels ``0..k`` is short (:meth:`ReferenceTable.wants_gossip`).
4. **The connect is every probe's verdict.**  The transport refuses a
   connect to an offline or partitioned peer *before* it draws random
   loss, so an accepted connect proves the reference online, and a
   ``pong`` would add nothing to it.  A ``ping`` -- the sweep's, a
   suspect's, or the use-ping below -- is therefore decided the instant
   it is sent: accepted (delivered or silently lost, the sender cannot
   tell) it is answered (:meth:`ReferenceTable.note_answered`: a
   suspect is cleared, an unsuspected reference stamped and its interval
   doubled); refused, it strikes, and :data:`EVICT_AFTER` strikes evict
   on the spot.  Nothing waits for a ``pong`` and no probe arms a
   timer.  A forward through a reference whose confirmation has lapsed
   (:meth:`ReferenceTable.needs_confirmation`) is the same probe riding
   on the message itself.  Only a node short of references at or above
   the forward's level still pings on use, because then what it asks
   for is the ``pong``'s gossip.

Measured against the rule this replaced (every reference silent for
60 s is stale, eight probed per node per tick), 18 library scenarios at
N=512 on the wire: maintenance bytes 242 -> 102 MB, success rates within
-0.13 ... +0.67 points, levels with no live reference at the end
unchanged (102 -> 100 summed) -- and the cost: dead spares linger until
rotation or use reaches them (none -> 511 of 10,394 references at the
end of ``mass-leave``).  The report's ``message_level.repair`` audits
both (``dark_levels_final``, ``dead_refs_final``).

Rule 4's first form, the forward's connect as its use-probe, then
replaced the ``ping`` a forward used to send beside its message.  Over
the same 18 scenarios with seeds 1-6 (N=512, ``duration_scale=0.5``):
maintenance bytes 397.9 -> 324.1 MB summed, no scenario's mean query or
write success rate lower by more than 0.0015, levels with no live
reference 304 -> 297 and dead references 9,998 -> 9,918 summed at the
end.  A node short of references keeps its use-ping: dropping it too
cuts the bytes to 253.4 MB, but short nodes lose their gossip -- mean
success falls by 0.0027 on ``regional-outage`` (about 5 paired standard
errors) and 0.0023 on ``correlated-churn``, and 324 levels end with no
live reference.

Deciding every ``ping`` at its connect (rule 4 as it stands), not at
its ``pong`` or a 10 s timer, then took the wait out of the probe.
Same 18 scenarios, seeds 1-6, N=512, ``duration_scale=0.5``:
maintenance bytes 324.1 -> 280.3 MB summed (0.865x), messages 0.909x,
levels with no live reference 297 -> 289 and dead references 9,918 ->
9,746 summed at the end.  No scenario's mean query or write success
rate fell by more than 0.0015 (``paper-sec51-churn``, paired standard
error 0.0022; ``correlated-churn`` -0.0014, 0.0005).  More pings are
sent -- a refused ``ping`` strikes once, so a fresh dead reference
takes :data:`EVICT_AFTER` of them, where one used to strike twice --
but no ``pong`` answers a ``ping`` that did not ask for gossip.
Keeping a timer for a lost ``ping`` alone would keep a nonce and a
timer per probe to react to a loss the sender cannot observe.

Bounding rule 3's ``want`` by the pinged reference's level, where it
used to be set by any short level of the path, then cut the ``pong``s
that could place nothing.  For it to hold within one sweep, the sweep
sends its probes by ascending level (:meth:`ReferenceTable.due`): a
refused probe that evicts at level ``j`` has made ``j`` short before
the deeper levels' pings go out, so those still ask.  Same 18
scenarios, seeds 1-6, N=512, ``duration_scale=0.5``: maintenance bytes
280.3 -> 178.9 MB summed (0.638x), messages 0.870x, dead references
9,746 -> 9,664 and levels with no live reference 289 -> 298 summed at
the end; no scenario's mean query or write success rate fell by more
than 0.0007.  The rule is near exact: over seeds 1-3, of the 202,399
``pong``s it no longer requests, 137 (0.07%) placed a candidate -- a
level of ``0..k`` fell short while the ``ping`` was in flight.  The
``pong``s still requested on ``wire-maint`` come from nodes whose short
levels already hold their whole complementary subtree, smaller than
the bound: those can place nothing either, but telling that would take
the subtree's replica set.

Which reference a forward takes
-------------------------------
The table also keeps the path each reference was last known to hold
(:meth:`ReferenceTable.known_paths`): the bootstrap's blueprint (read
in place until a level first changes: building the map for every node
up front cost 4.8 ms, a quarter of ``wire-maint``'s set-up), copied
from the sponsor on a sponsored join, and refreshed from the ``path``
every ``pong``, ``exchange_req`` and ``exchange_resp`` already
carries.  Paths only extend, so a known path is a prefix of the true
one; a snapshot does not keep them.  A first attempt's forward is
greedy, Kademlia's rule: :meth:`ReferenceTable.pick` with the key
returns the reference whose known path shares the longest prefix with
it, so a hop fixes as many bits as the table knows how to, not one.  A retry's forward draws uniformly, as every hop did before:
greedy on every attempt sends each retry to the same best match, and a
best match with no live way onward dead-ends it every time.  On the
layered benchmark's wire workloads (seed 20050830, no loss),
messages per operation fell 5.372 -> 3.787 on ``wire-reads`` (held-out
seed 11: 5.356 -> 3.740), 11.858 -> 10.567 on ``wire-maint`` and
10.044 -> 8.793 on ``wire-writes``, with no operation failed on seeds
1-40 of each.  Greedy retries too failed 1 and 2 ``wire-writes``
operations on seeds 2 and 9, where the parent failed none: on seed 9
both failures were one origin sending all five attempts of an
operation to the same reference.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .._util import RngLike, make_rng
from .bits import Path
from .keyspace import KEY_BITS
from .network import PGridNetwork
from .routing import RoutingTable

__all__ = ["ReferenceTable", "repair_routes"]


#: Strikes (timeouts and refused connects) before eviction.
EVICT_AFTER = 2
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


class ReferenceTable(RoutingTable):
    """One wire node's routing references and what it believes of them.

    States per reference: *live* (no strikes), *suspect* (>=1 strike;
    queries route around it until a probe decides), *evicted* (removed
    from every level; only gossip re-adds it).  An online node probes a
    suspect at once and the connect decides it, so strikes outlast the
    instant they are taken only while the node is offline.  Pure
    bookkeeping -- the owning node sends the pings and reports their
    connects -- so it is unit-testable without a node or a simulator.

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
        #: Last time any message from the reference was delivered to us.
        self.last_confirmed: Dict[int, float] = {}
        #: Confirm interval of each reference that has backed off
        #: (absent = :data:`CONFIRM_INTERVAL_S`).
        self.confirm_interval: Dict[int, float] = {}
        #: Eviction tombstones: when each reference was last evicted.
        self.evicted_at: Dict[int, float] = {}
        #: The path each reference was last known to hold (absent =
        #: unknown).  Paths only extend, so a known path is a prefix of
        #: the true one; the keys are always references of some level.
        #: Read through :meth:`known_paths`: a bootstrapped table leaves
        #: it empty until first use (``_blueprint``).
        self.ref_paths: Dict[int, Path] = {}
        #: Every node's path by id, set by :meth:`bootstrap` while the
        #: levels are still the drawn ones; the first change to a level
        #: turns it into ``ref_paths`` (the drawn references' entries).
        self._blueprint: Optional[Sequence[Path]] = None
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
        if ref == self.owner:
            return False
        known = self.known_paths()
        refs = self.levels.get(level)
        oldest = refs[0] if refs and len(refs) >= self.max_refs_per_level else None
        if not super().add(level, ref):
            return False
        self._uncover()  # may open, or displace the cover of, a level
        if oldest is not None and oldest not in self:
            known.pop(oldest, None)  # displaced from its last level
        return True

    def install(self, levels: Mapping[int, Iterable[int]]) -> None:
        """Replace the levels with a copy of ``levels``; every path is
        unknown."""
        super().install(levels)
        self._uncover()
        self._blueprint = None
        self.ref_paths = {}

    def bootstrap(self, levels: Dict[int, List[int]], path_of: Sequence[Path]) -> None:
        """Take a fresh table's drawn levels as they are, without a copy;
        each reference's known path is ``path_of[ref]`` (the blueprint's
        shared ``Path`` objects: immutable, so never copied).  Nothing
        is built per reference until :meth:`known_paths` is first needed:
        set-up costs one assignment per node."""
        self.levels = levels
        self._blueprint = path_of

    def known_paths(self) -> Dict[int, Path]:
        """The known path of each reference, by id: the table's own dict,
        which every method that changes a level reads first (so a
        bootstrapped table's drawn references are the ones that get
        their blueprint paths)."""
        blueprint = self._blueprint
        if blueprint is not None:
            self._blueprint = None
            self.ref_paths = {
                ref: blueprint[ref] for refs in self.levels.values() for ref in refs
            }
        return self.ref_paths

    def adopt(self, sponsor: "ReferenceTable") -> None:
        """A sponsored placement: the sponsor's levels and what it knows
        of their paths (copies)."""
        self.install(sponsor.levels)
        self.ref_paths = dict(sponsor.known_paths())

    def remove(self, ref: int) -> None:
        known = self.known_paths()
        super().remove(ref)
        known.pop(ref, None)

    def note_path(self, ref: int, path: Path) -> None:
        """``ref`` sent us its path (a ``pong`` or an exchange carries
        it): remember it if ``ref`` is one of our references."""
        if ref in self:
            self.known_paths()[ref] = path

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
        at levels ``0..depth-1`` and never displace, so this is when
        any can be placed at all."""
        return self.thin(depth, self.max_refs_per_level)

    def wants_gossip(self, ref: int) -> bool:
        """Should a ``ping`` to ``ref`` ask for gossip?  A responder at
        our level ``k`` shares our first ``k`` bits, so its ``pong`` can
        place candidates at our levels ``0..k`` only
        (:meth:`accept_gossip`): ask iff one of those is short.  A
        reference held at two levels counts at its deepest."""
        deepest = max((lv for lv, refs in self.levels.items() if ref in refs), default=-1)
        return self.thin(deepest + 1, self.max_refs_per_level)

    def pick(
        self, level: int, rng: random.Random, key: Optional[int] = None
    ) -> Optional[int]:
        """A live-believed reference at ``level``.  Suspects are routed
        around until a probe decides their fate -- unless every
        reference there is suspect: gamble rather than dead-end.

        ``key=None`` draws uniformly (one draw per non-empty level).
        Given a key, the reference whose known path shares the longest
        prefix with it wins: a path the key falls inside beats any
        partial match (the deeper the better), and an unknown path
        counts as ``level + 1`` bits -- all a reference at ``level`` is
        known to share with a key leaving through it.  A tie costs one
        draw, a single best none.
        """
        if key is None:
            return self.choose(level, rng, self.strikes)
        refs = self.levels.get(level)
        if not refs:
            return None
        strikes = self.strikes
        if strikes:
            refs = [r for r in refs if r not in strikes] or refs
        blueprint = self._blueprint
        # Untouched since the bootstrap, every reference is a drawn one.
        paths_get = self.ref_paths.get if blueprint is None else blueprint.__getitem__
        best: List[int] = []
        top = -1
        for ref in refs:
            path = paths_get(ref)
            if path is None:
                match = level + 1
            else:
                length = path.length
                diff = (key >> (KEY_BITS - length)) ^ path.bits
                # Inside: ranked above every partial match (no partial
                # match can exceed KEY_BITS bits).
                match = length - diff.bit_length() if diff else KEY_BITS + 1 + length
            if match > top:
                top = match
                best = [ref]
            elif match == top:
                best.append(ref)
        if len(best) == 1:
            return best[0]
        return best[rng._randbelow(len(best))]

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

    def accept_gossip(
        self, path: Path, their_path: Path, gossip: Optional[dict], now: float
    ) -> None:
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
        self.known_paths()  # before a level changes (see ``_blueprint``)
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

    def struck(self) -> List[int]:
        """The suspects, in id order: the strikes a node took while
        offline, which it probes on its return."""
        return sorted(self.strikes)

    def note_alive(self, ref: int, now: float) -> None:
        """A message from ``ref`` was delivered: refresh, clear suspicion."""
        self.last_confirmed[ref] = now
        # Runs once per delivered message; the tombstone table is almost
        # always empty, so it is only touched when it holds something.
        if self.evicted_at:
            self.evicted_at.pop(ref, None)  # demonstrably back: clear tombstone
        if ref in self.strikes:
            del self.strikes[ref]

    def note_answered(self, ref: int, now: float) -> None:
        """The connect of a probe of ``ref`` was accepted: a ``ping``,
        or a forward through it while :meth:`needs_confirmation` held.
        Its confirmation is stamped; a suspect is cleared (its strike
        already returned it to the base), an unsuspected reference has
        earned a longer wait."""
        self.last_confirmed[ref] = now
        if self.strikes.pop(ref, None) is None:
            self.confirm_interval[ref] = min(
                2.0 * self.confirm_interval.get(ref, CONFIRM_INTERVAL_S),
                CONFIRM_INTERVAL_MAX_S,
            )

    def _strike(self, ref: int) -> int:
        """One more strike: the reference stops covering its level and
        its earned interval is gone.  Returns the new count."""
        self._uncover()
        strikes = self.strikes[ref] = self.strikes.get(ref, 0) + 1
        self.confirm_interval.pop(ref, None)
        return strikes

    def strike(self, ref: int, now: float) -> bool:
        """Failure evidence (a timeout, a refused connect) against
        ``ref``; returns True if a probe should decide it.  The
        :data:`EVICT_AFTER`-th strike evicts on the spot instead.
        Evidence against a stranger is dropped: there is nothing to
        repair."""
        if ref not in self:
            return False
        strikes = self._strike(ref)
        if strikes == 1:
            self.suspects += 1
        if strikes >= EVICT_AFTER:
            self.evict(ref, now)
            return False
        return True

    def confirmed_until(self, ref: int) -> float:
        """The instant ``ref``'s last confirmation runs out."""
        return self.last_confirmed.get(ref, 0.0) + self.confirm_interval.get(
            ref, CONFIRM_INTERVAL_S
        )

    def needs_confirmation(self, ref: int, now: float) -> bool:
        """Confirm-on-use: is a forward through ``ref`` the probe its
        lapsed confirmation is due?"""
        # Asked once per forwarded message: no interval is shorter than
        # the base, so a reference heard from within it is settled
        # without a second lookup.
        if now - self.last_confirmed.get(ref, 0.0) < CONFIRM_INTERVAL_S:
            return False
        return now >= self.confirmed_until(ref)

    def evict(self, ref: int, now: float) -> None:
        """Drop a dead-believed reference from every level and reset
        its state (a gossip re-add starts fresh).  If it was still in
        the table -- newer references may have displaced it -- count it
        and leave a tombstone against gossip from slower peers."""
        self._uncover()
        self.strikes.pop(ref, None)
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
        in it is *covered* -- is unsuspected with a confirmation that
        has not run out (:meth:`confirmed_until`).  Successive lapses of
        a level rotate through its references, stalest first, so dead
        spares are still found, one per lapse; use finds the rest.  At
        most :data:`REFRESH_PROBES` are due per sweep, those of the
        stalest levels.

        They are returned in ascending level order (a reference standing
        for two levels goes at the shallower): a refused probe that
        evicts at level ``j`` has made ``j`` short before the deeper
        levels' probes go out, so those still ask for gossip
        (:meth:`wants_gossip`).
        """
        lapse_at = self._lapse_at
        if lapse_at is not None and now < lapse_at:
            # A previous sweep found every level covered until then, and
            # whatever could uncover one sooner called _uncover.
            return []
        strikes = self.strikes
        confirmed_until = self.confirmed_until
        last_confirmed_get = self.last_confirmed.get
        lapsed = []
        lapse_at = None
        for _, refs in sorted(self.levels.items()):
            until = now  # when this level's cover runs out
            for ref in refs:
                if ref in strikes:
                    continue
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
        # that is the stalest of two levels appears once, at the first.
        chosen = set(sorted(set(lapsed))[:REFRESH_PROBES])
        return [ref for stale, ref in dict.fromkeys(lapsed) if (stale, ref) in chosen]

    # -- restarts (see repro.pgrid.state) ------------------------------------------

    def wipe(self) -> None:
        """Forget every belief about every reference, its path included
        (levels and counters stay): what a restart leaves of this state,
        warm or cold."""
        self._uncover()
        self.strikes.clear()
        self.last_confirmed.clear()
        self.confirm_interval.clear()
        self.evicted_at.clear()
        self._blueprint = None
        self.ref_paths = {}

    def belief_ages(self, now: float) -> Tuple[list, list]:
        """What a snapshot keeps, as ``[ref, age_s]`` pairs in id order:
        the confirmation of each current reference (never heard from =
        confirmed at time 0; strangers' stamps are left out) and the
        eviction tombstones.  Strikes and earned back-off do not
        survive a process restart."""
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
            # restored ref: the first probe or forward through each
            # decides it, none is trusted blindly.
            ref: min(now - age, now - CONFIRM_INTERVAL_S)
            for ref, age in confirmed
        }
        self.evicted_at = {ref: now - age for ref, age in evicted}


def repair_routes(
    network: PGridNetwork,
    *,
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
    Returns the number of reference replacements/additions made.
    """
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
