"""Discrete-event simulation core: the kernel fast-path contract.

A minimal, fast event loop.  Time is a float in *seconds* of simulated
wall-clock.  This docstring is the **fast-path contract** -- the
invariants every handler, transport and scenario runner must preserve
so that report digests stay byte-identical across kernel changes.

Event layout
------------
The heap holds ``(time, seq, callback)`` tuples and nothing else: one
tuple per scheduled event, no handle object.  ``seq`` is a single
global counter assigned at schedule time, so

* heap comparisons are pure C tuple comparisons that never reach the
  callback (``seq`` is unique -- no tie can fall through to it);
* ties at equal ``time`` break by schedule order, deterministically.

Execution order is therefore exactly global ``(time, seq)`` order.

There is no cancel: the lazy timers below made it unreachable (no
caller since PR 9), and a callback that finds its work done and
returns is the cancellation idiom.

The clock and the callbacks
---------------------------
``Simulator.now`` is a plain attribute (handlers read it tens of
thousands of times a run) that only the event loop writes.  Callbacks
handed to ``schedule`` / ``schedule_at`` stay functions, lambdas or
bound methods, never ``functools.partial``: the layered benchmark's
tracer (``benchmarks/layered/tracing.py``) names an event by its
callback's ``__code__``, which a partial lacks.

Lazy deadline timers
--------------------
Timeout/retry patterns (query, write, range attempts in
:mod:`repro.simnet.node`) must **not** schedule one heap entry per
attempt and abandon the stale ones: that grows the heap with
placeholders that live a full timeout window.  Instead they keep one
:class:`DeadlineTimer` per pending operation:

* every attempt *re-arms* the same timer with its new absolute
  deadline (``arm`` stores the deadline; at most one heap entry is
  ever outstanding per timer);
* when the underlying event fires early -- the deadline has since
  moved -- the timer silently reschedules itself at the current
  deadline (via :meth:`Simulator.schedule_at`, which places events at
  the **exact** absolute float, so the eventual firing time is
  bit-identical to scheduling at attempt time);
* a disarmed timer (operation completed) fires into a no-op.

Timers draw no randomness, so arming/rescheduling them never perturbs
any RNG stream.

What keeps digests stable
-------------------------
Handlers may be added, removed or reordered *in source*, but a change
is digest-neutral only if it preserves, for every event that survives
it:

1. **relative schedule order** -- ``seq`` is monotonic in schedule
   order; removing events (e.g. replacing per-attempt timers with one
   lazy timer) keeps the relative order of all remaining events, while
   *reordering* two ``schedule`` calls can swap same-time execution;
2. **exact event times** -- times must be computed by the same float
   expressions (never algebraically rearranged); absolute deadlines go
   through :meth:`Simulator.schedule_at` verbatim;
3. **RNG draw order** -- every stream must see the same draws in the
   same sequence; draws may not move across an event boundary or
   behind a data-dependent branch that can flip.

``tests/data/regen_message_digests.py --check`` verifies all three
empirically against the committed digests and golden traces.
"""

from __future__ import annotations

import heapq
from math import isnan
from typing import Callable, List, Optional, Tuple

from ..exceptions import SimulationError

__all__ = ["Simulator", "DeadlineTimer"]


#: Heap entry: ``(time, seq, callback)``.
_Entry = Tuple[float, int, Callable[[], None]]


class Simulator:
    """The simulated clock and event queue.

    Typical use::

        sim = Simulator()
        sim.schedule(5.0, lambda: print("five seconds in"))
        sim.run_until(60.0)
    """

    def __init__(self):
        self._queue: List[_Entry] = []
        self._seq = 0
        #: Current simulated time in seconds (only the event loop writes it).
        self.now = 0.0
        self._processed = 0
        self._pending_peak = 0

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Events still queued; every one of them will run."""
        return len(self._queue)

    @property
    def pending_peak(self) -> int:
        """High-water mark of :attr:`pending` over the run.

        The scale benchmarks assert this stays proportional to the
        population instead of guessing at heap health from the outside.
        """
        return self._pending_peak

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Negative and NaN delays are rejected -- the simulator never
        travels back in time, and a NaN time compares false with every
        other: it would stay at the top of the heap and block every
        event behind it.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        heapq.heappush(queue, (self.now + delay, seq, callback))
        if len(queue) > self._pending_peak:
            self._pending_peak = len(queue)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at an **exact** absolute simulated time.

        The event's time is ``time`` itself, not ``now + (time - now)``
        -- the distinction matters to :class:`DeadlineTimer`, whose
        rescheduled firings must land on the bit-identical float the
        deadline was computed as.  A time before ``now``, or NaN, is
        rejected (see :meth:`schedule`).
        """
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule into the past (t={time} < now={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        heapq.heappush(queue, (time, seq, callback))
        if len(queue) > self._pending_peak:
            self._pending_peak = len(queue)

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        if not self._queue:
            return False
        time, _seq, callback = heapq.heappop(self._queue)
        self.now = time
        callback()
        self._processed += 1
        return True

    def run_until(self, end_time: float, *, max_events: Optional[int] = None) -> None:
        """Run events in order until the clock passes ``end_time``.

        ``max_events`` guards against runaway event storms in tests: it
        raises when an event due by ``end_time`` is still queued after
        that many have run.  A NaN ``end_time`` is rejected: no event
        is due by it, so the call would return having run nothing.
        """
        if isnan(end_time):
            raise SimulationError("cannot run until a NaN time")
        budget = max_events if max_events is not None else float("inf")
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] <= end_time:
            if budget <= 0:
                raise SimulationError(
                    f"event budget exhausted at t={self.now:.1f}s "
                    f"({self._processed} events processed)"
                )
            time, _seq, callback = pop(queue)
            self.now = time
            callback()
            self._processed += 1
            budget -= 1
        self.now = max(self.now, end_time)

    def run_all(self, *, max_events: int = 10_000_000) -> None:
        """Drain the queue completely (bounded by ``max_events``)."""
        budget = max_events
        while self._queue:
            if budget <= 0:
                raise SimulationError("event budget exhausted in run_all")
            self.step()
            budget -= 1


class DeadlineTimer:
    """One lazy, re-armable deadline (see the module docstring).

    Replaces the schedule-per-attempt/abandon timeout idiom: the owner
    keeps one timer per pending operation, re-arms it with each
    attempt's absolute deadline, and disarms it on completion.  At most
    one heap entry is outstanding per timer.

    The callback runs only when the *current* deadline is reached; an
    event that fires after the deadline moved reschedules itself at the
    exact stored float (digest-stable, see :meth:`Simulator.schedule_at`)
    and a disarmed timer's event fires into a no-op.
    """

    __slots__ = ("_sim", "_callback", "_deadline", "_event_at")

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        self._deadline: Optional[float] = None
        #: Time of the outstanding heap event, ``None`` when there is none.
        self._event_at: Optional[float] = None

    @property
    def armed(self) -> bool:
        """True while a deadline is set (the callback will eventually run)."""
        return self._deadline is not None

    @property
    def deadline(self) -> Optional[float]:
        """The current absolute deadline, or ``None`` when disarmed."""
        return self._deadline

    def arm(self, deadline: float) -> None:
        """Set (or move) the absolute deadline.

        Scheduling happens at most once per outstanding event: moving
        the deadline only stores the new float -- the in-flight event
        reschedules itself when it fires early.  That event can chase a
        later deadline but not an earlier one, so a deadline before the
        outstanding event is refused (a retry's deadline is always later
        than the attempt it supersedes); once the event has fired any
        deadline may be armed.
        """
        event_at = self._event_at
        if event_at is None:
            self._sim.schedule_at(deadline, self._fire)
            self._event_at = deadline
        elif not deadline >= event_at:
            raise SimulationError(
                f"deadline {deadline} is before the timer's outstanding "
                f"event at t={event_at}: it would fire late"
            )
        self._deadline = deadline

    def disarm(self) -> None:
        """Void the timer: the outstanding event (if any) will no-op."""
        self._deadline = None

    def _fire(self) -> None:
        self._event_at = None
        deadline = self._deadline
        if deadline is None:
            return  # disarmed: the operation completed
        if deadline > self._sim.now:
            # Superseded: the deadline moved while this event was in
            # flight.  Chase it at the exact stored float.
            self._event_at = deadline
            self._sim.schedule_at(deadline, self._fire)
            return
        self._deadline = None
        self._callback()
