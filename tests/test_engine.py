"""Tests for the discrete-event simulation core."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SimulationError
from repro.simnet.engine import DeadlineTimer, Simulator

NAN = float("nan")
INF = float("inf")


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run_all()
        assert log == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(1.0, lambda: log.append(2))
        sim.run_all()
        assert log == [1, 2]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.5, lambda: seen.append(sim.now))
        sim.run_all()
        assert seen == [5.5]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(2.0, lambda: log.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run_all()
        assert log == [("outer", 1.0), ("inner", 3.0)]

    def test_rejects_negative_delay(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run_all()
        assert seen == [4.0]


class TestNaNTimes:
    """A NaN time compares false both ways: on the heap it would block
    every event behind it while the clock still advanced."""

    def test_nan_delay_is_refused_and_the_rest_still_runs(self):
        # Regression: the NaN event sat at the top of the heap, none of
        # the three ran, and run_until still moved the clock to 10.0.
        sim = Simulator()
        log = []
        with pytest.raises(SimulationError, match="delay=nan"):
            sim.schedule(NAN, lambda: log.append("f"))
        sim.schedule(1.0, lambda: log.append("g"))
        sim.schedule(2.0, lambda: log.append("h"))
        sim.run_until(10.0)
        assert log == ["g", "h"]
        assert sim.pending == 0 and sim.now == 10.0

    def test_nan_absolute_time_is_refused(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="t=nan"):
            sim.schedule_at(NAN, lambda: None)
        assert sim.pending == 0

    @pytest.mark.parametrize("outstanding", [False, True])
    def test_nan_deadline_is_refused(self, outstanding):
        sim = Simulator()
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        if outstanding:
            timer.arm(5.0)
        with pytest.raises(SimulationError):
            timer.arm(NAN)
        assert timer.deadline == (5.0 if outstanding else None)
        sim.run_all()
        assert fired == ([5.0] if outstanding else [])

    def test_run_until_a_nan_time_is_refused(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("g"))
        with pytest.raises(SimulationError, match="NaN"):
            sim.run_until(NAN)
        assert log == [] and sim.now == 0.0 and sim.pending == 1
        sim.run_until(10.0)
        assert log == ["g"]

    @pytest.mark.parametrize("bad", [-1e-300, -INF])
    def test_negative_times_stay_refused(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: None)

    def test_infinite_times_are_still_accepted(self):
        # Infinity orders like any time: it runs last, and only in run_all.
        sim = Simulator()
        log = []
        sim.schedule(INF, lambda: log.append("late"))
        sim.schedule_at(INF, lambda: log.append("later"))
        sim.run_until(1e300)
        assert log == []
        sim.run_all()
        assert log == ["late", "later"]


class TestRunUntil:
    def test_stops_at_boundary(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("in"))
        sim.schedule(10.0, lambda: log.append("out"))
        sim.run_until(5.0)
        assert log == ["in"]
        assert sim.now == 5.0
        sim.run_until(20.0)
        assert log == ["in", "out"]

    def test_event_budget_guard(self):
        sim = Simulator()

        def storm():
            sim.schedule(0.001, storm)

        sim.schedule(0.0, storm)
        with pytest.raises(SimulationError):
            sim.run_until(1e9, max_events=1000)

    @pytest.mark.parametrize("run", ["run_until", "run_all"])
    def test_budget_of_exactly_the_events_run_is_enough(self, run):
        # Regression: finishing on exactly ``max_events`` with nothing
        # left to run used to raise (and run_until then never advanced
        # the clock to ``end_time``).
        sim = Simulator()
        for i in range(5):
            sim.schedule(1.0 + i, lambda: None)
        if run == "run_until":
            sim.run_until(10.0, max_events=5)
            assert sim.now == 10.0
        else:
            sim.run_all(max_events=5)
        assert sim.events_processed == 5 and sim.pending == 0

    @pytest.mark.parametrize("run", ["run_until", "run_all"])
    def test_budget_one_short_raises_with_the_event_still_queued(self, run):
        sim = Simulator()
        for i in range(6):
            sim.schedule(1.0 + i, lambda: None)
        with pytest.raises(SimulationError, match="event budget exhausted"):
            if run == "run_until":
                sim.run_until(10.0, max_events=5)
            else:
                sim.run_all(max_events=5)
        assert sim.events_processed == 5 and sim.pending == 1

    def test_budget_ignores_events_beyond_the_horizon(self):
        # The sixth event is not due by end_time: the budget is not short.
        sim = Simulator()
        for i in range(5):
            sim.schedule(1.0 + i, lambda: None)
        sim.schedule(20.0, lambda: None)
        sim.run_until(10.0, max_events=5)
        assert sim.now == 10.0 and sim.pending == 1

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run_all()
        assert sim.events_processed == 5


class TestObservableHeapStats:
    """The scale bench's heap-health audit channel."""

    def test_pending_peak_tracks_high_water_mark(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(1.0 + i, lambda: None)
        assert sim.pending_peak == 5
        sim.run_all()
        assert sim.pending == 0
        assert sim.pending_peak == 5  # peak survives the drain

    def test_counters_start_at_zero(self):
        sim = Simulator()
        assert sim.pending == 0
        assert sim.pending_peak == 0
        assert sim.events_processed == 0


class TestDeadlineTimer:
    """Lazy-timer semantics: the schedule-then-supersede-heavy timeout
    idiom must neither fire stale deadlines nor touch the cancel path."""

    def test_fires_at_the_armed_deadline(self):
        sim = Simulator()
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        timer.arm(5.0)
        sim.run_all()
        assert fired == [5.0]
        assert not timer.armed

    def test_superseded_deadline_is_a_no_op_then_rearms(self):
        # The retry pattern: each attempt moves the deadline forward.
        # The single in-flight event fires early, sees the moved
        # deadline, and chases it -- the callback runs once, at the
        # *latest* deadline only.
        sim = Simulator()
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        timer.arm(5.0)
        timer.arm(9.0)  # supersedes before the 5.0 event fires
        sim.run_until(6.0)
        assert fired == []  # the stale fire at 5.0 no-opped
        sim.run_all()
        assert fired == [9.0]

    def test_disarmed_timer_never_fires(self):
        sim = Simulator()
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        timer.arm(5.0)
        timer.disarm()
        sim.run_all()
        assert fired == []
        assert timer.deadline is None

    def test_callback_never_runs_twice_per_arm(self):
        # Supersede storm: many re-arms, one outstanding event, exactly
        # one callback -- the waiter can never be resolved twice.
        sim = Simulator()
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        for i in range(50):
            timer.arm(1.0 + i * 0.5)
        sim.run_all()
        assert fired == [1.0 + 49 * 0.5]

    def test_rearm_from_the_callback_schedules_the_next_cycle(self):
        # Completion handlers re-arm the same timer for the next
        # attempt; each cycle fires exactly once.
        sim = Simulator()
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.arm(sim.now + 2.0)

        timer._callback = chain
        timer.arm(1.0)
        sim.run_all()
        assert fired == [1.0, 3.0, 5.0]

    def test_lazy_timers_never_touch_the_cancel_path(self):
        # The point of the lazy scheme: a supersede-heavy workload keeps
        # at most one heap entry per timer, so there is nothing to
        # cancel -- and every one of those entries runs, exactly once.
        sim = Simulator()
        timers = [DeadlineTimer(sim, lambda: None) for _ in range(8)]
        for round_ in range(100):
            for timer in timers:
                timer.arm(1.0 + round_ * 0.1)
            assert sim.pending <= len(timers)
        assert sim.pending_peak == len(timers)
        sim.run_all()
        # One stale fire at the first deadline, one at the last.
        assert sim.events_processed == 2 * len(timers)

    def test_deadline_before_the_outstanding_event_is_refused(self):
        # Regression: the in-flight event can chase a later deadline but
        # not an earlier one -- this used to fire silently at 9.0.
        sim = Simulator()
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        timer.arm(9.0)
        with pytest.raises(SimulationError, match="fire late"):
            timer.arm(5.0)
        assert timer.deadline == 9.0  # the refused move changed nothing
        timer.arm(12.0)
        timer.arm(10.0)  # back, but not before the event at 9.0: legal
        sim.run_all()
        assert fired == [10.0]

    def test_any_deadline_may_be_armed_once_the_event_has_fired(self):
        sim = Simulator()
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        timer.arm(9.0)
        timer.disarm()
        with pytest.raises(SimulationError):
            timer.arm(5.0)  # disarmed, but the event at 9.0 is still queued
        sim.run_until(9.5)  # ... and now it has fired into its no-op
        timer.arm(9.75)  # earlier than many a past deadline: legal again
        sim.run_all()
        assert fired == [9.75]


class TestKernelModel:
    """The heap against a sorted-list reference: random programs of
    ``schedule`` / ``schedule_at`` calls, some issued from inside
    callbacks, some at equal times, run in ascending ``(time, seq)``."""

    #: One call: (use schedule_at?, delay in quarter seconds, children).
    calls = st.recursive(
        st.tuples(st.booleans(), st.integers(0, 6), st.just(())),
        lambda children: st.tuples(
            st.booleans(), st.integers(0, 6), st.lists(children, max_size=3).map(tuple)
        ),
        max_leaves=25,
    )

    @given(program=st.lists(calls, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_programs_run_in_time_then_schedule_order(self, program):
        # Delays are quarter seconds, exact in binary, so ``now + delay``
        # and the absolute time are the same float on both sides.
        sim = Simulator()
        ran = []
        issued = iter(range(10**6))  # issue order == the kernel's seq

        def issue(call):
            absolute, quarters, children = call
            seq = next(issued)

            def callback():
                ran.append((sim.now, seq))
                for child in children:
                    issue(child)

            if absolute:
                sim.schedule_at(sim.now + quarters * 0.25, callback)
            else:
                sim.schedule(quarters * 0.25, callback)

        for call in program:
            issue(call)
        sim.run_all()

        # The reference: a list re-sorted before every pop.
        queue, expected = [], []
        for call in program:
            queue.append((call[1] * 0.25, len(queue), call[2]))
        pushed = peak = len(queue)
        while queue:
            queue.sort()
            time, seq, children = queue.pop(0)
            expected.append((time, seq))
            for child in children:
                queue.append((time + child[1] * 0.25, pushed, child[2]))
                pushed += 1
            peak = max(peak, len(queue))
        assert ran == expected == sorted(expected)
        assert sim.events_processed == len(expected) and sim.pending == 0
        assert sim.pending_peak == peak
