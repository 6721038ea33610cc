"""Span tracer for the layered benchmark.

Wraps the program's *public* entry points from outside (class and module
attributes are replaced by timing wrappers; nothing under ``src/`` is
edited) and keeps a span stack: every span records its name, start, end
and parent, and a span's **self time** is its duration minus the time its
child spans cover.  Aggregates ``name -> (n, total_s, self_s)`` are kept
for every span; raw records only for the first :data:`RAW_CAP` spans; the
caller writes both out (:meth:`Tracer.snapshot`) when the run ends.

Only the traced pass installs these wrappers; end-to-end metrics are
always measured with tracing off.  A wrapper's own bookkeeping before its
start stamp and after its end stamp would land in the *parent's* self
time and inflate layers with many children (the event loop, the
transport), so the tracer measures that per-span cost once, when it is
created, and charges it to nobody: :meth:`Tracer.overhead_s` reports it
beside the layers' self times.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Callable, Dict, List, Optional

RAW_CAP = 50_000


class Tracer:
    """A span stack and the per-name aggregates it feeds."""

    def __init__(self) -> None:
        # frame = [name, start, child_time, span_id]
        self._stack: List[list] = []
        self.aggregates: Dict[str, List[float]] = {}
        self.records: List[tuple] = []
        self.spans = 0
        self._event_names: Dict[object, str] = {}
        self._patched: List[tuple] = []
        self.leaves = 0
        #: Seconds one child span costs its parent beyond the child's own
        #: duration (wrapper entry/exit and the bookkeeping in ``call``),
        #: for full spans and for leaf spans (``wrap_scheduler``).
        self.span_cost_s = self.leaf_cost_s = 0.0

        class Probe:
            def noop(self):
                return None

            def schedule(self, when, callback):
                return None

        probe = Probe()
        self.wrap(Probe, "noop", "calibrate.child")
        self.wrap_scheduler(Probe, "schedule", "calibrate.child")
        span_cost = self._child_cost(probe.noop)
        leaf_cost = self._child_cost(lambda: probe.schedule(0.0, probe.noop))
        self.span_cost_s, self.leaf_cost_s = span_cost, leaf_cost
        self.uninstall()

    def _child_cost(self, open_child: Callable) -> float:
        """What a parent pays per child beyond the child's duration: the
        self time of a span that only opens empty children.  The least of
        five tries, like the unit timings it corrects."""
        def parent():
            for _ in range(2_000):
                open_child()

        costs = []
        for _ in range(5):
            self.call("calibrate.parent", parent, (), {})
            costs.append(self.aggregates["calibrate.parent"][2] / 2_000)
            self.reset()
        return min(costs)

    def reset(self) -> None:
        """Forget every span recorded so far (the wrappers stay)."""
        self.aggregates = {}
        self.records = []
        self.spans = self.leaves = 0

    # -- the span primitive ------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack
        frame = [name, 0.0, 0.0, self.spans]
        self.spans += 1
        stack.append(frame)
        frame[1] = start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._close(frame, start, end, self.span_cost_s)

    def _close(self, frame: list, start: float, end: float, cost_s: float) -> None:
        """Book a finished span: its aggregate, its parent's child time
        (plus what the span cost the parent) and, early on, a raw record."""
        name, _, child_time, span_id = frame
        duration = end - start
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_time
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[2] += duration + cost_s
            parent = top[3]
        if span_id < RAW_CAP:
            self.records.append((span_id, parent, name, start, end))

    # -- installing wrappers -----------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        *,
        key: Optional[Callable[[tuple], str]] = None,
        also: tuple = (),
    ) -> None:
        """Replace ``owner.attr`` by a span wrapper named ``name``.

        ``key(args)`` makes the span name depend on the call (message
        kind).  ``also`` lists further namespaces that imported the same
        function by name and must see the wrapper too.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = getattr(raw, "__func__", raw)  # classmethod / staticmethod
        call = self.call
        if key is None:
            def wrapper(*args, **kwargs):
                return call(name, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return call(name + key(args), fn, args, kwargs)
        wrapper = functools.wraps(fn)(wrapper)
        patched = type(raw)(wrapper) if isinstance(raw, (classmethod, staticmethod)) else wrapper
        for target in (owner, *also):
            self._patch(target, attr, patched)

    def wrap_returned(self, owner, attr: str, name: str) -> None:
        """``owner.attr`` returns a callback: run that callback in a span."""
        factory = owner.__dict__[attr]
        call = self.call

        def wrapper(*args, **kwargs):
            callback = factory(*args, **kwargs)
            return lambda *a, **k: call(name, callback, a, k)

        self._patch(owner, attr, wrapper)

    def wrap_scheduler(self, owner, attr: str, name: str) -> None:
        """Span the schedule call itself (the heap push) and label the
        scheduled callback, so the work done inside an event is attributed
        to the code that owns the callback instead of to the event loop.

        The schedule call opens no span of its own kind below it, so it
        is recorded as a *leaf*: timed and aggregated in place, without a
        stack frame -- a full span per scheduled event would push the
        tracer's overhead to 2x."""
        schedule = owner.__dict__[attr]
        call = self.call
        label = self._event_label

        def wrapper(sim, when, callback, **kwargs):
            start = perf_counter()
            event_name = label(callback)
            traced = lambda: call(event_name, callback, (), {})  # noqa: E731
            event = schedule(sim, when, traced, **kwargs)
            end = perf_counter()
            self.leaves += 1
            self.spans += 1
            self._close([name, start, 0.0, self.spans - 1], start, end, self.leaf_cost_s)
            return event

        self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every wrapped attribute back (newest first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _event_label(self, callback) -> str:
        fn = getattr(callback, "__func__", callback)
        code = getattr(fn, "__code__", fn)
        label = self._event_names.get(code)
        if label is None:
            module = (getattr(fn, "__module__", None) or "?").rsplit(".", 1)[-1]
            qual = getattr(fn, "__qualname__", repr(fn))
            qual = qual.replace(".<locals>", "").replace(".<lambda>", "")
            label = self._event_names[code] = f"event.{module}.{qual}"
        return label

    # -- reading the result ------------------------------------------------

    def n(self, *names: str) -> int:
        return int(sum(self.aggregates[k][0] for k in names if k in self.aggregates))

    def total_s(self, *names: str) -> float:
        return sum(self.aggregates[k][1] for k in names if k in self.aggregates)

    def self_s(self, *names: str) -> float:
        return sum(self.aggregates[k][2] for k in names if k in self.aggregates)

    def names(self, prefix: str) -> List[str]:
        return [k for k in self.aggregates if k.startswith(prefix)]

    def overhead_s(self) -> float:
        """Calibrated tracer cost charged to no layer (every span but
        the root has a parent that was spared ``span_cost_s``)."""
        full = max(self.spans - self.leaves - 1, 0)
        return full * self.span_cost_s + self.leaves * self.leaf_cost_s

    def self_total_s(self) -> float:
        """Self time over all spans plus the tracer's own: the root
        span's duration, up to calibration error."""
        return sum(agg[2] for agg in self.aggregates.values()) + self.overhead_s()

    def snapshot(self) -> dict:
        """Aggregates and the kept raw spans, JSON-ready.  Shares the
        tracer's own containers (``reset`` replaces them, never clears
        them), so taking one per unit costs nothing."""
        return {
            "spans": self.spans,
            "span_cost_s": self.span_cost_s,
            "leaf_cost_s": self.leaf_cost_s,
            "overhead_s": self.overhead_s(),
            "aggregate_fields": ["n", "total_s", "self_s"],
            "aggregates": self.aggregates,
            "record_fields": ["id", "parent", "name", "start", "end"],
            "records": self.records,
        }


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.core import construction
    from repro.pgrid import replication
    from repro.pgrid.keystore import KeyStore
    from repro.pgrid.mdim import ZOrderCodec
    from repro.pgrid.network import PGridNetwork
    from repro.scenarios import base as scenario_base
    from repro.scenarios.message_runner import MessageScenarioRunner
    from repro.scenarios.report import ScenarioReport
    from repro.simnet.engine import DeadlineTimer, Simulator
    from repro.simnet.node import PGridNode
    from repro.simnet.transport import Network
    from repro.workloads import datasets
    from repro.workloads.queries import QuerySampler

    wrap = tracer.wrap
    # engine
    wrap(Simulator, "run_until", "engine.run_until")
    tracer.wrap_scheduler(Simulator, "schedule", "engine.schedule")
    tracer.wrap_scheduler(Simulator, "schedule_at", "engine.schedule")
    wrap(DeadlineTimer, "arm", "engine.timer_arm")
    # transport
    wrap(Network, "send", "transport.send")
    # node: one span name per received message kind
    wrap(PGridNode, "receive", "node.recv.", key=lambda args: args[1].kind)
    for op in ("query", "range_query", "insert", "delete"):
        wrap(PGridNode, "issue_" + op, "node.issue." + op)
    for attr in ("refresh_routes", "set_online", "initiate_exchange"):
        wrap(PGridNode, attr, "node." + attr)
    # scenario runner hook surface
    wrap(MessageScenarioRunner, "_setup", "scenarios.setup")
    wrap(scenario_base.ScenarioRunnerBase, "_assemble", "scenarios.assemble")
    for attr in ("_run_one_query", "_run_one_write", "_run_maintenance"):
        wrap(MessageScenarioRunner, attr, "scenarios.drive")
    for attr in ("_query_done", "_range_done", "_write_done", "_sample_state"):
        wrap(MessageScenarioRunner, attr, "scenarios.tally")
    tracer.wrap_returned(MessageScenarioRunner, "_churn_toggle", "scenarios.drive")
    wrap(ScenarioReport, "to_json", "scenarios.report_json")
    # workload generators
    wrap(datasets, "workload_keys", "workloads.keys", also=(scenario_base,))
    for attr in ("draw_kind", "draw_point_key", "draw_range", "draw_box"):
        wrap(QuerySampler, attr, "workloads.draw")
    # data plane
    wrap(PGridNetwork, "ideal", "network.ideal")
    wrap(PGridNetwork, "rebuild_routing", "network.rebuild_routing")
    wrap(PGridNetwork, "from_construction", "network.from_construction")
    wrap(ZOrderCodec, "box_ranges", "mdim.box_ranges")
    wrap(KeyStore, "matching_keys", "keystore.matching_keys")
    for attr in ("add", "discard"):
        wrap(KeyStore, attr, "keystore.mutations")
    for attr in ("update", "update_sorted", "reconcile_with"):
        wrap(KeyStore, attr, "keystore.merge")
    # construction and replication (build_overlay looks these up late)
    wrap(construction, "construct_overlay", "construction.construct")
    wrap(replication, "anti_entropy_sweep", "replication.sweep")
    wrap(replication, "reconcile_down", "replication.reconcile_down")
    wrap(replication, "reconcile", "replication.reconcile")
