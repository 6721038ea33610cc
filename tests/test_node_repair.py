"""Route repair is the node's own (``PGridNode``, "repair").

One mechanism serves every driver, from the node's evidence and clock:

* an eviction that leaves a level of the node's path empty starts one
  exchange at once -- with one of its own replicas, else a reference at
  its deepest populated level -- and the node's repair step repeats it
  once per interval while the level stays empty;
* a strike or a restart sweeps (``refresh_routes``) one interval later,
  with one repair step pending per node at most;
* the scenario runner hands each phase's ``maintenance_interval_s`` to
  its nodes (``None``: no node repair), and a node no runner configures
  repairs every :data:`~repro.pgrid.liveness.REPAIR_INTERVAL_S` (120 s);
* the runner keeps only sampled anti-entropy, whose initiators pick
  partners by the node's own rule, and no node event reads the runner's
  ``nodes`` table.
"""

from repro.pgrid.bits import Path
from repro.pgrid.liveness import REPAIR_INTERVAL_S
from repro.pgrid.keyspace import float_to_key
from repro.scenarios import (
    ChurnSpec,
    MessageScenarioRunner,
    Phase,
    QueryMix,
    ScenarioSpec,
    library,
)
from repro.simnet import protocol as P
from repro.simnet.engine import Simulator
from repro.simnet.node import NodeConfig, PGridNode
from repro.simnet.transport import ConstantLatency, Network

INTERVAL = 50.0


def wire(paths):
    """One node per path string, :data:`INTERVAL` between repair steps;
    replicas (equal paths) and references are wired by the test."""
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01), loss_rate=0.0, rng=1)
    nodes = []
    for node_id, path in enumerate(paths):
        node = PGridNode(node_id, sim, net, config=NodeConfig(), rng=node_id + 1)
        node.path = Path.from_string(path)
        node.keys = {float_to_key(0.25 if path.startswith("0") else 0.75)}
        node.joined = True
        node.liveness.repair_interval = INTERVAL
        nodes.append(node)
    return sim, net, nodes


def exchanges_from(net, src):
    """``(sim time, destination)`` of each exchange request ``src``
    sends from now on."""
    times = []
    send = net.send

    def spy(s, dst, kind, payload, **kwargs):
        if s == src and kind == P.EXCHANGE_REQ:
            times.append((round(net.sim.now, 6), dst))
        return send(s, dst, kind, payload, **kwargs)

    net.send = spy
    return times


def two_leaves():
    """Nodes 0 and 1 replicate leaf "0"; 2 and 3 hold leaf "1".  Node 0's
    one reference is 2, node 1's is 3."""
    sim, net, nodes = wire(["0", "0", "1", "1"])
    nodes[0].replicas, nodes[1].replicas = {1}, {0}
    nodes[2].replicas, nodes[3].replicas = {3}, {2}
    nodes[0].add_route(0, 2)
    nodes[1].add_route(0, 3)
    nodes[2].add_route(0, 0)
    nodes[3].add_route(0, 1)
    return sim, net, nodes


class TestAnEmptiedLevel:
    def test_refills_at_once_then_each_interval_until_refilled(self):
        sim, net, nodes = two_leaves()
        node = nodes[0]
        nodes[2].online = False  # node 0's only reference at level 0
        nodes[1].online = False  # and its replica, for two intervals
        sim.run_until(10.0)
        sent = exchanges_from(net, 0)
        assert node.send(2, P.PING, {"want": False}) == "refused"
        # The refused connect struck 2 and its probe evicted it: level 0
        # is empty, so an exchange with the own replica leaves at once.
        assert node.routing == {0: []} and node.liveness.evictions == 1
        assert sent == [(10.0, 1)]
        sim.run_until(10.0 + 1.5 * INTERVAL)
        assert sent == [(10.0, 1), (10.0 + INTERVAL, 1)]  # still empty
        nodes[1].set_online(True)
        sim.run_until(10.0 + 2.5 * INTERVAL)
        # The third exchange reaches the replica, whose gossip refills
        # the level with 3; no exchange follows.
        assert sent == [(10.0, 1), (10.0 + INTERVAL, 1), (10.0 + 2 * INTERVAL, 1)]
        assert node.routing == {0: [3]}
        sim.run_until(10.0 + 10 * INTERVAL)
        assert len(sent) == 3 and not node.liveness.step_pending
        assert node.liveness.refills == 3

    def test_without_a_replica_the_exchange_goes_to_the_deepest_level(self):
        sim, net, nodes = wire(["00", "01", "10", "11"])
        node = nodes[0]
        node.add_route(0, 2)
        node.add_route(1, 1)
        nodes[2].add_route(0, 0)
        nodes[1].add_route(0, 3)  # what 1 gossips for our level 0
        nodes[2].online = False
        sent = exchanges_from(net, 0)
        node.send(2, P.PING, {"want": False})
        assert node.routing == {0: [], 1: [1]} and sent == [(0.0, 1)]
        sim.run_until(1.0)
        assert node.routing[0] == [3]

    def test_a_constructing_node_leaves_it_to_the_fig2_timer(self):
        sim, net, nodes = two_leaves()
        nodes[0].constructing = True
        nodes[2].online = False
        sent = exchanges_from(net, 0)
        nodes[0].send(2, P.PING, {"want": False})
        sim.run_until(0.5 * INTERVAL)
        assert nodes[0].routing == {0: []} and sent == []
        # Construction stops: the step the strike scheduled refills.
        nodes[0].constructing = False
        sim.run_until(1.5 * INTERVAL)
        assert sent == [(INTERVAL, 1)]

    def test_a_join_onto_an_empty_level_refills_at_once(self):
        # A sponsored placement (a join, or a cold restart's rejoin)
        # copies the sponsor's table, empty level and all.
        sim, net, nodes = two_leaves()
        nodes[1].liveness.levels[0] = []
        newcomer = PGridNode(4, sim, net, rng=5)
        newcomer.liveness.repair_interval = INTERVAL
        sent = exchanges_from(net, 4)
        MessageScenarioRunner._place_at(newcomer, nodes[1], [])
        assert newcomer.routing == {0: []} and newcomer.replicas == {0, 1}
        assert len(sent) == 1 and sent[0][1] in {0, 1}


class TestStrikesSweepOnce:
    def test_a_burst_of_strikes_schedules_one_sweep_an_interval_later(self):
        sim, net, nodes = wire(["00", "01", "10", "11"])
        node = nodes[0]
        for level, ref in ((0, 2), (0, 3), (1, 1)):
            node.add_route(level, ref)
        sweeps = []
        refresh = node.refresh_routes
        node.refresh_routes = lambda: sweeps.append(sim.now) or refresh()
        sim.run_until(100.0)
        # Three strikes within one interval: the first schedules the
        # step, the rest wait for it (every probe is answered: all online).
        for at, ref in ((100.0, 3), (110.0, 2), (130.0, 1)):
            sim.run_until(at)
            node._suspect_ref(ref)
            assert node.liveness.step_pending
        sim.run_until(100.0 + 10 * INTERVAL)
        assert sweeps == [100.0 + INTERVAL]
        assert not node.liveness.step_pending

    def test_a_node_no_runner_configures_repairs_every_120_s(self):
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01), loss_rate=0.0, rng=1)
        node, peer = (PGridNode(i, sim, net, rng=i + 1) for i in range(2))
        node.path, peer.path = Path.from_string("0"), Path.from_string("1")
        node.add_route(0, 1)
        assert node.liveness.repair_interval == REPAIR_INTERVAL_S == 120.0
        sweeps = []
        refresh = node.refresh_routes
        node.refresh_routes = lambda: sweeps.append(sim.now) or refresh()
        node._suspect_ref(1)
        sim.run_until(1000.0)
        assert sweeps == [120.0]


def churny(interval):
    """A churning, geo-box-serving-shaped spec: no phase sets an interval
    unless ``interval`` is given."""
    mix = QueryMix(point_weight=0.5, range_weight=0.5, range_span=0.02)
    return ScenarioSpec(
        name="no-maintenance", n_peers=64, seed=7, report_bin_s=30.0, phases=(
            Phase(name="warm", duration_s=120.0, query_rate=4.0, mix=mix,
                  maintenance_interval_s=interval),
            Phase(name="serve", duration_s=240.0, query_rate=8.0, mix=mix,
                  maintenance_interval_s=interval,
                  churn=ChurnSpec(min_offline_s=10.0, max_offline_s=30.0,
                                  min_online_s=20.0, max_online_s=60.0)),
        ),
    )


def run_counting_steps(spec, monkeypatch):
    steps = []
    step = PGridNode._repair_step
    monkeypatch.setattr(
        PGridNode, "_repair_step", lambda self: (steps.append(self), step(self))
    )
    runner = MessageScenarioRunner(spec)
    report = runner.run()
    return runner, report, steps


class TestPhaseInterval:
    def test_a_phase_without_an_interval_schedules_no_repair(self, monkeypatch):
        runner, report, steps = run_counting_steps(churny(None), monkeypatch)
        assert report.message_level["repair"]["suspects"] > 0  # evidence came
        assert steps == [] and report.totals["repairs"] == 0
        for node in runner.nodes.values():
            assert node.liveness.repair_interval is None
            assert not node.liveness.step_pending and node.liveness.refills == 0

    def test_the_same_phases_with_an_interval_repair(self, monkeypatch):
        runner, report, steps = run_counting_steps(churny(30.0), monkeypatch)
        assert steps and report.totals["repairs"] > 0
        # The drain after the last phase is no phase: repair is off.
        assert {node.liveness.repair_interval for node in runner.nodes.values()} == {None}

    def test_each_phase_hands_its_interval_to_every_node(self):
        spec = ScenarioSpec(
            name="three", n_peers=32, seed=3, phases=(
                Phase(name="a", duration_s=60.0, maintenance_interval_s=20.0),
                Phase(name="b", duration_s=60.0),
                Phase(name="c", duration_s=60.0, maintenance_interval_s=45.0,
                      join_peers=4),
            ),
        )
        runner = MessageScenarioRunner(spec)
        handed, spawned = {}, []
        hand, spawn = runner._hand_interval, runner._spawn_node

        def hand_spy(interval):
            hand(interval)
            handed[runner.simulator.now] = {
                node.liveness.repair_interval for node in runner.nodes.values()
            }

        def spawn_spy(pid):
            node = spawn(pid)
            spawned.append((runner.simulator.now, node.liveness.repair_interval))
            return node

        runner._hand_interval, runner._spawn_node = hand_spy, spawn_spy
        runner.run()
        assert handed == {60.0: {None}, 120.0: {45.0}, 180.0: {None}}
        # The initial population at set-up, phase c's joiners with its own.
        assert spawned == [(0.0, 20.0)] * 32 + [(120.0, 45.0)] * 4


class TestConstructPhase:
    def test_churn_that_empties_a_level_is_repaired_after_query_start(self, monkeypatch):
        spec = library.paper_sec52_planetlab(40, seed=5, duration_scale=110 / 525)
        refills = []
        refill = PGridNode.refill_routes

        def spy(self):
            before = self.liveness.refills
            refill(self)
            if self.liveness.refills > before:
                refills.append(self.sim.now)

        monkeypatch.setattr(PGridNode, "refill_routes", spy)
        report = MessageScenarioRunner(spec).run()
        # No runner code asked for them: every one came after
        # construction stopped, from the nodes' own evidence.
        assert refills and min(refills) > spec.boundaries()[0][1]
        assert report.phases[2]["success_rate"] >= 0.95


class Tripwire(dict):
    """The runner's ``nodes`` table, refusing every read while ``armed``
    (set for the duration of a node repair event)."""

    armed = False


def _refuse_while_armed(name):
    read = getattr(dict, name)

    def guarded(self, *args):
        if self.armed:
            raise AssertionError("a node event read the runner's nodes table")
        return read(self, *args)

    return guarded


for _name in ("__getitem__", "get", "__contains__", "__iter__", "__len__",
              "items", "values", "keys"):
    setattr(Tripwire, _name, _refuse_while_armed(_name))


def test_node_timers_never_read_the_runners_nodes_table(monkeypatch):
    table = Tripwire()
    events = []

    def guarded(method):
        def wrapper(self, *args):
            outer, table.armed = table.armed, True
            events.append(method.__name__)
            try:
                return method(self, *args)
            finally:
                table.armed = outer

        return wrapper

    for name in ("_repair_step", "refill_routes", "exchange_partner", "_suspect_ref"):
        monkeypatch.setattr(PGridNode, name, guarded(getattr(PGridNode, name)))
    runner = MessageScenarioRunner(churny(30.0))
    runner.nodes = table
    report = runner.run()
    assert {"_repair_step", "refill_routes", "exchange_partner", "_suspect_ref"} <= set(events)
    assert report.totals["repairs"] > 0
