"""Tests for the message transport layer."""

import statistics

import pytest

from repro.exceptions import SimulationError
from repro.simnet.engine import Simulator
from repro.simnet.stats import StatsCollector
from repro.simnet.transport import (
    HEADER_BYTES,
    KEY_BYTES,
    ConstantLatency,
    LogNormalLatency,
    Network,
    PerLinkLatency,
    UniformLatency,
)


class Recorder:
    """Minimal node: records everything it receives."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.online = True
        self.inbox = []

    def receive(self, message):
        self.inbox.append(message)


def make_net(loss=0.0, latency=None, stats=None):
    sim = Simulator()
    net = Network(sim, latency=latency or ConstantLatency(0.1), loss_rate=loss,
                  rng=1, stats=stats)
    a, b = Recorder(0), Recorder(1)
    net.register(a)
    net.register(b)
    return sim, net, a, b


class TestDelivery:
    def test_basic_delivery_with_latency(self):
        sim, net, a, b = make_net()
        net.send(0, 1, "ping", {"x": 1})
        assert b.inbox == []
        sim.run_all()
        assert len(b.inbox) == 1
        assert b.inbox[0].payload == {"x": 1}
        assert sim.now == pytest.approx(0.1)

    def test_offline_receiver_drops(self):
        sim, net, a, b = make_net()
        b.online = False
        net.send(0, 1, "ping", {})
        sim.run_all()
        assert b.inbox == []
        assert net.messages_dropped == 1

    def test_offline_sender_drops(self):
        sim, net, a, b = make_net()
        a.online = False
        net.send(0, 1, "ping", {})
        sim.run_all()
        assert b.inbox == []
        assert net.messages_dropped == 1

    def test_loss_rate(self):
        sim, net, a, b = make_net(loss=0.5)
        for _ in range(400):
            net.send(0, 1, "ping", {})
        sim.run_all()
        assert 120 < len(b.inbox) < 280  # ~200 expected

    def test_unknown_destination_dropped(self):
        sim, net, a, b = make_net()
        net.send(0, 99, "ping", {})
        sim.run_all()
        assert net.messages_dropped == 1

    def test_duplicate_registration_rejected(self):
        sim, net, a, b = make_net()
        with pytest.raises(SimulationError):
            net.register(Recorder(0))

    def test_bad_loss_rate(self):
        with pytest.raises(SimulationError):
            Network(Simulator(), loss_rate=1.5)


class TestByteAccounting:
    def test_message_size(self):
        stats = StatsCollector()
        sim, net, a, b = make_net(stats=stats)
        net.send(0, 1, "store", {}, n_keys=10, category="maintenance")
        sim.run_all()
        recorded = stats.bytes_by_category["maintenance"][0]
        assert recorded == HEADER_BYTES + 10 * KEY_BYTES

    def test_categories_separated(self):
        stats = StatsCollector()
        sim, net, a, b = make_net(stats=stats)
        net.send(0, 1, "q", {}, category="queries")
        net.send(0, 1, "m", {}, category="maintenance")
        sim.run_all()
        assert stats.bytes_by_category["queries"][0] == HEADER_BYTES
        assert stats.bytes_by_category["maintenance"][0] == HEADER_BYTES

    def test_online_count(self):
        sim, net, a, b = make_net()
        assert net.online_count() == 2
        b.online = False
        assert net.online_count() == 1


class TestLatencyModels:
    def test_constant(self):
        import random

        assert ConstantLatency(0.25).sample(random.Random(1)) == 0.25

    def test_uniform_within_bounds(self):
        import random

        rng = random.Random(2)
        model = UniformLatency(0.1, 0.2)
        for _ in range(100):
            assert 0.1 <= model.sample(rng) <= 0.2

    def test_lognormal_heavy_tail_capped(self):
        import random

        rng = random.Random(3)
        model = LogNormalLatency(median=0.1, sigma=1.0, cap=2.0)
        xs = [model.sample(rng) for _ in range(2000)]
        assert all(x <= 2.0 for x in xs)
        assert statistics.median(xs) == pytest.approx(0.1, rel=0.3)
        assert max(xs) > 5 * statistics.median(xs)  # heavy tail


    def test_lognormal_link_sample_is_the_plain_sample(self):
        # ``sample_link`` answers in one call: the same floats from the
        # same draws as ``sample``, cap included.
        import random

        model = LogNormalLatency(median=0.1, sigma=1.0, cap=0.5)
        a, b = random.Random(4), random.Random(4)
        xs = [model.sample_link(1, 2, a) for _ in range(200)]
        assert xs == [model.sample(b) for _ in range(200)]
        assert max(xs) == 0.5 and a.random() == b.random()


NAN = float("nan")


class TestLatencyValidation:
    """A model that could draw a negative or NaN delay is refused when
    it is built, with an error naming the class and the field."""

    @pytest.mark.parametrize("build, where", [
        (lambda: ConstantLatency(-0.1), "ConstantLatency.delay"),
        (lambda: ConstantLatency(NAN), "ConstantLatency.delay"),
        (lambda: UniformLatency(-1, 0.1), "UniformLatency.lo"),
        (lambda: UniformLatency(NAN, 0.1), "UniformLatency.lo"),
        (lambda: UniformLatency(0.3, 0.1), "UniformLatency.hi"),
        (lambda: UniformLatency(0.1, NAN), "UniformLatency.hi"),
        (lambda: LogNormalLatency(median=-0.1), "LogNormalLatency.median"),
        (lambda: LogNormalLatency(median=NAN), "LogNormalLatency.median"),
        (lambda: LogNormalLatency(sigma=NAN), "LogNormalLatency.sigma"),
        (lambda: LogNormalLatency(sigma=float("inf")), "LogNormalLatency.sigma"),
        (lambda: LogNormalLatency(cap=-1.0), "LogNormalLatency.cap"),
        (lambda: LogNormalLatency(cap=NAN), "LogNormalLatency.cap"),
        (lambda: PerLinkLatency(lo=-0.1), "PerLinkLatency.lo"),
        (lambda: PerLinkLatency(lo=0.3, hi=0.1), "PerLinkLatency.hi"),
        (lambda: PerLinkLatency(hi=NAN), "PerLinkLatency.hi"),
        (lambda: PerLinkLatency(overrides={(1, 2): -0.5}), "PerLinkLatency.overrides"),
        (lambda: PerLinkLatency(overrides={(1, 2): NAN}), "PerLinkLatency.overrides"),
    ])
    def test_bad_field_is_refused_at_construction(self, build, where):
        with pytest.raises(SimulationError, match=where):
            build()

    def test_boundary_values_are_accepted(self):
        import random

        rng = random.Random(5)
        assert ConstantLatency(0.0).sample(rng) == 0.0
        assert UniformLatency(0.0, 0.0).sample(rng) == 0.0
        assert LogNormalLatency(median=0.0, cap=0.0).sample(rng) == 0.0
        assert PerLinkLatency(lo=0.2, hi=0.2, overrides={(0, 1): 0.0}).link_delay(1, 0) == 0.0

    def test_a_run_fails_before_building_the_overlay(self):
        from repro.scenarios import SCENARIOS
        from repro.scenarios.message_runner import (
            MessageNetConfig,
            MessageScenarioRunner,
        )

        spec = SCENARIOS["uniform-baseline"](32, duration_scale=0.05)
        with pytest.raises(SimulationError, match="ConstantLatency.delay"):
            MessageScenarioRunner(
                spec, net_config=MessageNetConfig(latency=ConstantLatency(-0.1))
            ).run()


class TestPerLinkLatency:
    def test_link_delay_deterministic_and_bounded(self):
        model = PerLinkLatency(lo=0.01, hi=0.5, seed=7)
        delays = {(a, b): model.link_delay(a, b) for a in range(6) for b in range(6) if a != b}
        for value in delays.values():
            assert 0.01 <= value <= 0.5
        # Stable across instances with the same seed...
        again = PerLinkLatency(lo=0.01, hi=0.5, seed=7)
        assert all(again.link_delay(a, b) == v for (a, b), v in delays.items())
        # ...heterogeneous across links, symmetric per pair.
        assert len(set(delays.values())) > 10
        assert delays[(1, 2)] == delays[(2, 1)]

    def test_seed_changes_the_link_map(self):
        a = PerLinkLatency(seed=1)
        b = PerLinkLatency(seed=2)
        assert any(a.link_delay(i, i + 1) != b.link_delay(i, i + 1) for i in range(8))

    def test_overrides_pin_specific_links_symmetrically(self):
        model = PerLinkLatency(lo=0.01, hi=0.5, overrides={(1, 2): 3.0})
        assert model.link_delay(1, 2) == 3.0
        assert model.link_delay(2, 1) == 3.0
        # A descending-order override key pins the link just the same.
        reversed_key = PerLinkLatency(lo=0.01, hi=0.5, overrides={(2, 1): 3.0})
        assert reversed_key.link_delay(1, 2) == 3.0
        assert reversed_key.link_delay(2, 1) == 3.0
        import random

        rng = random.Random(4)
        assert model.sample_link(1, 2, rng) == 3.0  # no jitter configured

    def test_jitter_adds_on_top_of_base(self):
        import random

        model = PerLinkLatency(lo=0.1, hi=0.1, jitter=ConstantLatency(0.05))
        assert model.sample_link(0, 1, random.Random(1)) == pytest.approx(0.15)

    def test_sample_without_link_context_falls_back_to_uniform(self):
        import random

        model = PerLinkLatency(lo=0.2, hi=0.4)
        rng = random.Random(9)
        for _ in range(50):
            assert 0.2 <= model.sample(rng) <= 0.4


class TestDeliveryOrdering:
    def test_fast_links_overtake_slow_ones(self):
        # A slow 0->1 link and a fast 2->1 link: the later message wins.
        model = PerLinkLatency(overrides={(0, 1): 0.5, (1, 2): 0.05})
        sim = Simulator()
        net = Network(sim, latency=model, rng=1)
        receiver = Recorder(1)
        for node in (Recorder(0), receiver, Recorder(2)):
            net.register(node)
        net.send(0, 1, "slow", {})
        net.send(2, 1, "fast", {})
        sim.run_all()
        assert [m.kind for m in receiver.inbox] == ["fast", "slow"]

    def test_random_latency_delivers_in_delay_order(self):
        sim = Simulator()
        net = Network(sim, latency=UniformLatency(0.01, 1.0), rng=3)
        a, b = Recorder(0), Recorder(1)
        net.register(a)
        net.register(b)
        arrivals = []
        b.receive = lambda m: arrivals.append((sim.now, m.payload["i"]))
        for i in range(50):
            net.send(0, 1, "seq", {"i": i})
        sim.run_all()
        assert len(arrivals) == 50
        times = [t for t, _ in arrivals]
        assert times == sorted(times)
        # Random latency genuinely reorders the send sequence.
        assert [i for _, i in arrivals] != list(range(50))


class TestDropAccounting:
    def test_breakdown_sums_to_total(self):
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01), loss_rate=0.3, rng=5)
        a, b, c = Recorder(0), Recorder(1), Recorder(2)
        for node in (a, b, c):
            net.register(node)
        b.online = False
        for _ in range(100):
            # Dropped at delivery (offline dst) unless loss ate it first.
            net.send(0, 1, "to-offline", {})
            net.send(0, 2, "maybe", {})  # ~30% loss
        sim.run_all()
        assert b.inbox == []  # every to-offline message was dropped somehow
        assert 50 < net.drops_offline <= 100
        assert 30 < net.drops_loss < 100  # ~30% of 200 sends
        assert net.drops_partition == 0
        assert (
            net.drops_offline + net.drops_loss + net.drops_partition
            == net.messages_dropped
        )

    @pytest.mark.parametrize("cause", ["offline", "partition", "refused", "loss"])
    def test_send_time_drop_is_billed_but_never_queued(self, cause):
        # A message refused at send time is offered load (counted, billed
        # to its link and its stats bin) but never reaches the wire: no
        # heap entry, nothing in flight.
        stats = StatsCollector()
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01), rng=1, stats=stats)
        a, b = Recorder(0), Recorder(1)
        net.register(a)
        net.register(b)
        if cause == "offline":
            a.online = False
        elif cause == "refused":
            b.online = False
        elif cause == "partition":
            net.set_partitions([{0}, {1}])
        else:
            net.loss_rate = 0.999999
        assert net.send(0, 1, "k", {}, n_keys=2, category="queries") == cause
        size = HEADER_BYTES + 2 * KEY_BYTES
        assert (sim.pending, net.inflight, net.inflight_peak) == (0, 0, 0)
        assert (net.messages_sent, net.messages_dropped) == (1, 1)
        assert net.link_bytes == {(0, 1): size}
        assert stats.bytes_by_category["queries"][0] == size
        sim.run_all()
        assert b.inbox == [] and net.delivered == {}

    def test_inflight_peak_tracks_concurrent_messages(self):
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(1.0), rng=1)
        a, b = Recorder(0), Recorder(1)
        net.register(a)
        net.register(b)
        for _ in range(7):
            net.send(0, 1, "burst", {})
        assert net.inflight == 7
        sim.run_all()
        assert net.inflight == 0
        assert net.inflight_peak == 7

    def test_link_bytes_and_delivered_accounting(self):
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01), rng=1)
        a, b = Recorder(0), Recorder(1)
        net.register(a)
        net.register(b)
        net.send(0, 1, "k", {}, n_keys=3)
        net.send(0, 1, "k", {})
        net.send(1, 0, "k", {})
        sim.run_all()
        assert net.link_bytes[(0, 1)] == 2 * HEADER_BYTES + 3 * KEY_BYTES
        assert net.link_bytes[(1, 0)] == HEADER_BYTES
        assert net.delivered == {1: 2, 0: 1}


class TestPartitions:
    def make_net(self):
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01), rng=1)
        nodes = [Recorder(i) for i in range(4)]
        for node in nodes:
            net.register(node)
        return sim, net, nodes

    def test_cross_partition_messages_dropped(self):
        sim, net, nodes = self.make_net()
        net.set_partitions([{0, 1}, {2, 3}])
        net.send(0, 1, "intra", {})
        net.send(0, 2, "inter", {})
        net.send(3, 2, "intra", {})
        sim.run_all()
        assert [m.kind for m in nodes[1].inbox] == ["intra"]
        assert nodes[2].inbox and nodes[2].inbox[0].src == 3
        assert net.drops_partition == 1

    def test_unlisted_nodes_are_isolated(self):
        sim, net, nodes = self.make_net()
        net.set_partitions([{0, 1}])
        net.send(2, 3, "both-unlisted", {})
        net.send(0, 2, "into-void", {})
        sim.run_all()
        assert nodes[3].inbox == []
        assert nodes[2].inbox == []
        assert net.drops_partition == 2

    def test_heal_restores_full_connectivity(self):
        sim, net, nodes = self.make_net()
        net.set_partitions([{0, 1}, {2, 3}])
        net.send(0, 2, "cut", {})
        net.heal_partitions()
        net.send(0, 2, "healed", {})
        sim.run_all()
        assert [m.kind for m in nodes[2].inbox] == ["healed"]

    def test_inflight_messages_survive_a_new_partition(self):
        sim, net, nodes = self.make_net()
        net.send(0, 2, "already-flying", {})
        net.set_partitions([{0, 1}, {2, 3}])
        sim.run_all()
        assert [m.kind for m in nodes[2].inbox] == ["already-flying"]

    def test_overlapping_groups_rejected(self):
        sim, net, nodes = self.make_net()
        with pytest.raises(SimulationError):
            net.set_partitions([{0, 1}, {1, 2}])
