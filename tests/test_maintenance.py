"""Tests for sequential maintenance (joins, failure, repair)."""

import random

import pytest

from repro.pgrid.maintenance import (
    fail_peer,
    repair_routes,
    sequential_build,
    sequential_join,
)
from repro.pgrid.network import PGridNetwork
from repro.pgrid.keyspace import float_to_key
from repro.workloads.datasets import flatten, uniform_keys


@pytest.fixture(scope="module")
def seq_net():
    pk = uniform_keys(peers=60, keys_per_peer=10, seed=9)
    result = sequential_build(pk, d_max=50, n_min=3, rng=2)
    return pk, result


class TestSequentialBuild:
    def test_all_peers_joined(self, seq_net):
        pk, result = seq_net
        assert len(result.network.peers) == len(pk)

    def test_network_consistent(self, seq_net):
        _, result = seq_net
        assert result.network.is_consistent()

    def test_keys_searchable(self, seq_net):
        pk, result = seq_net
        net = result.network
        rand = random.Random(1)
        keys = list(set(flatten(pk)))
        found = 0
        sample = rand.sample(keys, 80)
        for key in sample:
            res = net.lookup(key, rng=rand)
            if res.found and res.value_present:
                found += 1
        assert found / len(sample) >= 0.95

    def test_latency_equals_messages(self, seq_net):
        _, result = seq_net
        # Sequential joins serialize: wall-clock latency == total messages.
        assert result.latency == result.total_messages
        assert result.total_messages == sum(result.join_messages)

    def test_join_cost_grows_with_network(self, seq_net):
        _, result = seq_net
        early = sum(result.join_messages[:10])
        late = sum(result.join_messages[-10:])
        assert late > early  # routing walks lengthen as the trie deepens


class TestSingleJoin:
    def test_first_join_is_free(self):
        net = PGridNetwork()
        stats = sequential_join(net, 0, [1, 2, 3], d_max=50, n_min=2, rng=1)
        assert stats.messages == 0
        assert len(net.peers) == 1

    def test_join_becomes_replica_when_underloaded(self):
        net = PGridNetwork()
        sequential_join(net, 0, [float_to_key(0.1)], d_max=50, n_min=2, rng=1)
        stats = sequential_join(net, 1, [float_to_key(0.2)], d_max=50, n_min=2, rng=1)
        assert not stats.split
        assert net.peers[1].replicas == {0}
        assert net.peers[0].replicas == {1}

    def test_join_splits_when_overloaded(self):
        net = PGridNetwork()
        keys = [float_to_key(i / 40) for i in range(40)]
        rand = random.Random(3)
        sequential_join(net, 0, keys[:20], d_max=8, n_min=1, rng=rand)
        sequential_join(net, 1, keys[20:], d_max=8, n_min=1, rng=rand)
        sequential_join(net, 2, [float_to_key(0.99)], d_max=8, n_min=1, rng=rand)
        assert any(p.path.length > 0 for p in net.peers.values())
        assert net.is_consistent()


class TestFailureAndRepair:
    def test_fail_peer_marks_offline(self, seq_net):
        _, result = seq_net
        net = result.network
        fail_peer(net, 0)
        assert not net.peers[0].online
        net.peers[0].online = True

    def test_repair_replaces_dead_references(self):
        pk = uniform_keys(peers=40, keys_per_peer=10, seed=4)
        result = sequential_build(pk, d_max=40, n_min=2, rng=5)
        net = result.network
        rand = random.Random(6)
        victims = rand.sample(sorted(net.peers), 8)
        for v in victims:
            fail_peer(net, v)
        repaired = repair_routes(net, rng=7)
        assert repaired >= 0
        # After repair no live peer should route through a known-dead ref.
        for peer in net.peers.values():
            for refs in peer.routing.levels.values():
                for ref in refs:
                    assert net.peers[ref].online
