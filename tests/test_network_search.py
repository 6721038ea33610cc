"""Tests for the assembled overlay: lookups, range queries, consistency."""

import random

import pytest

from repro.core.construction import ConstructionConfig
from repro.exceptions import PartitionError, RoutingError
from repro.pgrid.keyspace import KEY_BITS, float_to_key
from repro.pgrid.network import PGridNetwork, build_overlay
from repro.workloads.datasets import flatten, workload_keys


@pytest.fixture(scope="module")
def ideal_net():
    rand = random.Random(7)
    keys = [float_to_key(rand.random()) for _ in range(800)]
    net = PGridNetwork.ideal(keys, 80, d_max=50, n_min=5, rng=1)
    return keys, net


@pytest.fixture(scope="module")
def built_net():
    pk = workload_keys("U", peers=96, keys_per_peer=10, seed=3)
    net = build_overlay(pk, config=ConstructionConfig(n_min=5, d_max=50), rng=4)
    return pk, net


class TestIdealOverlay:
    def test_consistency(self, ideal_net):
        _, net = ideal_net
        assert net.is_consistent()

    def test_every_key_lookupable(self, ideal_net):
        keys, net = ideal_net
        rand = random.Random(0)
        for key in rand.sample(keys, 100):
            res = net.lookup(key, rng=rand)
            assert res.found
            assert res.value_present

    def test_lookup_hops_logarithmic(self, ideal_net):
        keys, net = ideal_net
        rand = random.Random(1)
        partitions = len(net.partitions())
        import math

        bound = 2 * math.log2(partitions) + 2
        hops = [net.lookup(k, rng=rand).hops for k in rand.sample(keys, 50)]
        assert max(hops) <= bound

    def test_range_query_exact(self, ideal_net):
        keys, net = ideal_net
        lo, hi = float_to_key(0.2), float_to_key(0.6)
        expected = {k for k in keys if lo <= k < hi}
        res = net.range_query(lo, hi, rng=2)
        assert res.keys == expected
        assert res.complete

    def test_range_query_narrow(self, ideal_net):
        keys, net = ideal_net
        sorted_keys = sorted(set(keys))
        target = sorted_keys[len(sorted_keys) // 2]
        res = net.range_query(target, target + 1, rng=3)
        assert res.keys == {target}

    def test_range_query_empty_range(self, ideal_net):
        _, net = ideal_net
        res = net.range_query(0.123, 0.123, rng=1)
        assert res.keys == set()

    def test_range_query_whole_space(self, ideal_net):
        keys, net = ideal_net
        res = net.range_query(0, 1 << KEY_BITS, rng=4)
        assert res.keys == set(keys)

    def test_range_result_partitions_are_paths(self, ideal_net):
        from repro.pgrid.bits import Path

        _, net = ideal_net
        res = net.range_query(float_to_key(0.3), float_to_key(0.7), rng=5)
        assert res.partitions
        assert all(isinstance(p, Path) for p in res.partitions)
        # The contributing partitions must be actual peer partitions and
        # must intersect the queried range.
        peer_paths = set(net.paths())
        for path in res.partitions:
            assert path in peer_paths
            lo, hi = path.key_range(KEY_BITS)
            assert lo < res.hi and res.lo < hi
        # str() still renders the bit-string form used in reports.
        rendered = sorted(str(p) for p in res.partitions)
        assert all(set(s) <= {"0", "1"} for s in rendered)

    def test_float_and_string_coercion(self, ideal_net):
        _, net = ideal_net
        res = net.lookup(0.5, rng=1)
        assert res.found
        res2 = net.lookup("hello", rng=1)
        assert res2.found  # responsible partition exists even if key absent

    def test_insert_places_key_on_responsible_replicas(self, ideal_net):
        _, net = ideal_net
        new_key = float_to_key(0.4242424242)
        res = net.insert(new_key, rng=5)
        assert res.found
        owner = net.peers[res.responsible]
        assert new_key in owner.keys
        for rid in owner.replicas:
            assert new_key in net.peers[rid].keys

    def test_ideal_drops_out_of_range_keys(self):
        # Keys outside [0, 2^KEY_BITS) are covered by no leaf; they must
        # be dropped, never dealt to a wrong partition (regression: the
        # binary-search dealer once wrapped them into the last leaf).
        rand = random.Random(11)
        keys = [float_to_key(rand.random()) for _ in range(300)]
        out_of_range = [-1, -(1 << KEY_BITS), 1 << KEY_BITS, (1 << KEY_BITS) + 7]
        net = PGridNetwork.ideal(
            keys + out_of_range, 32, d_max=40, n_min=3, rng=1
        )
        assert net.is_consistent()
        stored = net.all_keys()
        assert stored == set(keys)
        assert stored.isdisjoint(out_of_range)
        # Every surviving key sits inside its holder's partition.
        for peer in net.peers.values():
            for key in peer.keys:
                assert peer.responsible_for(key)

    def test_ideal_covers_empty_leaves_of_skewed_workloads(self):
        # Algorithm 1 emits peer-less leaves for empty key regions; the
        # operational overlay must still own them (a gap would make every
        # lookup into the region fail structurally).
        keys = workload_keys("P0.5", peers=64, keys_per_peer=8, seed=5)
        net = PGridNetwork.ideal(flatten(keys), 64, d_max=40, n_min=3, rng=2)
        assert len(net.peers) == 64  # reassignment conserves the population
        covered = 0
        for path in set(net.paths()):
            lo, hi = path.key_range(KEY_BITS)
            covered += hi - lo
        assert covered == 1 << KEY_BITS
        rand = random.Random(6)
        for _ in range(50):
            assert net.lookup(rand.randrange(1 << KEY_BITS), rng=rand).found

    def test_rejects_bool_and_garbage_keys(self, ideal_net):
        _, net = ideal_net
        with pytest.raises(PartitionError):
            net.lookup(True)
        with pytest.raises(PartitionError):
            net.lookup([1, 2])  # type: ignore[arg-type]


class TestConstructedOverlay:
    def test_consistency(self, built_net):
        _, net = built_net
        assert net.is_consistent()

    def test_lookup_success_on_all_keys(self, built_net):
        pk, net = built_net
        rand = random.Random(2)
        keys = list(set(flatten(pk)))
        failures = 0
        for key in rand.sample(keys, 150):
            res = net.lookup(key, rng=rand)
            if not (res.found and res.value_present):
                failures += 1
        # The decentralized construction must index every key it was fed.
        assert failures == 0

    def test_range_queries_complete(self, built_net):
        pk, net = built_net
        keys = set(flatten(pk))
        lo, hi = float_to_key(0.25), float_to_key(0.75)
        res = net.range_query(lo, hi, rng=1)
        assert res.keys == {k for k in keys if lo <= k < hi}

    def test_replication_groups_nonempty(self, built_net):
        _, net = built_net
        assert net.replication_factor() >= 1.0
        assert net.mean_path_length() > 1.0


class TestFailureHandling:
    def test_lookup_survives_minority_failures(self, ideal_net):
        keys, net = ideal_net
        rand = random.Random(3)
        # Knock out 20% of peers.
        victims = rand.sample(sorted(net.peers), k=len(net.peers) // 5)
        for v in victims:
            net.peers[v].online = False
        successes = 0
        sample = rand.sample(keys, 60)
        for key in sample:
            if net.lookup(key, rng=rand).found:
                successes += 1
        assert successes / len(sample) >= 0.9
        for v in victims:
            net.peers[v].online = True

    def test_all_offline_raises(self, ideal_net):
        _, net = ideal_net
        for peer in net.peers.values():
            peer.online = False
        with pytest.raises(RoutingError):
            net.lookup(0.5)
        for peer in net.peers.values():
            peer.online = True

    def test_unknown_peer_id(self, ideal_net):
        _, net = ideal_net
        with pytest.raises(RoutingError):
            net.peer(10_000_000)
