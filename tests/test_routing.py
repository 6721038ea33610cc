"""Tests for routing tables."""

import random

from repro.pgrid.keyspace import float_to_key
from repro.pgrid.network import PGridNetwork
from repro.pgrid.routing import RoutingTable


class TestRoutingTable:
    def test_add_and_refs(self):
        table = RoutingTable()
        assert table.add(0, 7)
        assert not table.add(0, 7)  # duplicate
        assert table.refs(0) == [7]
        assert table.refs(3) == []

    def test_bounded_per_level(self):
        table = RoutingTable(max_refs_per_level=2)
        for peer in (1, 2, 3):
            table.add(0, peer)
        assert len(table.refs(0)) == 2
        assert table.refs(0) == [2, 3]  # oldest evicted

    def test_remove_everywhere(self):
        table = RoutingTable()
        table.add(0, 5)
        table.add(1, 5)
        table.add(1, 6)
        table.remove(5)
        assert table.refs(0) == []
        assert table.refs(1) == [6]

    def test_choose_prefers_non_excluded(self):
        table = RoutingTable()
        table.add(0, 1)
        table.add(0, 2)
        rand = random.Random(0)
        picks = {table.choose(0, rng=rand, exclude=[1]) for _ in range(10)}
        assert picks == {2}

    def test_choose_falls_back_when_all_excluded(self):
        table = RoutingTable()
        table.add(0, 1)
        assert table.choose(0, rng=random.Random(1), exclude=[1]) == 1

    def test_choose_empty_level(self):
        assert RoutingTable().choose(0, rng=random.Random(1)) is None

    def test_all_refs_and_contains(self):
        table = RoutingTable()
        table.add(0, 1)
        table.add(2, 9)
        assert sorted(table.all_refs()) == [1, 9]
        assert 9 in table
        assert 4 not in table

    def test_refs_returns_a_copy(self):
        # Regression guard: query code shuffles/filters the result of
        # refs(); if it ever aliased the internal list, a query would
        # silently reorder the routing table of the peer it traversed.
        table = RoutingTable()
        for peer in (1, 2, 3):
            table.add(0, peer)
        out = table.refs(0)
        out.reverse()
        out.append(99)
        assert table.refs(0) == [1, 2, 3]

    def test_refs_view_is_zero_copy_and_safe_when_empty(self):
        table = RoutingTable()
        table.add(2, 7)
        assert list(table.refs_view(2)) == [7]
        assert table.refs_view(2) is table.levels[2]  # no per-probe copy
        assert len(table.refs_view(0)) == 0


class TestRebuildRouting:
    def test_rebuild_never_emits_levels_beyond_path_length(self):
        rand = random.Random(3)
        keys = [float_to_key(rand.random()) for _ in range(600)]
        net = PGridNetwork.ideal(keys, 64, d_max=40, n_min=3, rng=1)
        net.rebuild_routing(rng=5)
        for peer in net.peers.values():
            for level, refs in peer.routing.levels.items():
                assert level < peer.path.length, (
                    f"peer {peer.peer_id} (path length {peer.path.length}) "
                    f"has references at level {level}"
                )
                assert refs, "rebuild_routing must not leave empty levels behind"
        assert net.is_consistent()
