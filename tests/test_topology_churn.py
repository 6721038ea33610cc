"""Tests for the unstructured overlay, random walks, churn and votes."""

import pytest

from repro.exceptions import SimulationError
from repro.simnet.churn import ChurnConfig, ChurnProcess
from repro.simnet.engine import Simulator
from repro.simnet.topology import UnstructuredOverlay
from repro.simnet.vote import PeerVote, derived_parameters, run_vote


class TestOverlay:
    def test_joins_connect_graph(self):
        overlay = UnstructuredOverlay(degree=3)
        for i in range(50):
            overlay.join(i, rng=i)
        assert len(overlay) == 50
        assert overlay.is_connected()

    def test_duplicate_join_rejected(self):
        overlay = UnstructuredOverlay()
        overlay.join(0)
        with pytest.raises(SimulationError):
            overlay.join(0)

    def test_leave_removes_edges(self):
        overlay = UnstructuredOverlay(degree=2)
        for i in range(10):
            overlay.join(i, rng=i)
        victim_neighbors = overlay.neighbors_of(3)
        overlay.leave(3)
        for n in victim_neighbors:
            assert 3 not in overlay.neighbors_of(n)

    def test_walk_reaches_far_nodes(self):
        overlay = UnstructuredOverlay(degree=4)
        for i in range(100):
            overlay.join(i, rng=i)
        ends = {overlay.random_walk(0, length=10, rng=s) for s in range(200)}
        assert len(ends) > 30  # walks spread over the graph

    def test_walk_roughly_uniform(self):
        overlay = UnstructuredOverlay(degree=5)
        for i in range(30):
            overlay.join(i, rng=i)
        counts = {}
        for s in range(3000):
            end = overlay.random_walk(s % 30, length=12, rng=s)
            counts[end] = counts.get(end, 0) + 1
        # No node should dominate the sample.
        assert max(counts.values()) < 3000 * 0.15

    def test_walk_respects_alive_filter(self):
        overlay = UnstructuredOverlay(degree=3)
        for i in range(20):
            overlay.join(i, rng=i)
        alive = set(range(10))
        for s in range(50):
            end = overlay.random_walk(0, length=8, rng=s, alive=alive)
            assert end in alive or end == 0


class TestPartitionBehavior:
    """Topology-level partitions: what a severed bootstrap graph does."""

    def split_overlay(self):
        # Two islands bridged only by node 4: {0,1,2,3,4} -- {4,5,6,7}.
        overlay = UnstructuredOverlay()
        overlay.neighbors = {
            0: {1, 2},
            1: {0, 3},
            2: {0, 3},
            3: {1, 2, 4},
            4: {3, 5},
            5: {4, 6, 7},
            6: {5, 7},
            7: {5, 6},
        }
        return overlay

    def test_components_of_connected_graph(self):
        overlay = self.split_overlay()
        assert overlay.is_connected()
        assert overlay.components() == [set(range(8))]

    def test_bridge_departure_partitions_the_graph(self):
        overlay = self.split_overlay()
        overlay.leave(4)
        assert not overlay.is_connected()
        assert overlay.components() == [{0, 1, 2, 3}, {5, 6, 7}]

    def test_walks_cannot_cross_a_partition(self):
        overlay = self.split_overlay()
        overlay.leave(4)
        for seed in range(60):
            assert overlay.random_walk(0, length=20, rng=seed) in {0, 1, 2, 3}
            assert overlay.random_walk(7, length=20, rng=seed) in {5, 6, 7}

    def test_offline_bridge_confines_live_walks(self):
        # The bridge stays in the graph but offline: alive-filtered
        # walks (how peer sampling really behaves under churn) are
        # confined exactly like a structural partition.
        overlay = self.split_overlay()
        alive = set(range(8)) - {4}
        for seed in range(60):
            end = overlay.random_walk(1, length=20, rng=seed, alive=alive)
            assert end in {0, 1, 2, 3}

    def test_empty_overlay_has_no_components(self):
        assert UnstructuredOverlay().components() == []
        assert UnstructuredOverlay().is_connected()


class TestChurn:
    def test_alternates_online_offline(self):
        sim = Simulator()
        transitions = []
        proc = ChurnProcess(
            sim, lambda on: transitions.append(on),
            config=ChurnConfig(min_offline=10, max_offline=20,
                               min_online=30, max_online=60),
            rng=1,
        )
        proc.start()
        sim.run_until(600.0)
        assert transitions[:4] == [False, True, False, True]

    def test_duty_cycle_matches_parameters(self):
        # offline 1-5 min every 5-10 min => offline fraction ~ 3/(3+7.5).
        sim = Simulator()
        state = {"online": True, "since": 0.0, "off_time": 0.0}

        def toggle(on):
            now = sim.now
            if not on:
                state["since"] = now
            else:
                state["off_time"] += now - state["since"]
            state["online"] = on

        proc = ChurnProcess(sim, toggle, rng=7)
        proc.start()
        horizon = 100_000.0
        sim.run_until(horizon)
        frac = state["off_time"] / horizon
        assert 0.15 < frac < 0.45

    def test_until_stops_scheduling(self):
        sim = Simulator()
        transitions = []
        proc = ChurnProcess(sim, lambda on: transitions.append((sim.now, on)),
                            until=500.0, rng=2)
        proc.start()
        sim.run_until(5000.0)
        off_after = [t for t, on in transitions if not on and t > 800.0]
        assert off_after == []

    def test_stop(self):
        sim = Simulator()
        transitions = []
        proc = ChurnProcess(sim, lambda on: transitions.append(on), rng=3)
        proc.start()
        proc.stop()
        sim.run_until(10_000.0)
        assert transitions == []

    def test_invalid_config(self):
        with pytest.raises(SimulationError):
            ChurnConfig(min_offline=0).validate()


class TestVote:
    def _overlay(self, n=30):
        overlay = UnstructuredOverlay(degree=4)
        for i in range(n):
            overlay.join(i, rng=i)
        return overlay

    def test_reaches_all_peers(self):
        overlay = self._overlay()
        outcome = run_vote(
            overlay, 0, lambda pid: PeerVote(pid, True, 10, 100)
        )
        assert outcome.peers_reached == 30
        assert outcome.passed
        assert outcome.yes == 30

    def test_majority_decision(self):
        overlay = self._overlay()
        outcome = run_vote(
            overlay, 0,
            lambda pid: PeerVote(pid, pid % 3 == 0, 10, 100),
        )
        assert not outcome.passed

    def test_aggregates_resources(self):
        overlay = self._overlay()
        outcome = run_vote(
            overlay, 0, lambda pid: PeerVote(pid, True, 10, 50)
        )
        assert outcome.total_keys == 300
        assert outcome.avg_keys_per_peer == pytest.approx(10.0)

    def test_message_accounting(self):
        overlay = self._overlay()
        outcome = run_vote(overlay, 0, lambda pid: PeerVote(pid, True, 1, 1))
        edges = sum(len(v) for v in overlay.neighbors.values()) // 2
        # Requests cost one message per (directed) reachable edge; replies
        # and the decision flood one per tree edge each.
        assert outcome.messages >= edges

    def test_offline_peers_excluded(self):
        overlay = self._overlay()
        alive = set(range(0, 30, 2))
        outcome = run_vote(
            overlay, 0, lambda pid: PeerVote(pid, True, 1, 1), alive=alive
        )
        assert outcome.peers_reached <= len(alive)

    def test_derived_parameters(self):
        overlay = self._overlay()
        outcome = run_vote(overlay, 0, lambda pid: PeerVote(pid, True, 10, 1))
        params = derived_parameters(outcome, n_min=5)
        assert params["d_max"] == pytest.approx(100.0)
        assert params["replication_copies"] == 4

    def test_invalid_initiator(self):
        overlay = self._overlay()
        with pytest.raises(SimulationError):
            run_vote(overlay, 999, lambda pid: PeerVote(pid, True, 1, 1))
