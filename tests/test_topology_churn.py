"""Tests for the unstructured bootstrap overlay and the churn process."""

import pytest

from repro.exceptions import SimulationError
from repro.simnet.churn import ChurnConfig, ChurnProcess
from repro.simnet.engine import Simulator
from repro.simnet.topology import UnstructuredOverlay


class TestOverlay:
    def test_joins_connect_graph(self):
        overlay = UnstructuredOverlay(degree=3)
        for i in range(50):
            overlay.join(i, rng=i)
        seen, frontier = {0}, [0]
        while frontier:
            frontier = [n for node in frontier for n in overlay.neighbors[node] - seen]
            seen.update(frontier)
        assert seen == set(overlay.neighbors) == set(range(50))

    def test_duplicate_join_rejected(self):
        overlay = UnstructuredOverlay()
        overlay.join(0)
        with pytest.raises(SimulationError):
            overlay.join(0)

    def test_rejected_join_leaves_the_graph_unchanged(self):
        overlay = UnstructuredOverlay(degree=2)
        for i in range(6):
            overlay.join(i, rng=i)
        before = {node: set(adj) for node, adj in overlay.neighbors.items()}
        with pytest.raises(SimulationError):
            overlay.join(3, rng=99)
        assert overlay.neighbors == before

    def test_newcomer_gets_up_to_degree_neighbors(self):
        overlay = UnstructuredOverlay(degree=3)
        assigned = [overlay.join(i, rng=i) for i in range(10)]
        assert assigned[0] == []
        assert assigned[1] == [0]
        assert [len(a) for a in assigned] == [0, 1, 2, 3, 3, 3, 3, 3, 3, 3]
        for i, nbrs in enumerate(assigned):
            assert nbrs == sorted(nbrs)
            assert all(n < i for n in nbrs)

    def test_edges_are_symmetric(self):
        overlay = UnstructuredOverlay(degree=4)
        for i in range(40):
            overlay.join(i, rng=i)
        for node, adj in overlay.neighbors.items():
            assert node not in adj
            for other in adj:
                assert node in overlay.neighbors[other]
            assert overlay.neighbors_of(node) == sorted(adj)

    def test_neighbors_of_an_unknown_node_is_empty(self):
        overlay = UnstructuredOverlay()
        overlay.join(0)
        assert overlay.neighbors_of(7) == []

    def test_same_seeds_build_the_same_graph(self):
        def build():
            overlay = UnstructuredOverlay(degree=3)
            for i in range(30):
                overlay.join(i, rng=100 + i)
            return overlay.neighbors

        assert build() == build()


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
