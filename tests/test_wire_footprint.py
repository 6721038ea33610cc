"""What a wire node holds after set-up: the lean record's invariants.

A leaf's replicas share one immutable key set as ``original_keys``; a
node without the serving policy carries none of its containers; and
every node stays within the attribute budget of ``PGridNode`` (module
docstring of :mod:`repro.simnet.node`).  A snapshot/restore round trip
and a cold rejoin each give the node a set of its own, and leave the
one its former replicas share as it was.
"""

import dataclasses
from collections import defaultdict

import pytest

from repro.pgrid.network import ideal_layout
from repro.pgrid.serving import CachePolicy
from repro.scenarios import SCENARIOS
from repro.scenarios.message_runner import MessageScenarioRunner

#: CPython 3.11 keeps up to 30 instance attributes in its compact
#: per-instance layout; one more and the instance gets a full dict.
ATTRIBUTE_BUDGET = 30

SERVING_CONTAINERS = (
    "result_cache", "route_cache", "_inflight_by_key", "_waiters",
    "_helpers", "_grants", "serving_stats",
)


class _SetUp(Exception):
    """Stops a run right after ``_setup``."""


class SetUpOnly(MessageScenarioRunner):
    """Keeps the population ``_setup`` leaves behind, and the leaves of
    Algorithm 1's layout it was spawned from; runs nothing else."""

    def _setup(self, peer_keys, build_rng):
        spec = self.spec
        flat = [k for keys in peer_keys for k in keys]
        self.leaves = {
            path: keys
            for path, keys, _ in ideal_layout(
                flat, spec.n_peers, d_max=spec.d_max, n_min=spec.n_min
            )
        }
        super()._setup(peer_keys, build_rng)
        raise _SetUp


def set_up(spec):
    runner = SetUpOnly(spec)
    with pytest.raises(_SetUp):
        runner.run()
    return runner


def baseline_spec(**changes):
    spec = SCENARIOS["uniform-baseline"](96, seed=5, duration_scale=0.05)
    return dataclasses.replace(spec, **changes)


def leaves_of(runner):
    """path -> the ids of the nodes spawned into that leaf."""
    groups = defaultdict(list)
    for pid in sorted(runner.nodes):
        groups[runner.nodes[pid].path].append(pid)
    return groups


@pytest.fixture()
def plain():
    return set_up(baseline_spec())


def test_replicas_of_a_leaf_share_one_frozen_key_set(plain):
    groups = leaves_of(plain)
    assert set(groups) == set(plain.leaves)
    assert any(len(ids) > 1 for ids in groups.values())
    own_sets = {id(node.keys) for node in plain.nodes.values()}
    for path, ids in groups.items():
        shared = plain.nodes[ids[0]].original_keys
        assert isinstance(shared, frozenset)
        assert shared == frozenset(plain.leaves[path])
        assert id(shared) not in own_sets
        for pid in ids:
            node = plain.nodes[pid]
            assert node.original_keys is shared
            assert node.keys == shared and node.keys is not shared


def test_no_serving_container_without_the_policy(plain):
    for node in plain.nodes.values():
        assert not set(SERVING_CONTAINERS) & set(vars(node))
        assert node.result_cache is None and node.route_cache is None
        # What a node without the policy reads cannot be written into.
        with pytest.raises(TypeError):
            node._helpers[0] = 0.0
        with pytest.raises(TypeError):
            node.serving_stats["grants"] = 1
    counters = plain._serving_counters()
    assert counters and set(counters.values()) == {0}
    assert "helpers_final" in counters and "result_hits" in counters


def test_every_node_is_within_the_attribute_budget(plain):
    assert max(len(vars(node)) for node in plain.nodes.values()) <= ATTRIBUTE_BUDGET


@pytest.mark.parametrize(
    "name, n_peers, duration_scale",
    [("paper-sec51-churn", 96, 0.1), ("rolling-deploy", 64, 0.3)],
)
def test_budget_holds_through_a_run_with_churn_and_maintenance(
    name, n_peers, duration_scale
):
    """Churn drops messages on offline nodes; a rolling deploy restores
    every node from its checkpoint.  Neither pushes a node past the
    budget."""
    runner = MessageScenarioRunner(
        SCENARIOS[name](n_peers, seed=5, duration_scale=duration_scale)
    )
    runner.run()
    assert runner.transport.drops_offline > 0
    assert max(len(vars(node)) for node in runner.nodes.values()) <= ATTRIBUTE_BUDGET


def test_serving_containers_are_per_node():
    runner = set_up(baseline_spec(cache=CachePolicy(enabled=True)))
    a, b = runner.nodes[0], runner.nodes[1]
    for name in SERVING_CONTAINERS:
        assert name in vars(a) and name in vars(b)
        assert getattr(a, name) is not getattr(b, name)
    a.serving_stats["grants"] += 1
    a._helpers[7] = 0.0
    a._waiters[1] = [2]
    a._inflight_by_key[3] = 1
    a._grants[a.path] = ({3}, 10.0)
    a.result_cache.put(3, True, 0.0)
    a.route_cache.put(3, [7], 0.0)
    assert b.serving_stats["grants"] == 0
    assert not b._helpers and not b._waiters and not b._inflight_by_key
    assert not b._grants
    assert b.result_cache.get(3, 0.0) is None
    assert b.route_cache.pick(3, 0.0) is None


def replicated_leaf(runner):
    return next(ids for ids in leaves_of(runner).values() if len(ids) > 1)


def test_restore_gives_the_node_its_own_original_keys(plain):
    ids = replicated_leaf(plain)
    node, others = plain.nodes[ids[0]], [plain.nodes[pid] for pid in ids[1:]]
    shared = node.original_keys
    contents = set(shared)
    node.restore_state(node.snapshot_state())
    assert node.original_keys == contents
    assert node.original_keys is not shared
    for other in others:
        assert other.original_keys is shared
    assert shared == contents


def test_cold_rejoin_gives_the_node_its_own_original_keys(plain):
    ids = replicated_leaf(plain)
    node, others = plain.nodes[ids[0]], [plain.nodes[pid] for pid in ids[1:]]
    shared = node.original_keys
    contents = set(shared)
    node.set_online(False)
    assert plain._restart_return(node.node_id, plain._tally) == "cold"
    assert node.original_keys == contents
    assert node.original_keys is not shared
    for other in others:
        assert other.original_keys is shared
    assert shared == contents
