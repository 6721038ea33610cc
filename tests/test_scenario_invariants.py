"""Randomized invariant suite: structure survives churn and maintenance.

For generated churn/maintenance/membership event sequences, the overlay
must keep the three structural invariants of
:mod:`repro.scenarios.invariants`:

* the peers' paths remain a prefix-complete partition of the key space;
* every routing level references a peer on the complementary subtree;
* the union of live key stores covers all keys owned by partitions with
  online members (checked after anti-entropy has had a chance to run).
"""

import random

import pytest

from repro.pgrid.keyspace import MAX_KEY
from repro.pgrid.maintenance import (
    fail_peer,
    repair_routes,
    revive_peer,
    sequential_join,
)
from repro.pgrid.network import PGridNetwork
from repro.pgrid.replication import anti_entropy_sweep
from repro.scenarios import ScenarioRunner, scenario
from repro.scenarios.invariants import (
    check_invariants,
    check_partition_tiling,
    check_routing_complementarity,
    live_key_coverage,
)
from repro.workloads.datasets import workload_keys


def build_network(seed, n_peers=48, distribution="U"):
    rand = random.Random(seed)
    keys = [
        k
        for ks in workload_keys(distribution, n_peers, 8, seed=rand)
        for k in ks
    ]
    return PGridNetwork.ideal(keys, n_peers, d_max=40, n_min=3, rng=rand)


def random_event(net, rand, next_id):
    """Apply one randomly chosen churn/maintenance/membership event."""
    op = rand.choice(
        ["offline", "offline", "online", "repair", "sweep", "join", "mass-offline"]
    )
    pids = sorted(net.peers)
    if op == "offline":
        fail_peer(net, pids[rand.randrange(len(pids))])
    elif op == "online":
        revive_peer(net, pids[rand.randrange(len(pids))])
    elif op == "repair":
        repair_routes(net, rng=rand)
    elif op == "sweep":
        if net.online_count() >= 2:
            anti_entropy_sweep(net, rounds=1, rng=rand)
    elif op == "join":
        if net.online_count() >= 2:
            keys = [rand.randrange(MAX_KEY) for _ in range(8)]
            try:
                sequential_join(net, next_id(), keys, d_max=40, n_min=3, rng=rand)
            except Exception:
                pass  # join may fail under heavy churn; structure must hold
    elif op == "mass-offline":
        for pid in rand.sample(pids, len(pids) // 3):
            fail_peer(net, pid)
    return op


@pytest.mark.parametrize("seed", range(5))
def test_invariants_hold_through_generated_sequences(seed):
    net = build_network(seed)
    rand = random.Random(1000 + seed)
    counter = [max(net.peers) + 1]

    def next_id():
        counter[0] += 1
        return counter[0] - 1

    for _ in range(40):
        random_event(net, rand, next_id)
        # Structural invariants hold after *every* event.
        check_partition_tiling(net)
        check_routing_complementarity(net)

    # Coverage invariant: once everyone is back online and anti-entropy
    # converges, every key owned by a partition is live-covered and all
    # replicas agree.
    for pid in list(net.peers):
        revive_peer(net, pid)
    while anti_entropy_sweep(net, rounds=1, rng=rand) > 0:
        pass
    covered, total = live_key_coverage(net.peers)
    assert covered == total
    check_invariants(net, require_full_coverage=True)


@pytest.mark.parametrize("seed", range(3))
def test_coverage_never_lost_while_any_replica_lives(seed):
    """Keys owned by partitions with online members stay live-covered
    through pure churn (no inserts), because every replica holds its
    partition's keys from construction onward."""
    net = build_network(seed, n_peers=36)
    rand = random.Random(2000 + seed)
    for _ in range(30):
        pid = sorted(net.peers)[rand.randrange(len(net.peers))]
        if rand.random() < 0.6:
            fail_peer(net, pid)
        else:
            revive_peer(net, pid)
        covered, total = live_key_coverage(net.peers)
        assert covered == total


@pytest.mark.parametrize(
    "name", ["mass-join", "mass-leave", "paper-sec51-churn"]
)
def test_invariants_hold_after_library_scenarios(name):
    runner = ScenarioRunner(scenario(name, n_peers=48, seed=9, duration_scale=0.1))
    runner.run()
    net = runner.network
    check_partition_tiling(net)
    check_routing_complementarity(net)
    # The overlay's own structural self-check agrees.
    assert net.is_consistent()


def test_skewed_ideal_overlay_tiles_completely():
    """Empty-side leaves of Algorithm 1 must still be owned by a peer
    (the operational overlay leaves no key range unowned)."""
    net = build_network(7, n_peers=64, distribution="P0.5")
    check_partition_tiling(net)
    # Every possible key routes somewhere.
    rand = random.Random(3)
    for _ in range(50):
        res = net.lookup(rand.randrange(MAX_KEY), rng=rand)
        assert res.found


def test_tiling_check_detects_gaps():
    from repro.exceptions import PartitionError

    net = build_network(1, n_peers=24)
    # Manufacture a gap: remove every peer of one partition.
    groups = net.partitions()
    victim = sorted(groups)[0]
    for pid in groups[victim]:
        del net.peers[pid]
    with pytest.raises(PartitionError):
        check_partition_tiling(net)


def test_routing_check_detects_wrong_subtree():
    from repro.exceptions import RoutingError

    net = build_network(2, n_peers=24)
    peer = next(p for p in net.peers.values() if p.path.length >= 1)
    # Reference a peer from the *same* subtree at level 0 (violation).
    same_side = next(
        q.peer_id
        for q in net.peers.values()
        if q.peer_id != peer.peer_id and q.path.length >= 1
        and q.path.bit(0) == peer.path.bit(0)
    )
    peer.routing.levels[0] = [same_side]
    with pytest.raises(RoutingError):
        check_routing_complementarity(net)
