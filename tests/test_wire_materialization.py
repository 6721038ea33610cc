"""The wire overlay at t=0 is the ideal overlay.

Every message-backend scenario starts from the overlay
``PGridNetwork.ideal`` gives over the scenario's keys and build stream:
Algorithm 1's leaves, each peer holding its leaf's keys, replicas the
leaf's other peers, and randomized references into every complementary
subtree.  Here the population ``MessageScenarioRunner._setup`` leaves
behind, before the first event runs, is compared with that network node
by node: path, keys, original keys, replicas and routing levels in
order, with no liveness belief of any kind.

Both backends draw the references through one function,
``draw_references``; ``rebuild_routing`` as it was before the draw moved
there is kept below as the reference it must match, draw for draw,
through either path of the inlined ``random.sample``.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reference import reference_partition
from repro.pgrid.bits import Path
from repro.pgrid.keyspace import MAX_KEY
from repro.pgrid.mdim import ZOrderCodec
from repro.pgrid.network import PGridNetwork, build_overlay, draw_references
from repro.pgrid.routing import RoutingTable
from repro.scenarios import Phase, ScenarioSpec
from repro.scenarios.message_runner import MessageScenarioRunner
from repro.workloads.datasets import workload_keys

# -- the population at t=0 ------------------------------------------------------


class AtZero(MessageScenarioRunner):
    """Records the keys, the build stream and the population as ``_setup``
    leaves them, before any event runs."""

    def _setup(self, peer_keys, build_rng):
        self.build_state = build_rng.getstate()
        self.flat_keys = [k for keys in peer_keys for k in keys]
        super()._setup(peer_keys, build_rng)
        self.at_zero = {pid: node_state(node) for pid, node in self.nodes.items()}
        self.beliefs = {pid: beliefs(node.liveness) for pid, node in self.nodes.items()}


def node_state(node):
    return (
        node.path,
        set(node.keys),
        set(node.original_keys),
        set(node.replicas),
        [(level, list(refs)) for level, refs in node.routing.items()],
    )


def peer_state(peer):
    keys = set(peer.keys)
    levels = [(level, list(refs)) for level, refs in peer.routing.levels.items()]
    return peer.path, keys, keys, set(peer.replicas), levels


def beliefs(table):
    return (
        table.strikes, table.last_confirmed,
        table.confirm_interval, table.evicted_at, table._armed,
        table.suspects, table.probes, table.evictions, table.replacements,
        table.repair_bytes,
    )


NO_BELIEFS = ({}, {}, {}, {}, False, 0, 0, 0, 0, 0)


def captured(spec):
    runner = AtZero(spec)
    runner.run()
    return runner


def ideal_of(runner):
    spec = runner.spec
    build = random.Random()
    build.setstate(runner.build_state)
    return PGridNetwork.ideal(
        runner.flat_keys, spec.n_peers, d_max=spec.d_max, n_min=spec.n_min,
        max_refs=spec.max_refs, rng=build,
    )


def spec_of(n_peers, *, distribution="U", codec=None, max_refs=4, seed=7):
    return ScenarioSpec(
        name="at-zero",
        phases=(Phase(name="idle", duration_s=1.0, query_rate=0.0),),
        n_peers=n_peers,
        distribution=distribution,
        codec=codec,
        max_refs=max_refs,
        seed=seed,
    )


SPECS = {
    "U-64": spec_of(64),
    "U-300": spec_of(300, seed=11),
    "z-order-2d": spec_of(96, codec=ZOrderCodec(dims=2)),
    "skewed-N": spec_of(64, distribution="N", seed=3),
    "skewed-P0.5": spec_of(64, distribution="P0.5", seed=5),
    "max-refs-2": spec_of(80, max_refs=2),
    "max-refs-8": spec_of(80, max_refs=8),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_wire_population_at_zero_is_the_ideal_overlay(name):
    runner = captured(SPECS[name])
    net = ideal_of(runner)
    assert sorted(runner.at_zero) == sorted(net.peers) == list(range(runner.spec.n_peers))
    for pid, peer in net.peers.items():
        assert runner.at_zero[pid] == peer_state(peer), pid
        assert runner.beliefs[pid] == NO_BELIEFS, pid
    # The bound binds somewhere, so the draw's k < n branch is compared too.
    widest = max(len(refs) for state in runner.at_zero.values() for _, refs in state[4])
    assert widest == runner.spec.max_refs


@pytest.mark.parametrize("name", ["skewed-N", "skewed-P0.5"])
def test_skewed_layouts_cover_an_empty_leaf(name):
    # Algorithm 1 gives the empty side of a one-sided split no peer; the
    # layout lends it one, and the wire population holds that peer too.
    runner = captured(SPECS[name])
    spec = runner.spec
    reference = reference_partition(
        runner.flat_keys, spec.n_peers, d_max=spec.d_max, n_min=spec.n_min,
        integer_peers=True,
    )
    empty = {leaf.path for leaf in reference.leaves if leaf.n_peers == 0}
    assert empty
    covered = {state[0] for state in runner.at_zero.values()} & empty
    assert covered == empty


# -- the reference draw, as rebuild_routing drew it --------------------------------


def ref_rebuild_routing(net, rand, max_refs):
    """``PGridNetwork.rebuild_routing`` as it was, returning each peer's
    levels in dict order instead of installing them."""
    by_prefix = {}
    for peer in net.peers.values():
        bits, length = peer.path.bits, peer.path.length
        for n in range(length + 1):
            by_prefix.setdefault((n, bits >> (length - n)), []).append(peer.peer_id)
    randbelow = rand._randbelow
    fastdraw = type(rand)._randbelow is random.Random._randbelow
    getrandbits = rand.getrandbits
    setsizes = [
        21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
        for k in range(max_refs + 1)
    ]
    plans = {}
    tables = []
    for peer in net.peers.values():
        bits, length = peer.path.bits, peer.path.length
        plan = plans.get((length, bits))
        if plan is None:
            plan = plans[(length, bits)] = []
            for level in range(length):
                candidates = by_prefix.get((level + 1, (bits >> (length - 1 - level)) ^ 1))
                if not candidates:
                    continue
                n = len(candidates)
                k = max_refs if n > max_refs else n
                plan.append((level, candidates, n, k, n <= setsizes[k], n.bit_length()))
        table = RoutingTable(max_refs_per_level=max_refs)
        levels = table.levels
        for level, candidates, n, k, use_pool, nbits_n in plan:
            result = [None] * k
            if use_pool:
                pool = list(candidates)
                for i in range(k):
                    m = n - i
                    if fastdraw:
                        nbits = m.bit_length()
                        j = getrandbits(nbits)
                        while j >= m:
                            j = getrandbits(nbits)
                    else:
                        j = randbelow(m)
                    result[i] = pool[j]
                    pool[j] = pool[m - 1]
            else:
                selected = set()
                for i in range(k):
                    if fastdraw:
                        j = getrandbits(nbits_n)
                        while j >= n:
                            j = getrandbits(nbits_n)
                    else:
                        j = randbelow(n)
                    while j in selected:
                        if fastdraw:
                            j = getrandbits(nbits_n)
                            while j >= n:
                                j = getrandbits(nbits_n)
                        else:
                            j = randbelow(n)
                    selected.add(j)
                    result[i] = candidates[j]
            levels[level] = result
        tables.append(levels)
    return tables


class SlowDraw(random.Random):
    """Overrides ``_randbelow`` (delegating to it): the draw then goes
    through it instead of straight to ``getrandbits``."""

    def _randbelow(self, n):
        return super()._randbelow(n)


def ordered(tables):
    return [list(levels.items()) for levels in tables]


def check_draw(net, seed, max_refs):
    """The shared draw, and rebuild_routing over it, against the
    reference: the same tables in the same order, through either draw
    path, leaving the stream where the reference left it."""
    members = [(peer.peer_id, peer.path) for peer in net.peers.values()]
    reference = random.Random(seed)
    expected = ordered(ref_rebuild_routing(net, reference, max_refs))
    for kind in (random.Random, SlowDraw):
        rand = kind(seed)
        assert ordered(draw_references(members, rng=rand, max_refs=max_refs)) == expected
        assert rand.getstate() == reference.getstate()
    rand = random.Random(seed)
    net.rebuild_routing(rng=rand, max_refs=max_refs)
    tables = [peer.routing for peer in net.peers.values()]
    assert ordered(table.levels for table in tables) == expected
    assert {table.max_refs_per_level for table in tables} <= {max_refs}
    assert rand.getstate() == reference.getstate()
    return expected


@st.composite
def key_lists(draw):
    """Keys spread over the whole space or packed into a corner of it
    (deep tries, empty-side leaves)."""
    top = draw(st.sampled_from((MAX_KEY - 1, 1 << 20, 64)))
    return draw(st.lists(st.integers(0, top), max_size=80))


@given(
    key_lists(),
    st.integers(1, 60),
    st.sampled_from((1, 3, 10, 40)),
    st.integers(1, 3),
    st.integers(1, 9),
    st.integers(0, 2**31),
)
@settings(derandomize=True, max_examples=150, deadline=None)
def test_draw_is_rebuild_routing_on_ideal_overlays(keys, n_peers, d_max, n_min, max_refs, seed):
    net = PGridNetwork.ideal(keys, n_peers, d_max=d_max, n_min=n_min, rng=1)
    check_draw(net, seed, max_refs)


@given(
    st.integers(16, 32),
    st.sampled_from(("U", "P1.0", "N")),
    st.integers(0, 2**31),
    st.integers(1, 9),
    st.data(),
)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_draw_is_rebuild_routing_on_constructed_overlays(n_peers, label, seed, max_refs, data):
    # The parallel construction leaves replica groups of unequal sizes;
    # dropping peers makes the ids non-contiguous, and re-inserting the
    # rest in a drawn order changes the member order the draw follows.
    keys = workload_keys(label, n_peers, 5, seed=seed)
    net = build_overlay(keys, rng=seed)
    kept = data.draw(st.lists(st.sampled_from(sorted(net.peers)), unique=True, min_size=1))
    net.peers = {pid: net.peers[pid] for pid in kept}
    check_draw(net, seed, max_refs)


@pytest.mark.parametrize("kind", [random.Random, SlowDraw])
def test_each_level_draws_what_random_sample_draws(kind):
    # One member at path 0 and n under path 1: its only level is
    # random.sample of the n, through whichever branch CPython takes --
    # both sides of the pool/set threshold at every k included; then
    # each of the n samples the one member at path 0.
    for k in range(1, 10):
        for n in range(1, 100):
            members = [(0, Path.from_string("0"))]
            members += [(i, Path.from_string("1")) for i in range(1, n + 1)]
            rand, model = kind(n * 100 + k), random.Random(n * 100 + k)
            expected = [{0: model.sample(range(1, n + 1), min(k, n))}]
            expected += [{0: model.sample([0], 1)} for _ in range(n)]
            assert draw_references(members, rng=rand, max_refs=k) == expected
            assert rand.getstate() == model.getstate()


def test_one_draw_takes_both_sampling_branches():
    # random.sample swaps through a pool while the population is at most
    # 21 + 4 ** ceil(log4(3k)) -- 85 at k = 9 -- and rejects repeats
    # from a set above that; one overlay with subtrees on both sides.
    keys = list(range(0, MAX_KEY, MAX_KEY // 600))
    net = PGridNetwork.ideal(keys, 200, d_max=10, n_min=2, rng=2)
    paths = [peer.path for peer in net.peers.values()]
    sizes = {
        sum(1 for other in paths if comp.is_prefix_of(other))
        for path in paths
        for comp in (path.prefix(level).extend(1 - path.bit(level)) for level in range(path.length))
    }
    assert max(sizes) > 85 >= min(sizes)
    check_draw(net, 5, 9)
