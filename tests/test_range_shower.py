"""One shower step for both backends, and what it guarantees.

``pgrid.search.split_range`` cuts a range at a peer's path: the peer's
own slice, and one sub-range per complementary subtree the range
intersects.  The data plane's ``_shower`` recurses on those pieces and
the wire node sends one ``range_query`` per sub-range.  Two properties,
each a ``hypothesis`` search:

* the pieces are pairwise disjoint and tile ``[lo, hi)`` exactly, each
  inside the subtree it is sent to -- so a shower neither loses nor
  repeats a key;
* on a quiescent wire (no loss, constant latency, no churn, every peer
  online), a range finds exactly the keys the data plane's
  ``range_query`` finds over the same overlay (ROADMAP item 1(c), for
  ranges).

Tier-1 runs 200 and 40 examples; the nightly workflow runs both at
``REPRO_FUZZ_EXAMPLES=5000``.
"""

import os
import random

from hypothesis import given, settings, strategies as st

from repro.pgrid.bits import Path
from repro.pgrid.keyspace import KEY_BITS, MAX_KEY, float_to_key
from repro.pgrid.network import PGridNetwork
from repro.pgrid.search import range_query, split_range
from repro.simnet.engine import Simulator
from repro.simnet.node import NodeConfig, PGridNode
from repro.simnet.transport import ConstantLatency, Network

#: Examples per property; the nightly workflow raises it to 5,000.
FUZZ_EXAMPLES = os.environ.get("REPRO_FUZZ_EXAMPLES")


@st.composite
def cuts(draw):
    """A path and a range ``[lo, hi)``; the bounds are drawn near the
    path's own subtree boundaries about half the time."""
    path = Path.from_string(draw(st.text("01", max_size=24)))
    marks = [0, MAX_KEY]
    for level in range(path.length + 1):
        marks.extend(path.prefix(level).key_range(KEY_BITS))
    bound = st.one_of(
        st.integers(0, MAX_KEY),
        st.sampled_from(marks).flatmap(
            lambda m: st.integers(max(m - 2, 0), min(m + 2, MAX_KEY))
        ),
    )
    lo, hi = sorted((draw(bound), draw(bound)))
    return path, lo, hi


class TestSplitRangeTiles:
    @settings(derandomize=True, max_examples=int(FUZZ_EXAMPLES or 200), deadline=None)
    @given(cuts())
    def test_pieces_are_disjoint_and_tile_the_range(self, cut):
        path, lo, hi = cut
        own, subs = split_range(path, lo, hi)
        pieces = [own] if own is not None else []
        levels = []
        for level, sub_lo, sub_hi in subs:
            sibling = path.prefix(level).extend(1 - path.bit(level))
            c_lo, c_hi = sibling.key_range(KEY_BITS)
            assert c_lo <= sub_lo < sub_hi <= c_hi  # inside the subtree sent to
            pieces.append((sub_lo, sub_hi))
            levels.append(level)
        assert levels == sorted(set(levels))  # one per level, ascending
        if own is not None:
            p_lo, p_hi = path.key_range(KEY_BITS)
            assert p_lo <= own[0] < own[1] <= p_hi
        # Sorted, each piece starts where the previous one ended: pairwise
        # disjoint, no gap, and the union is exactly [lo, hi).
        cursor = lo
        for start, end in sorted(pieces):
            assert start == cursor and end > start
            cursor = end
        assert cursor == hi


def quiescent_pair(seed, n_peers, n_keys):
    """The ideal overlay over ``n_keys`` random keys, and a wire copy
    of it: same ids, paths, keys and references, every node online, no
    loss, constant latency, no churn."""
    rand = random.Random(seed)
    keys = [float_to_key(rand.random()) for _ in range(n_keys)]
    plane = PGridNetwork.ideal(keys, n_peers, d_max=8, n_min=2, rng=seed)
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01), loss_rate=0.0, rng=seed)
    nodes = {}
    for pid, peer in plane.peers.items():
        node = nodes[pid] = PGridNode(pid, sim, net, config=NodeConfig(), rng=pid + 1)
        node.path = peer.path
        node.keys = set(peer.keys)
        node.joined = True
        node.routing = peer.routing.levels
    return plane, sim, nodes


class TestWireMatchesDataPlane:
    @settings(derandomize=True, max_examples=int(FUZZ_EXAMPLES or 40), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_peers=st.integers(2, 48),
        n_keys=st.integers(0, 160),
        # (origin pick, lo, span exponent): spans from the whole key
        # space down to 2**-24 of it.
        queries=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, MAX_KEY), st.integers(0, 24)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_every_range_finds_the_data_plane_keys(self, seed, n_peers, n_keys, queries):
        plane, sim, nodes = quiescent_pair(seed, n_peers, n_keys)
        outcomes = {}
        expected = {}
        ids = sorted(nodes)
        for pick, lo, shift in queries:
            hi = min(lo + (MAX_KEY >> shift), MAX_KEY)
            origin = nodes[ids[pick % len(ids)]]
            origin.on_range_done = lambda nid, qid, out: outcomes.setdefault((nid, qid), out)
            qid = origin.issue_range_query(lo, hi)
            result = range_query(plane, lo, hi, start=origin.node_id, rng=seed)
            assert result.complete
            expected[(origin.node_id, qid)] = result.keys
        sim.run_until(60.0)
        assert outcomes.keys() == expected.keys()
        for op, out in outcomes.items():
            assert out.success and (out.attempts, out.timeouts) == (1, 0)
            assert set(out.found_keys) == expected[op]
