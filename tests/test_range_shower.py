"""One shower step for both backends, and what it guarantees.

``pgrid.search.split_range`` cuts a range at a peer's path: the peer's
own slice, and one sub-range per complementary subtree the range
intersects.  The data plane's ``_shower`` recurses on those pieces and
the wire node sends one ``range_query`` per sub-range.  Three
properties, each a ``hypothesis`` search:

* the pieces are pairwise disjoint and tile ``[lo, hi)`` exactly, each
  inside the subtree it is sent to -- so a shower neither loses nor
  repeats a key;
* on a quiescent wire (no loss, constant latency, no churn, every peer
  online), a range finds exactly the keys the data plane's
  ``range_query`` finds over the same overlay (ROADMAP item 1(c), for
  ranges);
* a box query (a random box of 1-3 dimensions, showered over its
  z-span) finds exactly the keys a brute-force ``box_contains`` scan
  finds, on the data plane and on a quiescent wire, and reaches exactly
  the partitions the box meets.

Tier-1 runs 200, 40 and 40 examples; the nightly workflow runs all
three at ``REPRO_FUZZ_EXAMPLES=5000``.
"""

import os
import random

from hypothesis import given, settings, strategies as st

from repro.pgrid.bits import Path
from repro.pgrid.keyspace import KEY_BITS, MAX_KEY, float_to_key
from repro.pgrid.mdim import ZOrderCodec
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


def quiescent_pair(seed, n_peers, keys):
    """The ideal overlay over ``keys``, and a wire copy of it: same ids,
    paths, keys and references, every node online, no loss, constant
    latency, no churn."""
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
        rand = random.Random(seed)
        keys = [float_to_key(rand.random()) for _ in range(n_keys)]
        plane, sim, nodes = quiescent_pair(seed, n_peers, keys)
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


@st.composite
def boxes(draw):
    """A z-order codec of 1-3 dimensions and an inclusive cell box with
    sides from one cell to the whole dimension."""
    codec = ZOrderCodec(dims=draw(st.integers(1, 3)))
    lo_cells, hi_cells = [], []
    for _ in range(codec.dims):
        side = 1 << draw(st.integers(0, codec.bits_per_dim))
        lo = draw(st.integers(0, codec.cells_per_dim - side))
        lo_cells.append(lo)
        hi_cells.append(lo + draw(st.integers(0, side - 1)))
    return codec, tuple(lo_cells), tuple(hi_cells)


class TestBoxShower:
    @settings(derandomize=True, max_examples=int(FUZZ_EXAMPLES or 40), deadline=None)
    @given(
        drawn=boxes(),
        seed=st.integers(0, 2**32 - 1),
        n_peers=st.integers(2, 48),
        n_keys=st.integers(0, 160),
        n_inside=st.integers(0, 20),
        pick=st.integers(0, 10**6),
    )
    def test_both_backends_find_exactly_the_box_keys(
        self, drawn, seed, n_peers, n_keys, n_inside, pick
    ):
        codec, lo_cells, hi_cells = drawn
        box = codec.box(lo_cells, hi_cells)
        rand = random.Random(seed)
        keys = codec.encode_many([rand.random() for _ in range(n_keys * codec.dims)])
        keys += [
            codec.interleave([rand.randint(lo, hi) for lo, hi in zip(lo_cells, hi_cells)])
            << codec.pad_bits
            for _ in range(n_inside)
        ]
        expected = {k for k in keys if codec.box_contains(k, lo_cells, hi_cells)}
        plane, sim, nodes = quiescent_pair(seed, n_peers, keys)
        met = {
            peer.path for peer in plane.peers.values()
            if box.meets(*peer.path.key_range(KEY_BITS))
        }
        origin = nodes[sorted(nodes)[pick % len(nodes)]]
        result = range_query(plane, *box.span, start=origin.node_id, rng=seed, box=box)
        assert result.complete and result.keys == expected
        assert result.partitions == met  # no partition outside the box answers
        outcomes, pieces = [], []
        send = origin.network.send

        def recording(src, dst, kind, payload, **kw):
            if kind == "range_query":
                pieces.append((payload["lo"], payload["hi"]))
            return send(src, dst, kind, payload, **kw)

        origin.network.send = recording
        origin.on_range_done = lambda nid, qid, out: outcomes.append(out)
        origin.issue_range_query(*box.span, box)
        sim.run_until(60.0)
        (out,) = outcomes
        assert out.success and (out.attempts, out.timeouts) == (1, 0)
        assert set(out.found_keys) == expected
        assert out.partitions == len(met)
        assert all(box.meets(*piece) for piece in pieces)  # no subtree outside the box
