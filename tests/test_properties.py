"""Property-based tests (hypothesis) on core data structures/invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.core.construction import (
    ConstructionConfig,
    ConstructionPeer,
    _compare,
    _Construction,
    _positions,
    _reframe,
)
from repro.core.estimators import (
    estimate_partition_keys,
    estimate_replica_count,
    estimate_split_fraction,
    partition_keys_from_overlap,
    replica_count_from_overlap,
)
from repro.core.probabilities import (
    P_STAR,
    alpha_of_p,
    beta_of_p,
    p_of_alpha,
    p_of_beta,
    t_star,
)
from repro.core.reference import reference_partition
from repro.pgrid.bits import ROOT, Path
from repro.pgrid.keyspace import KEY_BITS, MAX_KEY, bit_at, float_to_key, string_to_key

paths = st.builds(
    lambda bits: Path.from_string("".join(map(str, bits))),
    st.lists(st.integers(0, 1), min_size=0, max_size=20),
)

keys = st.integers(min_value=0, max_value=MAX_KEY - 1)


class TestPathProperties:
    @given(paths)
    def test_string_round_trip(self, p):
        if p.length:
            assert Path.from_string(str(p)) == p

    @given(paths, st.integers(0, 1))
    def test_extend_parent_inverse(self, p, bit):
        assert p.extend(bit).parent() == p

    @given(paths)
    def test_sibling_involution(self, p):
        if p.length:
            assert p.sibling().sibling() == p

    @given(paths, paths)
    def test_prefix_relation_matches_interval_containment(self, a, b):
        a_lo, a_hi = a.interval()
        b_lo, b_hi = b.interval()
        if a.is_prefix_of(b):
            assert a_lo <= b_lo and b_hi <= a_hi
        elif not b.is_prefix_of(a):  # disjoint partitions
            assert a_hi <= b_lo or b_hi <= a_lo

    @given(paths, paths)
    def test_common_prefix_symmetry(self, a, b):
        assert a.common_prefix_length(b) == b.common_prefix_length(a)

    @given(paths, keys)
    def test_contains_key_matches_key_range(self, p, key):
        lo, hi = p.key_range(KEY_BITS)
        assert p.contains_key(key, KEY_BITS) == (lo <= key < hi)


class TestKeyspaceProperties:
    @given(st.floats(min_value=0.0, max_value=0.9999999, allow_nan=False))
    def test_float_key_monotone(self, x):
        k = float_to_key(x)
        assert 0 <= k < MAX_KEY

    @given(
        st.floats(min_value=0.0, max_value=0.999999, allow_nan=False),
        st.floats(min_value=0.0, max_value=0.999999, allow_nan=False),
    )
    def test_order_preserved(self, a, b):
        if a <= b:
            assert float_to_key(a) <= float_to_key(b)

    @given(st.text(alphabet="abcdefghij", max_size=12),
           st.text(alphabet="abcdefghij", max_size=12))
    def test_string_encoding_monotone(self, a, b):
        if a <= b:
            assert string_to_key(a) <= string_to_key(b)

    @given(keys)
    def test_bits_consistent_with_prefix(self, key):
        for level in range(8):
            assert bit_at(key, level) in (0, 1)


class TestProbabilityProperties:
    @given(st.floats(min_value=P_STAR + 1e-6, max_value=0.5))
    def test_beta_round_trip(self, p):
        assert abs(p_of_beta(beta_of_p(p)) - p) < 1e-8

    @given(st.floats(min_value=1e-4, max_value=P_STAR - 1e-6))
    def test_alpha_round_trip(self, p):
        assert abs(p_of_alpha(alpha_of_p(p)) - p) < 1e-8

    @given(st.floats(min_value=1e-3, max_value=0.5))
    def test_t_star_at_least_ln2(self, p):
        assert t_star(p) >= math.log(2.0) - 1e-9


class TestEstimatorProperties:
    @given(st.sets(keys, min_size=1, max_size=60))
    def test_identical_sets_anchor(self, key_set):
        assert estimate_replica_count(key_set, key_set, 5) == 5.0

    @given(st.sets(keys, min_size=1, max_size=50),
           st.sets(keys, min_size=1, max_size=50))
    def test_replica_estimate_at_least_one(self, a, b):
        est = estimate_replica_count(a, b, 3)
        assert est >= 1.0 or math.isinf(est)

    @given(st.lists(keys, min_size=1, max_size=100))
    def test_split_fraction_in_unit_interval(self, key_list):
        frac = estimate_split_fraction(key_list, 0)
        assert 0.0 <= frac <= 1.0


# Keys crowded under the first six levels of the trie, so that short
# random paths select partitions holding several of them.
crowded_keys = st.builds(
    lambda top, low: (top << (KEY_BITS - 6)) | low,
    st.integers(0, 63),
    st.integers(0, 7),
)
key_sets = st.sets(crowded_keys, max_size=40)
path_bits = st.lists(st.integers(0, 1), max_size=6)


def framed(*sets):
    """A construction engine holding nothing but the universe of ``sets``."""
    peers = [ConstructionPeer(peer_id=0, keys=set().union(*sets))]
    state = _Construction(peers, ConstructionConfig(), None)
    state.frame_keys()
    return state


def walk(state, bits):
    """``(path, frame)`` reached from the root the way the engine gets
    there: one ``_lower_width`` per level."""
    path, (offset, end) = ROOT, (0, len(state.universe))
    for bit in bits:
        mid = offset + state._lower_width(path, offset, end)
        offset, end = (offset, mid) if bit == 0 else (mid, end)
        path = path.extend(bit)
    return path, (offset, end)


def inside(key_set, path):
    return {k for k in key_set if path.contains_key(k, KEY_BITS)}


def unpack(state, bitmap, frame):
    return {state.universe[frame[0] + i] for i in _positions(bitmap)}


class TestKeyBitmapProperties:
    """The construction engine's framed bitmaps against the plain-set model."""

    @given(key_sets, path_bits)
    def test_frame_is_the_partition_slice_of_the_universe(self, a, bits):
        state = framed(a)
        path, (offset, end) = walk(state, bits)
        assert state.universe[offset:end] == sorted(inside(a, path))

    @given(key_sets, key_sets, path_bits)
    def test_pack_round_trip(self, a, others, bits):
        state = framed(a, others)
        path, frame = walk(state, bits)
        bitmap = state._pack(inside(a, path), *frame)
        assert bitmap.bit_count() == len(inside(a, path))
        assert unpack(state, bitmap, frame) == inside(a, path)

    @given(key_sets, key_sets, path_bits, path_bits)
    def test_reframe_between_nested_and_disjoint_frames(self, a, others, bits, more):
        state = framed(a, others)
        outer, outer_frame = walk(state, bits)
        inner, inner_frame = walk(state, bits + more)
        in_outer = state._pack(inside(a, outer), *outer_frame)
        in_inner = state._pack(inside(a, inner), *inner_frame)
        # narrowing keeps the inner partition's keys, widening keeps all
        assert _reframe(in_outer, outer_frame[0], *inner_frame) == in_inner
        widened = _reframe(in_inner, inner_frame[0], *outer_frame)
        assert unpack(state, widened, outer_frame) == inside(a, inner)
        # ... which is the shift a decided peer's keys take into an
        # undecided peer's frame
        assert widened == in_inner << (inner_frame[0] - outer_frame[0])
        if inner.length:
            _, sibling_frame = walk(state, list(inner.sibling()))
            assert _reframe(in_inner, inner_frame[0], *sibling_frame) == 0

    @given(key_sets, key_sets, path_bits)
    def test_split_halves_and_count_below(self, a, others, bits):
        state = framed(a, others)
        path, frame = walk(state, bits)
        here = inside(a, path)
        bitmap = state._pack(here, *frame)
        lower = state._lower_width(path, *frame)
        low, high = bitmap & ((1 << lower) - 1), bitmap >> lower
        child0, frame0 = walk(state, bits + [0])
        child1, frame1 = walk(state, bits + [1])
        assert frame0 == (frame[0], frame[0] + lower)
        assert frame1 == (frame[0] + lower, frame[1])
        assert unpack(state, low, frame0) == inside(a, child0)
        assert unpack(state, high, frame1) == inside(a, child1)
        if here:
            assert low.bit_count() / len(here) == estimate_split_fraction(here, path.length)

    @given(key_sets, key_sets, path_bits, st.integers(1, 8))
    def test_compare_and_estimator_cores(self, a, b, bits, n_min):
        state = framed(a, b)
        path, frame = walk(state, bits)
        a, b = inside(a, path), inside(b, path)
        peer = state.peers[0]
        union, seen = _compare(peer, peer, state._pack(a, *frame), state._pack(b, *frame))
        assert unpack(state, union, frame) == a | b
        assert (seen.size_a, seen.size_b, seen.overlap) == (len(a), len(b), len(a & b))
        assert seen.total == len(a | b)
        assert replica_count_from_overlap(
            seen.size_a, seen.size_b, seen.overlap, n_min
        ) == estimate_replica_count(a, b, n_min)
        assert partition_keys_from_overlap(
            seen.size_a, seen.size_b, seen.overlap
        ) == estimate_partition_keys(a, b)


class TestReferencePartitionProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(keys, min_size=2, max_size=300),
        st.integers(min_value=10, max_value=200),
    )
    def test_peers_conserved_and_leaves_tile(self, key_list, n_peers):
        ref = reference_partition(key_list, n_peers, d_max=20, n_min=2)
        assert abs(ref.total_peers - n_peers) < 1e-6
        intervals = sorted(leaf.path.interval() for leaf in ref.leaves)
        assert intervals[0][0] == 0.0
        assert intervals[-1][1] == 1.0
        for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
            assert hi == lo

    @settings(max_examples=25, deadline=None)
    @given(st.lists(keys, min_size=5, max_size=200))
    def test_keys_partitioned_exactly_once(self, key_list):
        ref = reference_partition(key_list, 50, d_max=15, n_min=2)
        assert ref.total_keys == len(set(key_list))
