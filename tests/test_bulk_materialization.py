"""Bulk overlay materialization against the plain code it replaces.

The path from a raw data set to the ideal overlay runs in bulk: one batch
z-order encode per key set, one sort per overlay, one binary search per
leaf boundary.  Each kernel must give what the per-item version kept in
this file gave:

* ``ZOrderCodec.encode_many`` -- one loop over a flat float list --
  against ``encode`` as it was: a byte-at-a-time spread per cell and a
  ``min`` clamp, called once per point;
* ``_zcode`` -- two chunk-table lookups per cell -- against that byte
  loop;
* ``workload_keys`` with a codec against the tuples ``sample_points``
  used to build from the same draws, and the scenario join wave against
  a digest taken with them;
* ``PGridNetwork.ideal``'s dealing -- a slice per leaf -- against one
  ``bisect_right`` per key over the leaf boundaries;
* ``reference_partition`` against its private sorted entry.

It also pins the out-of-range fix: such keys no longer steer Algorithm 1.
"""

import hashlib
import math
import random
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.reference import _partition, reference_partition
from repro.exceptions import DomainError, PartitionError
from repro.pgrid.keyspace import KEY_BITS, MAX_KEY
from repro.pgrid.mdim import ZOrderCodec, _tables, _wide, _zcode
from repro.pgrid.network import PGridNetwork
from repro.scenarios import Phase, ScenarioSpec
from repro.scenarios.runner import ScenarioRunner
from repro.workloads.datasets import workload_keys
from repro.workloads.distributions import distribution

# -- the encoder as it was ------------------------------------------------------


def ref_zcode(cells, dims):
    """Interleave cell indices a byte at a time."""
    spread, _, _ = _tables(dims)
    step = 8 * dims
    z = 0
    for q in cells:
        wide = spread[q & 255]
        shift = step
        q >>= 8
        while q:
            wide |= spread[q & 255] << shift
            shift += step
            q >>= 8
        z = (z << 1) | wide
    return z


def ref_encode(codec, point):
    d = codec.dims
    bits = KEY_BITS // d
    cells, top = 1 << bits, (1 << bits) - 1
    quantized = []
    for x in point:
        if not 0.0 <= x < 1.0:
            raise DomainError(f"attribute value must lie in [0, 1), got {x!r}")
        quantized.append(min(int(x * cells), top))
    return ref_zcode(quantized, d) << (KEY_BITS - d * bits)


def points_of(flat, d):
    return [tuple(flat[i * d : (i + 1) * d]) for i in range(len(flat) // d)]


DIMS = (1, 2, 3, 4)


@st.composite
def codec_and_flat(draw):
    """A codec and whole points of attributes in [0, 1), edge floats
    (zero, the largest float below one, exact cell boundaries and their
    neighbours) mixed in with arbitrary ones."""
    codec = ZOrderCodec(dims=draw(st.sampled_from(DIMS)))
    cells = codec.cells_per_dim
    boundary = st.integers(0, cells - 1).map(lambda k: k / cells)
    attribute = st.one_of(
        st.just(0.0),
        st.just(math.nextafter(1.0, 0.0)),
        boundary,
        boundary.map(lambda x: math.nextafter(x, 1.0)),
        boundary.filter(bool).map(lambda x: math.nextafter(x, 0.0)),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    n = draw(st.integers(0, 8))
    return codec, draw(st.lists(attribute, min_size=n * codec.dims, max_size=n * codec.dims))


@given(codec_and_flat())
@example((ZOrderCodec(dims=2), [0.0, math.nextafter(1.0, 0.0)]))
@example((ZOrderCodec(dims=1), [math.nextafter(1.0, 0.0), 0.5, 0.0]))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_encode_many_is_the_old_encode_per_point(drawn):
    codec, flat = drawn
    expected = [ref_encode(codec, p) for p in points_of(flat, codec.dims)]
    assert codec.encode_many(flat) == expected
    assert [codec.encode(p) for p in points_of(flat, codec.dims)] == expected


BAD = (-1e-300, -0.5, 1.0, 1.5, math.inf, -math.inf, math.nan)


@given(codec_and_flat(), st.sampled_from(BAD), st.data())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_encode_many_names_the_offending_value(drawn, bad, data):
    codec, flat = drawn
    flat = flat + [0.25] * codec.dims
    flat[data.draw(st.integers(0, len(flat) - 1))] = bad
    with pytest.raises(DomainError) as old:
        [ref_encode(codec, p) for p in points_of(flat, codec.dims)]
    with pytest.raises(DomainError) as new:
        codec.encode_many(flat)
    assert str(new.value) == str(old.value)
    assert repr(bad) in str(new.value)


@pytest.mark.parametrize("dims", [2, 3])
def test_encode_many_rejects_a_partial_point(dims):
    codec = ZOrderCodec(dims=dims)
    with pytest.raises(DomainError):
        codec.encode_many([0.5] * (2 * dims + 1))


@given(st.sampled_from((1, 2, 3, 4, 5, 7, 13, 26, 53)), st.data())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_zcode_is_the_byte_loop(dims, data):
    top = (1 << (KEY_BITS // dims)) - 1
    cells = data.draw(
        st.lists(
            st.one_of(st.integers(0, top), st.sampled_from((0, top))),
            min_size=dims,
            max_size=dims,
        )
    )
    assert _zcode(cells, dims) == ref_zcode(cells, dims)


def test_chunk_table_is_small_and_one_dimension_builds_none():
    assert isinstance(_wide(1), range)
    for dims in range(2, KEY_BITS + 1):
        assert len(_wide(dims)) == 1 << min(13, KEY_BITS // dims) <= 8192


@pytest.mark.parametrize("label", ["U", "P1.0", "N", "A"])
@pytest.mark.parametrize("dims", [2, 3])
def test_workload_keys_draw_what_sample_points_drew(label, dims):
    codec = ZOrderCodec(dims=dims)
    rand = random.Random(17)
    flat = distribution(label).sample_floats(40 * 3 * dims, rand)
    expected = [codec.encode(p) for p in points_of(flat, dims)]
    got = workload_keys(label, 40, 3, seed=17, codec=codec)
    assert [k for keys in got for k in keys] == expected


def test_join_wave_keys_are_what_sample_points_gave(monkeypatch):
    # The digest was taken with the join wave encoding sample_points
    # tuples one at a time; no other test runs a join wave on z-order keys.
    joined = []
    original = ScenarioRunner._join

    def spy(self, pid, keys, rng, tally):
        joined.append(list(keys))
        return original(self, pid, keys, rng, tally)

    monkeypatch.setattr(ScenarioRunner, "_join", spy)
    for dims in (2, 3):
        phases = (Phase(name="a", duration_s=5.0), Phase(name="b", duration_s=5.0, join_peers=6))
        ScenarioRunner(
            ScenarioSpec(name="mdim-joins", phases=phases, n_peers=32, codec=ZOrderCodec(dims=dims), seed=3)
        ).run()
    assert [len(keys) for keys in joined] == [8] * 12
    assert hashlib.sha256(repr(joined).encode()).hexdigest() == (
        "9712f3f79ed8b21ab90ed864eb197d8e9ad20cc70ed99c6278afc7d7c27d27a9"
    )


# -- Algorithm 1 and the dealing, as they were ---------------------------------


def ref_dealing(keys, n_peers, d_max, n_min):
    """Leaf path -> keys, by one ``bisect_right`` per key."""
    reference = reference_partition(keys, n_peers, d_max=d_max, n_min=n_min, integer_peers=True)
    boundaries = [leaf.path.key_range(KEY_BITS)[0] for leaf in reference.leaves]
    leaf_keys = [[] for _ in reference.leaves]
    for key in sorted(set(keys)):
        leaf_keys[bisect_right(boundaries, key) - 1].append(key)
    return {leaf.path: lkeys for leaf, lkeys in zip(reference.leaves, leaf_keys)}


@st.composite
def key_lists(draw):
    """Keys with duplicates, spread over the whole space or packed into a
    corner of it (deep tries, empty-side leaves)."""
    top = draw(st.sampled_from((MAX_KEY - 1, 1 << 20, 64)))
    distinct = draw(st.lists(st.integers(0, top), max_size=80))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=40)) if distinct else []
    return draw(st.permutations(distinct + repeats))


@given(
    key_lists(),
    st.integers(1, 40),
    st.sampled_from((1, 3, 10, 40)),
    st.integers(1, 3),
)
@settings(derandomize=True, max_examples=150, deadline=None)
def test_ideal_deals_what_bisect_per_key_dealt(keys, n_peers, d_max, n_min):
    net = PGridNetwork.ideal(keys, n_peers, d_max=d_max, n_min=n_min, rng=3)
    dealt = ref_dealing(keys, n_peers, d_max, n_min)
    for peer in net.peers.values():
        assert list(peer.keys) == dealt[peer.path]


@given(key_lists(), st.integers(1, 60), st.booleans())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_reference_partition_is_the_sorted_entry(keys, n_peers, integer_peers):
    args = dict(d_max=5, n_min=2, integer_peers=integer_peers)
    assert (
        reference_partition(keys, n_peers, **args).leaves
        == _partition(sorted(set(keys)), n_peers, **args).leaves
    )


# -- keys outside the key space -------------------------------------------------


def overlay_state(net):
    return {
        pid: (peer.path, list(peer.keys), peer.replicas, peer.routing.levels)
        for pid, peer in net.peers.items()
    }


def test_reference_partition_names_the_first_out_of_range_key():
    keys = [2**40, 2**50, MAX_KEY + 5, MAX_KEY + 9]
    with pytest.raises(PartitionError, match=f"key {MAX_KEY + 5} out of range"):
        reference_partition(keys, 8, d_max=1, n_min=1)
    with pytest.raises(PartitionError, match="key -3 out of range"):
        reference_partition([5, -3, -9], 8, d_max=1, n_min=1)


def test_out_of_range_keys_do_not_steer_the_partition():
    # They once counted toward the upper half: 56 leaves down to depth 53,
    # and six of the eight peers holding no key.
    keys = [2**40, 2**50]
    net = PGridNetwork.ideal(keys + [MAX_KEY + 5, MAX_KEY + 9], 8, d_max=1, n_min=1, rng=4)
    assert overlay_state(net) == overlay_state(
        PGridNetwork.ideal(keys, 8, d_max=1, n_min=1, rng=4)
    )
    reference = reference_partition(keys, 8, d_max=1, n_min=1, integer_peers=True)
    assert (len(reference.leaves), reference.depth) == (4, 3)
    assert sorted(leaf.n_peers for leaf in reference.leaves) == [0, 0, 4, 4]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ideal_ignores_out_of_range_keys(seed):
    rand = random.Random(seed)
    keys = [rand.randrange(MAX_KEY) for _ in range(300)]
    out_of_range = [-1, -MAX_KEY, MAX_KEY, MAX_KEY + 7, 1 << 60]
    kwargs = dict(d_max=20, n_min=3, rng=seed)
    assert overlay_state(PGridNetwork.ideal(keys + out_of_range, 40, **kwargs)) == overlay_state(
        PGridNetwork.ideal(keys, 40, **kwargs)
    )
