"""Multi-dimensional keyspace: z-order codec, box decomposition, scenarios.

Four layers:

* **Codec properties**: quantize/interleave round trips for d in
  {2, 3, 4}, prefix containment (a z-trie node's cell block is an
  axis-aligned box, so prefix membership implies box membership), and
  the litmax/bigmin decomposition invariants -- exact decompositions
  (checked against brute-force cell enumeration on SMALL boxes; exact
  splitting is intractable for wide boxes at 2^26 cells per dimension)
  and the budgeted over-cover guarantee.
* **Kernels against the reference**: the bit-loop ``interleave`` /
  ``deinterleave`` and the tuple-bounds ``box_ranges`` that
  :mod:`repro.pgrid.mdim` shipped before its table and clipped-corner
  kernels live on here as the oracle; Hypothesis compares them with the
  shipped code for d in {1, 2, 3, 4, 7, 53} and budgets in {1, 2, 3, 5,
  16, 64}, and checks the properties the module docstring promises.
* **Spec plumbing**: ``QueryMix.box_spans`` validation through
  ``ScenarioSpec.validate``.  (The batch encoder and the draws it is fed
  are held against the code they replaced in
  ``tests/test_bulk_materialization.py``.)
* **Scenario acceptance**: the two library mdim scenarios replay
  byte-identically per backend, report ``box_recall == 1.0`` on the
  quiet ``geo-box-serving`` run, and count the partitions per box.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DomainError, SimulationError
from repro.pgrid.keyspace import KEY_BITS, MAX_KEY
from repro.pgrid.mdim import DEFAULT_SPLIT_BUDGET, ZOrderCodec
from repro.scenarios import (
    Phase,
    QueryMix,
    ScenarioSpec,
    run_scenario,
    scenario,
)
from repro.workloads.queries import QuerySampler


def brute_force_cells(codec, lo_cells, hi_cells):
    """Every key in the box, by direct cell enumeration (small boxes)."""
    cells = [range(lo, hi + 1) for lo, hi in zip(lo_cells, hi_cells)]
    out = set()

    def rec(prefix):
        j = len(prefix)
        if j == codec.dims:
            out.add(codec.interleave(prefix) << codec.pad_bits)
            return
        for q in cells[j]:
            rec(prefix + (q,))

    rec(())
    return out


def keys_of_ranges(ranges, pad_bits):
    """All cell-aligned keys covered by half-open key ranges."""
    step = 1 << pad_bits
    out = set()
    for lo, hi in ranges:
        out.update(range(lo, hi, step))
    return out


def random_small_box(codec, rng, max_side=8):
    lo_cells, hi_cells = [], []
    for _ in range(codec.dims):
        lo = rng.randrange(codec.cells_per_dim - max_side)
        lo_cells.append(lo)
        hi_cells.append(lo + rng.randrange(1, max_side))
    return tuple(lo_cells), tuple(hi_cells)


class TestZOrderCodec:
    @pytest.mark.parametrize("dims", [2, 3, 4])
    def test_round_trip_cells(self, dims):
        codec = ZOrderCodec(dims=dims)
        rng = random.Random(dims)
        for _ in range(200):
            point = tuple(rng.random() for _ in range(dims))
            key = codec.encode(point)
            assert 0 <= key < MAX_KEY
            cells = codec.cells_of(key)
            assert cells == tuple(codec.quantize(x) for x in point)
            # The decoded representative lands back in the same cell.
            assert codec.cells_of(codec.encode(codec.decode(key))) == cells

    @pytest.mark.parametrize("dims", [2, 3, 4])
    def test_interleave_bijective(self, dims):
        codec = ZOrderCodec(dims=dims)
        rng = random.Random(100 + dims)
        for _ in range(200):
            cells = tuple(
                rng.randrange(codec.cells_per_dim) for _ in range(dims)
            )
            assert codec.deinterleave(codec.interleave(cells)) == cells

    def test_geometry_fields(self):
        codec = ZOrderCodec(dims=2)
        assert codec.bits_per_dim == KEY_BITS // 2 == 26
        assert codec.pad_bits == KEY_BITS - 2 * 26 == 1
        assert codec.name == "z2"
        three = ZOrderCodec(dims=3)
        assert three.bits_per_dim == 17
        assert three.pad_bits == 2

    def test_invalid_configuration_rejected(self):
        with pytest.raises(DomainError):
            ZOrderCodec(dims=0)
        with pytest.raises(DomainError):
            ZOrderCodec(dims=KEY_BITS + 1)

    def test_encode_rejects_out_of_domain(self):
        codec = ZOrderCodec(dims=2)
        with pytest.raises(DomainError):
            codec.encode((0.5, 1.0))
        with pytest.raises(DomainError):
            codec.encode((0.5,))

    @pytest.mark.parametrize("dims", [2, 3])
    def test_prefix_containment_implies_box_containment(self, dims):
        """Every key sharing a z-trie node's prefix lies in the node's
        axis-aligned cell box -- the property that makes prefix routing
        serve box queries at all."""
        codec = ZOrderCodec(dims=dims)
        rng = random.Random(7 + dims)
        for _ in range(50):
            cells = tuple(
                rng.randrange(codec.cells_per_dim) for _ in range(dims)
            )
            key = codec.interleave(cells) << codec.pad_bits
            depth = rng.randrange(1, dims * codec.bits_per_dim)
            # The node's box: per-dimension bounds from fixing the top
            # depth interleaved bits and freeing the rest.
            lo_cells, hi_cells = [], []
            for j in range(dims):
                fixed = max(0, (depth - j + dims - 1) // dims)
                free = codec.bits_per_dim - fixed
                lo = (cells[j] >> free) << free
                lo_cells.append(lo)
                hi_cells.append(lo + (1 << free) - 1)
            # Sample keys with the same interleaved prefix.
            width = dims * codec.bits_per_dim
            prefix = codec.interleave(cells) >> (width - depth)
            for _ in range(20):
                suffix = rng.randrange(1 << (width - depth))
                other = ((prefix << (width - depth)) | suffix) << codec.pad_bits
                got = codec.cells_of(other)
                assert all(
                    lo_cells[j] <= got[j] <= hi_cells[j] for j in range(dims)
                ), "prefix sibling escaped the node's box"
            assert codec.box_contains(key, tuple(lo_cells), tuple(hi_cells))


class TestBoxDecomposition:
    @pytest.mark.parametrize("dims", [2, 3])
    def test_exact_cover_on_small_boxes(self, dims):
        """Unbudgeted decomposition covers exactly the box's cells."""
        codec = ZOrderCodec(dims=dims)
        rng = random.Random(31 + dims)
        for _ in range(12):
            lo_cells, hi_cells = random_small_box(codec, rng, max_side=6)
            ranges = codec.box_ranges(lo_cells, hi_cells, 10**9)
            assert ranges == sorted(ranges)
            # Disjoint, merged, half-open.
            for (alo, ahi), (blo, bhi) in zip(ranges, ranges[1:]):
                assert alo < ahi
                assert ahi < blo  # adjacent ranges would have merged
            covered = keys_of_ranges(ranges, codec.pad_bits)
            assert covered == brute_force_cells(codec, lo_cells, hi_cells)

    def test_split_count_bounded_by_box_perimeter(self):
        """Litmax/bigmin bound: an exact 2-D decomposition of an
        axis-aligned box needs O(side) ranges -- for small boxes, never
        more than 4 * (width + height) and never fewer than 1."""
        codec = ZOrderCodec(dims=2)
        rng = random.Random(53)
        for _ in range(20):
            lo_cells, hi_cells = random_small_box(codec, rng, max_side=32)
            ranges = codec.box_ranges(lo_cells, hi_cells, 10**9)
            w = hi_cells[0] - lo_cells[0] + 1
            h = hi_cells[1] - lo_cells[1] + 1
            assert 1 <= len(ranges) <= 4 * (w + h)

    @pytest.mark.parametrize("budget", [1, 2, 4, 8, 16])
    def test_budget_respected_and_never_undercovers(self, budget):
        codec = ZOrderCodec(dims=2)
        rng = random.Random(budget)
        for _ in range(10):
            lo_cells, hi_cells = random_small_box(codec, rng, max_side=8)
            ranges = codec.box_ranges(lo_cells, hi_cells, budget)
            assert 1 <= len(ranges) <= budget
            # Over-cover is allowed (recall stays 1.0), under-cover not.
            # Tight budgets emit huge enclosing intervals, so check by
            # membership instead of enumerating the covered keys.
            for key in brute_force_cells(codec, lo_cells, hi_cells):
                assert any(lo <= key < hi for lo, hi in ranges)

    def test_budget_fast_on_huge_boxes(self):
        """Wide boxes (intractable exactly) still decompose instantly
        under a budget -- the property the scenarios rely on."""
        codec = ZOrderCodec(dims=2)
        lo_cells, hi_cells = codec.box_cells((0.1, 0.2), (0.4, 0.9))
        ranges = codec.box_ranges(lo_cells, hi_cells)
        assert 1 <= len(ranges) <= DEFAULT_SPLIT_BUDGET

    def test_box_cells_excludes_aligned_upper_bound(self):
        codec = ZOrderCodec(dims=2)
        lo_cells, hi_cells = codec.box_cells((0.0, 0.0), (0.5, 0.5))
        assert lo_cells == (0, 0)
        # Half-open [0, 0.5) must not include the cell starting at 0.5.
        assert hi_cells == (codec.cells_per_dim // 2 - 1,) * 2


# -- reference oracle: the kernels as they were before the tables ---------


def ref_interleave(codec, cells):
    """One bit per iteration, most-significant first, cycling dimensions."""
    z = 0
    for bit in range(codec.bits_per_dim - 1, -1, -1):
        for q in cells:
            z = (z << 1) | ((q >> bit) & 1)
    return z


def ref_deinterleave(codec, z):
    d, b = codec.dims, codec.bits_per_dim
    cells = [0] * d
    for bit in range(b):
        chunk = z >> ((b - 1 - bit) * d)
        for j in range(d):
            cells[j] = (cells[j] << 1) | ((chunk >> (d - 1 - j)) & 1)
    return tuple(cells)


def ref_box_ranges(codec, lo_cells, hi_cells, max_ranges=None):
    """Litmax/bigmin over trie nodes carried as per-dimension bounds,
    one node per level: no chain jump, the budget tested at every node."""
    budget = DEFAULT_SPLIT_BUDGET if max_ranges is None else max_ranges
    d, b, pad = codec.dims, codec.bits_per_dim, codec.pad_bits
    top = codec.cells_per_dim - 1
    total_bits = d * b
    out = []

    def emit(lo, hi):
        if out and out[-1][1] == lo:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))

    stack = [(0, 0, tuple(zip((0,) * d, (top,) * d)))]
    while stack:
        depth, prefix, bounds = stack.pop()
        inside = all(
            lo_cells[j] <= bounds[j][0] and bounds[j][1] <= hi_cells[j]
            for j in range(d)
        )
        width = total_bits - depth
        node_lo = prefix << (width + pad)
        node_hi = (prefix + 1) << (width + pad)
        if inside or depth == total_bits:
            emit(node_lo, node_hi)
            continue
        if len(out) + len(stack) + 2 > budget:
            emit(node_lo, node_hi)
            continue
        j = depth % d
        n_lo, n_hi = bounds[j]
        mid = (n_lo + n_hi) // 2
        for side in (1, 0):
            if side == 0:
                child = bounds[:j] + ((n_lo, mid),) + bounds[j + 1 :]
            else:
                child = bounds[:j] + ((mid + 1, n_hi),) + bounds[j + 1 :]
            c_lo, c_hi = child[j]
            if c_hi < lo_cells[j] or c_lo > hi_cells[j]:
                continue
            stack.append((depth + 1, (prefix << 1) | side, child))
    return out


DIMS = (1, 2, 3, 4, 7, 53)
BUDGETS = (1, 2, 3, 5, 16, 64)
codecs = st.builds(ZOrderCodec, dims=st.sampled_from(DIMS))


@st.composite
def codec_and_cells(draw):
    codec = draw(codecs)
    cell = st.integers(0, codec.cells_per_dim - 1)
    return codec, tuple(draw(cell) for _ in range(codec.dims))


@st.composite
def codec_and_box(draw, brute_force=False):
    """A codec and an inclusive cell box with sides from one cell to the
    whole dimension -- or, for brute force, of at most 4**4 cells."""
    codec = draw(codecs)
    d, bits, cells = codec.dims, codec.bits_per_dim, codec.cells_per_dim
    wide = draw(st.sets(st.integers(0, d - 1), max_size=4))
    lo_cells, hi_cells = [], []
    for j in range(d):
        if brute_force:
            side = min(cells, 4 if j in wide else 1)
        else:
            side = 1 << draw(st.integers(0, bits))
        lo = draw(st.integers(0, cells - side))
        lo_cells.append(lo)
        hi_cells.append(lo + draw(st.integers(0, side - 1)))
    return codec, tuple(lo_cells), tuple(hi_cells)


class TestKernelsAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(codec_and_cells())
    def test_interleave_matches_bit_loop_and_round_trips(self, drawn):
        codec, cells = drawn
        z = codec.interleave(cells)
        assert z == ref_interleave(codec, cells)
        assert codec.deinterleave(z) == ref_deinterleave(codec, z) == cells

    @settings(max_examples=300, deadline=None)
    @given(codec_and_cells(), st.data())
    def test_spread_preserves_order_per_dimension(self, drawn, data):
        """Raising one dimension's cell raises the z-value: what lets
        ``box_contains`` compare one dimension's bits in place."""
        codec, cells = drawn
        j = data.draw(st.integers(0, codec.dims - 1))
        other = data.draw(st.integers(0, codec.cells_per_dim - 1))
        moved = cells[:j] + (other,) + cells[j + 1 :]
        z, z_moved = codec.interleave(cells), codec.interleave(moved)
        assert (z < z_moved) == (cells[j] < other)
        assert (z == z_moved) == (cells[j] == other)

    @settings(max_examples=400, deadline=None)
    @given(codec_and_box(), st.sampled_from((None,) + BUDGETS))
    def test_box_ranges_match_tuple_bounds_reference(self, drawn, max_ranges):
        codec, lo_cells, hi_cells = drawn
        ranges = codec.box_ranges(lo_cells, hi_cells, max_ranges)
        assert ranges == ref_box_ranges(codec, lo_cells, hi_cells, max_ranges)
        # Ascending, disjoint, merged, within the budget, cell-aligned.
        assert 1 <= len(ranges) <= (max_ranges or DEFAULT_SPLIT_BUDGET)
        for lo, hi in ranges:
            assert 0 <= lo < hi <= MAX_KEY
            assert lo % (1 << codec.pad_bits) == hi % (1 << codec.pad_bits) == 0
        for (_, ahi), (blo, _) in zip(ranges, ranges[1:]):
            assert ahi < blo  # adjacent ranges would have merged

    @settings(max_examples=400, deadline=None)
    @given(codec_and_box(brute_force=True), st.data())
    def test_meets_is_true_exactly_where_the_exact_cover_is(self, drawn, data):
        """``ZBox.meets`` holds for a key interval exactly when it
        overlaps the exact decomposition -- drawn near its bounds."""
        codec, lo_cells, hi_cells = drawn
        box, pad = codec.box(lo_cells, hi_cells), codec.pad_bits
        ranges = codec.box_ranges(lo_cells, hi_cells, 10**9)
        marks = [bound for r in ranges for bound in r]
        near = st.sampled_from(marks).flatmap(
            lambda m: st.integers(max(m - (3 << pad), 0), min(m + (3 << pad), MAX_KEY))
        )
        lo, hi = sorted((data.draw(near), data.draw(near)))
        assert box.meets(lo, hi) == any(max(lo, a) < min(hi, b) for a, b in ranges)
        span_lo, span_hi = box.span
        assert box.meets(span_lo, span_hi)
        assert not box.meets(0, span_lo) and not box.meets(span_hi, MAX_KEY)

    @settings(max_examples=300, deadline=None)
    @given(codec_and_box(), st.data())
    def test_contains_matches_box_contains(self, drawn, data):
        codec, lo_cells, hi_cells = drawn
        box, pad = codec.box(lo_cells, hi_cells), codec.pad_bits
        cells = tuple(
            data.draw(st.integers(max(lo - 2, 0), min(hi + 2, codec.cells_per_dim - 1)))
            for lo, hi in zip(lo_cells, hi_cells)
        )
        key = codec.interleave(cells) << pad | data.draw(st.integers(0, (1 << pad) - 1))
        assert box.contains(key) == codec.box_contains(key, lo_cells, hi_cells)
        span_lo, span_hi = box.span
        assert not box.contains(key) or span_lo <= key < span_hi

    @settings(max_examples=200, deadline=None)
    @given(codec_and_box(brute_force=True))
    def test_ranges_never_undercover(self, drawn):
        codec, lo_cells, hi_cells = drawn
        ranges = codec.box_ranges(lo_cells, hi_cells)
        assert ranges == ref_box_ranges(codec, lo_cells, hi_cells)
        for key in brute_force_cells(codec, lo_cells, hi_cells):
            assert any(lo <= key < hi for lo, hi in ranges)

    @settings(max_examples=400, deadline=None)
    @given(codec_and_box(), st.data())
    def test_box_contains_matches_cells_of(self, drawn, data):
        codec, lo_cells, hi_cells = drawn
        top = codec.cells_per_dim - 1
        # A cell at most two off the box per dimension, so both answers
        # occur; the pad bits below it must not matter.
        cells = tuple(
            data.draw(st.integers(max(0, lo - 2), min(top, hi + 2)))
            for lo, hi in zip(lo_cells, hi_cells)
        )
        pad = data.draw(st.integers(0, (1 << codec.pad_bits) - 1))
        key = (codec.interleave(cells) << codec.pad_bits) | pad
        assert codec.cells_of(key) == cells
        assert codec.box_contains(key, lo_cells, hi_cells) == all(
            lo <= q <= hi for lo, q, hi in zip(lo_cells, cells, hi_cells)
        )


class TestArityAndDomain:
    """Wrong-length points and bounds are rejected at every entry point,
    for scalar codecs too (``dims=1`` used to read ``point[0]`` and
    ignore the rest)."""

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_encode_rejects_wrong_arity(self, dims):
        codec = ZOrderCodec(dims=dims)
        for n in (dims - 1, dims + 1, dims + 2):
            with pytest.raises(DomainError):
                codec.encode((0.5,) * n)

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_interleave_rejects_wrong_arity(self, dims):
        codec = ZOrderCodec(dims=dims)
        for n in (dims - 1, dims + 1):
            with pytest.raises(DomainError):
                codec.interleave((0,) * n)

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_box_ranges_rejects_wrong_arity(self, dims):
        codec = ZOrderCodec(dims=dims)
        good = (0,) * dims
        for n in (dims - 1, dims + 1):
            with pytest.raises(DomainError):
                codec.box_ranges((0,) * n, good)
            with pytest.raises(DomainError):
                codec.box_ranges(good, (0,) * n)

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_box_contains_rejects_wrong_arity(self, dims):
        codec = ZOrderCodec(dims=dims)
        good = (0,) * dims
        for n in (dims - 1, dims + 1):
            with pytest.raises(DomainError):
                codec.box_contains(0, (0,) * n, good)
            with pytest.raises(DomainError):
                codec.box_contains(0, good, (0,) * n)

    def test_box_contains_rejects_out_of_range_key_and_cells(self):
        codec = ZOrderCodec(dims=2)
        top = codec.cells_per_dim - 1
        for key in (-1, MAX_KEY):
            with pytest.raises(DomainError):
                codec.box_contains(key, (0, 0), (top, top))
        with pytest.raises(DomainError):
            codec.box_contains(0, (0, 0), (top, top + 1))
        with pytest.raises(DomainError):
            codec.box_contains(0, (-1, 0), (top, top))

    def test_box_ranges_rejects_invalid_bounds_and_budget(self):
        codec = ZOrderCodec(dims=2)
        top = codec.cells_per_dim - 1
        for lo_cells, hi_cells in (((3, 0), (2, 5)), ((0, 0), (top + 1, 0)), ((-1, 0), (0, 0))):
            with pytest.raises(DomainError):
                codec.box_ranges(lo_cells, hi_cells)
        with pytest.raises(DomainError):
            codec.box_ranges((0, 0), (1, 1), max_ranges=0)


class TestSpecPlumbing:
    def test_box_spans_requires_mdim_codec(self):
        with pytest.raises(DomainError):
            QuerySampler(range_weight=1.0, box_spans=(0.1, 0.1))
        spec = ScenarioSpec(
            name="x",
            phases=(
                Phase(
                    name="p",
                    duration_s=10.0,
                    mix=QueryMix(range_weight=1.0, box_spans=(0.1, 0.1)),
                ),
            ),
        )
        with pytest.raises(SimulationError):
            spec.validate()

    def test_box_spans_arity_checked_against_codec(self):
        spec = ScenarioSpec(
            name="x",
            phases=(
                Phase(
                    name="p",
                    duration_s=10.0,
                    mix=QueryMix(range_weight=1.0, box_spans=(0.1, 0.1, 0.1)),
                ),
            ),
            codec=ZOrderCodec(dims=2),
        )
        with pytest.raises(SimulationError):
            spec.validate()

    def test_mdim_spec_validates_and_scales(self):
        spec = scenario("geo-box-serving", n_peers=64, duration_scale=0.1)
        assert spec.codec == ZOrderCodec(dims=2)
        spec.validate()


class TestMdimScenarios:
    @pytest.fixture(scope="class")
    def reports(self):
        out = {}
        for name in ("geo-box-serving", "correlated-hotspot-2d"):
            spec = scenario(name, n_peers=64, seed=5, duration_scale=0.05)
            for backend in ("dataplane", "message"):
                out[(name, backend)] = run_scenario(spec, backend=backend)
        return out

    @pytest.mark.parametrize("name", ["geo-box-serving", "correlated-hotspot-2d"])
    @pytest.mark.parametrize("backend", ["dataplane", "message"])
    def test_mdim_section_present_and_bounded(self, reports, name, backend):
        m = reports[(name, backend)].mdim
        assert m is not None
        assert m["dims"] == 2
        assert m["boxes"] > 0
        assert m["partitions_per_box_mean"] >= 1
        assert m["partitions_per_box_p90"] >= 1
        assert len(m["selectivity_per_dim"]) == 2

    @pytest.mark.parametrize("backend", ["dataplane", "message"])
    def test_quiet_geo_serving_has_perfect_recall(self, reports, backend):
        """Acceptance: no churn/writes/maintenance -> every box query
        must return exactly the oracle's keys."""
        m = reports[("geo-box-serving", backend)].mdim
        assert m["recall_expected"] > 0
        assert m["box_recall"] == 1.0
        assert m["box_success_rate"] == 1.0

    def test_skewed_spans_show_in_selectivity(self, reports):
        # Only the storm's boxes are skewed (box_spans=(0.10, 0.004));
        # calm and cooldown draw range_span on both sides.  So the
        # selectivity a dimension must show is the per-phase mix of the
        # spans, weighted by each phase's boxes -- not a fixed ratio,
        # which moves with how many boxes each phase happens to draw.
        spec = scenario("correlated-hotspot-2d", n_peers=64, seed=5, duration_scale=0.05)
        report = reports[("correlated-hotspot-2d", "dataplane")]
        m = report.mdim
        boxes = [phase["range_queries"] for phase in report.phases]
        assert sum(boxes) == m["boxes"]  # every range of a 2-D spec is a box
        storm = [p.mix.box_spans is not None for p in spec.phases].index(True)
        assert boxes[storm] > 0
        spans = [p.mix.box_spans or (p.mix.range_span,) * 2 for p in spec.phases]
        # A side of span s covers at least s/cell and at most s/cell + 2
        # whole cells (the cells its two ends fall into count whole); one
        # cell of slack below absorbs float rounding.
        cell = 1.0 / spec.codec.cells_per_dim
        sel = m["selectivity_per_dim"]
        for dim in (0, 1):
            want = sum(n * side[dim] for n, side in zip(boxes, spans)) / m["boxes"]
            assert want - cell <= sel[dim] <= want + 2 * cell
        wide, narrow = spans[storm]
        assert sel[0] - sel[1] >= boxes[storm] / m["boxes"] * (wide - narrow) - 3 * cell

    @pytest.mark.parametrize("name", ["geo-box-serving", "correlated-hotspot-2d"])
    @pytest.mark.parametrize("backend", ["dataplane", "message"])
    def test_deterministic_replay(self, name, backend):
        def one():
            spec = scenario(name, n_peers=48, seed=3, duration_scale=0.04)
            return run_scenario(spec, backend=backend).to_json()

        assert one() == one()

    def test_scalar_reports_carry_no_mdim_section(self):
        spec = scenario("uniform-baseline", n_peers=32, seed=2, duration_scale=0.05)
        report = run_scenario(spec)
        assert report.mdim is None
        assert "mdim" not in json.loads(report.to_json())
