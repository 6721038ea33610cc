"""Tests for binary paths over the bisected key space."""

import pytest

from repro.pgrid.bits import Path, ROOT


class TestConstruction:
    def test_root_is_empty(self):
        assert len(ROOT) == 0
        assert ROOT.interval() == (0.0, 1.0)

    def test_from_string_round_trip(self):
        for text in ["0", "1", "0110", "111000111"]:
            assert str(Path.from_string(text)) == text

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            Path.from_string("01x")
        with pytest.raises(ValueError):
            Path(bits=4, length=2)  # 100 does not fit in 2 bits
        with pytest.raises(ValueError):
            Path(bits=0, length=-1)

    def test_immutable(self):
        p = Path.from_string("01")
        with pytest.raises(AttributeError):
            p.length = 3


class TestStructure:
    def test_extend_and_parent(self):
        p = Path.from_string("01")
        assert str(p.extend(1)) == "011"
        assert str(p.extend(1).parent()) == "01"
        with pytest.raises(ValueError):
            ROOT.parent()

    def test_sibling(self):
        assert str(Path.from_string("010").sibling()) == "011"
        with pytest.raises(ValueError):
            ROOT.sibling()

    def test_prefix(self):
        p = Path.from_string("0110")
        assert str(p.prefix(2)) == "01"
        assert p.prefix(0) == ROOT
        with pytest.raises(ValueError):
            p.prefix(5)

    def test_bit_indexing(self):
        p = Path.from_string("0110")
        assert [p.bit(i) for i in range(4)] == [0, 1, 1, 0]
        assert list(p) == [0, 1, 1, 0]
        with pytest.raises(IndexError):
            p.bit(4)

    def test_is_prefix_of(self):
        a = Path.from_string("01")
        b = Path.from_string("0110")
        assert a.is_prefix_of(b)
        assert not b.is_prefix_of(a)
        assert ROOT.is_prefix_of(a)
        assert a.is_prefix_of(a)

    def test_common_prefix_length(self):
        a = Path.from_string("0110")
        b = Path.from_string("0101")
        assert a.common_prefix_length(b) == 2
        assert a.common_prefix_length(a) == 4
        assert ROOT.common_prefix_length(a) == 0


class TestDerivedPaths:
    """``extend``, ``prefix``, ``parent`` and ``sibling`` skip the
    constructor's checks; their results must be indistinguishable from
    validated paths."""

    SOURCES = [ROOT] + [Path.from_string(s) for s in ("0", "1", "0110", "111000111")]

    def derived(self):
        for p in self.SOURCES:
            for bit in (0, 1):
                yield p.extend(bit), (p.bits << 1) | bit, p.length + 1
            for n in range(p.length + 1):
                yield p.prefix(n), p.bits >> (p.length - n), n
            if p.length:
                yield p.parent(), p.bits >> 1, p.length - 1
                yield p.sibling(), p.bits ^ 1, p.length

    def test_equal_hash_equal_and_order_equal_to_validated_paths(self):
        derived = list(self.derived())
        for path, bits, length in derived:
            checked = Path(bits, length)
            assert type(path) is Path
            assert (path.bits, path.length) == (bits, length)
            assert path == checked and not path != checked
            assert hash(path) == hash(checked)
            assert not path < checked and not checked < path
        assert sorted(p for p, _, _ in derived) == sorted(Path(b, n) for _, b, n in derived)

    def test_derived_paths_stay_immutable(self):
        for path, _, _ in self.derived():
            with pytest.raises(AttributeError):
                path.length = 3
            with pytest.raises(AttributeError):
                path.bits = 0
            with pytest.raises(AttributeError):
                path.extra = 1

    def test_out_of_range_arguments_still_raise(self):
        for p in self.SOURCES:
            with pytest.raises(ValueError):
                p.extend(2)
            with pytest.raises(ValueError):
                p.prefix(-1)
            with pytest.raises(ValueError):
                p.prefix(p.length + 1)


class TestGeometry:
    def test_interval_tiling(self):
        # All depth-3 paths tile [0, 1) exactly.
        paths = sorted(Path(bits, 3) for bits in range(8))
        edges = [p.interval() for p in paths]
        assert edges[0][0] == 0.0
        assert edges[-1][1] == 1.0
        for (_, hi), (lo, _) in zip(edges, edges[1:]):
            assert hi == lo

    def test_key_range_and_contains(self):
        p = Path.from_string("10")
        lo, hi = p.key_range(4)
        assert (lo, hi) == (8, 12)
        assert p.contains_key(9, 4)
        assert not p.contains_key(12, 4)
        with pytest.raises(ValueError):
            Path.from_string("10101").key_range(4)

    def test_ordering_matches_interval_order(self):
        paths = [Path.from_string(s) for s in ["0", "00", "01", "1", "10", "11"]]
        ordered = sorted(paths, key=lambda p: (p.interval()[0], p.length))
        assert sorted(paths) == ordered

    def test_hashable_and_equal(self):
        assert Path.from_string("01") == Path.from_string("01")
        assert len({Path.from_string("01"), Path.from_string("01")}) == 1
        assert Path.from_string("01") != Path.from_string("010")
