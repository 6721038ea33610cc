"""Hot-path shortcuts against the plain code they replace.

Each shortcut here exists only to make a routed hop or a report cheaper;
each must give the same answer as the obvious version kept in this file
(and, where it draws, leave the RNG in the same state):

* ``pgrid.search.level_toward`` -- one XOR for the level a key leaves a
  path through, on every routed hop of both backends -- against a
  bit-by-bit scan on ``bit_at``;
* ``RoutingTable.choose`` -- ``_randbelow`` -- against
  ``refs[make_rng(rng).randrange(len(refs))]``;
* the report's ``links`` block -- a partial sort -- against the two full
  sorts ``_message_section`` used to make.
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro._util import make_rng, mean
from repro.pgrid.bits import ROOT, Path
from repro.pgrid.keyspace import KEY_BITS, MAX_KEY, bit_at
from repro.pgrid.routing import RoutingTable
from repro.pgrid.search import level_toward
from repro.scenarios.message_runner import _link_summary

# -- the level a key leaves through -------------------------------------------


def ref_level(path: Path, key: int):
    """First level at which ``key``'s bit differs from ``path``'s, by
    scanning the path bit by bit; ``None`` if there is none."""
    for level in range(path.length):
        if bit_at(key, level) != path.bit(level):
            return level
    return None


@st.composite
def paths_and_keys(draw):
    length = draw(st.integers(0, KEY_BITS))
    bits = draw(st.integers(0, (1 << length) - 1))
    key = draw(st.integers(0, MAX_KEY - 1))
    # Copy the path's first ``agree`` bits into the key, so keys inside
    # the partition and keys leaving it at every level are all common.
    agree = draw(st.integers(0, length))
    if agree:
        low = KEY_BITS - agree
        key = ((bits >> (length - agree)) << low) | (key & ((1 << low) - 1))
    return Path(bits, length), key


@given(case=paths_and_keys())
@example(case=(ROOT, 0))
@example(case=(ROOT, MAX_KEY - 1))
@example(case=(Path.from_string("1"), 0))
@example(case=(Path.from_string("0" * KEY_BITS), 1))
@example(case=(Path.from_string("1" * KEY_BITS), MAX_KEY - 1))
@settings(derandomize=True, max_examples=500, deadline=None)
def test_level_toward_is_the_first_differing_bit(case):
    path, key = case
    level = level_toward(path, key)
    assert level == ref_level(path, key)
    assert (level is None) == path.contains_key(key, KEY_BITS)


# -- one draw per pick ----------------------------------------------------------


@given(
    levels=st.dictionaries(
        st.integers(0, 5), st.lists(st.integers(1, 9), max_size=6, unique=True)
    ),
    exclude=st.sets(st.integers(1, 9)),
    seed=st.integers(0, 2**32 - 1),
    asked=st.lists(st.integers(0, 6), min_size=1, max_size=12),
)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_choose_draws_what_randrange_draws(levels, exclude, seed, asked):
    table = RoutingTable(max_refs_per_level=6)
    table.install(levels)
    ours, theirs = random.Random(seed), random.Random(seed)
    for level in asked:
        refs = table.levels.get(level)
        expected = None
        if refs:
            refs = [r for r in refs if r not in exclude] or refs
            expected = refs[make_rng(theirs).randrange(len(refs))]
        assert table.choose(level, ours, exclude) == expected
    assert ours.getstate() == theirs.getstate()  # draw for draw


# -- the report's link summary --------------------------------------------------


def ref_link_summary(links):
    """The ``links`` block as ``_message_section`` built it with two
    full sorts."""
    link_sizes = sorted(links.values())
    top = sorted(links.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    return {
        "used": len(links),
        "max_bytes": link_sizes[-1] if link_sizes else 0,
        "mean_bytes": mean(link_sizes) if link_sizes else 0.0,
        "top": [[src, dst, size] for (src, dst), size in top],
    }


# Few distinct sizes (header-only messages dominate real tables), so
# ties at and around the fifth-largest size are the common case.
_sizes = st.sampled_from([100, 108, 120, 200, 216]) | st.integers(1, 10**6)
_links = st.dictionaries(
    st.tuples(st.integers(0, 30), st.integers(0, 30)), _sizes, max_size=60
)


@given(links=_links)
@example(links={})
@example(links={(3, 1): 100})
@example(links={(2, 1): 100, (1, 2): 100, (0, 9): 100, (5, 5): 100})
@example(links={(i, j): 100 for i in range(4) for j in range(4)})
@example(links={(i, 0): 100 + (i % 3) for i in range(20)})
@settings(derandomize=True, max_examples=400, deadline=None)
def test_link_summary_equals_the_full_sorts(links):
    ours = _link_summary(links)
    theirs = ref_link_summary(links)
    assert ours == theirs
    assert list(ours) == list(theirs)  # key order: the report's JSON order
    assert type(ours["mean_bytes"]) is float
