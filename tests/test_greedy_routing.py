"""One reference-ranking rule for both backends.

:func:`repro.pgrid.search.closest_ref` is the step every greedy hop
takes: the wire's :meth:`ReferenceTable.pick` feeds it the known paths
(``path_of``; its cases, unknown paths and suspects included, are
``PICK_CASES`` in ``tests/test_liveness.py``), the data plane's
:func:`alive_ref` the oracle's peers (``peers``).  Pinned here:

* the rule through the data plane, table-driven: the ranking cases, and
  the references it passes over (offline, or unknown to the network);
* what a data-plane pick draws: one ``_randbelow`` on a tie, nothing
  otherwise;
* **backend agreement**: the same references, exact paths and key give
  references of equal rank -- the best one -- on both backends;
* over ideal overlays (``U`` and ``P1.0``), a greedy lookup reaches the
  brute-force owner in at most as many hops as the owner's path has
  bits.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.pgrid.bits import Path
from repro.pgrid.keyspace import KEY_BITS, MAX_KEY
from repro.pgrid.liveness import ReferenceTable
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.pgrid.routing import RoutingTable
from repro.pgrid.search import alive_ref, lookup
from repro.workloads.datasets import workload_keys

OWNER = 0


def key_in(bits):
    """The lowest key under the path ``bits``."""
    return Path.from_string(bits).key_range(KEY_BITS)[0]


def rank(path, key):
    """What a reference is worth toward ``key``, spelled out: a path the
    key is inside ranks above every partial match, deeper first; a
    partial match ranks by the bits it shares."""
    shared = 0
    while shared < path.length and path.bit(shared) == (key >> (KEY_BITS - 1 - shared)) & 1:
        shared += 1
    return (1, path.length) if shared == path.length else (0, shared)


# -- the rule on the data plane ----------------------------------------------------


def dataplane_pick(level, key, paths, rng, offline=(), missing=()):
    """:func:`alive_ref` at ``level`` of an owner whose references there
    are ``paths``' keys, with those paths."""
    net = PGridNetwork()
    net.peers[OWNER] = PGridPeer(OWNER, routing=RoutingTable(levels={level: list(paths)}))
    for ref, path in paths.items():
        if ref not in missing:
            net.peers[ref] = PGridPeer(ref, path=path, online=ref not in offline)
    picked = alive_ref(net, net.peers[OWNER], level, key, rng)
    return None if picked is None else picked.peer_id


def as_paths(known):
    return {ref: Path.from_string(p) for ref, p in known.items()}


#: (case, level, key path, {ref: path}, the refs that may win).  The
#: owner's path is all zeros, so a reference at ``level`` lives under
#: ``"0" * level + "1"``.
RANKING_CASES = [
    ("the deepest path the key is inside wins",
     0, "10110", {1: "10", 2: "1011", 3: "1"}, {2}),
    ("a path the key is inside beats any partial match",
     0, "10110", {1: "101111", 2: "10"}, {2}),
    ("the longer partial match wins",
     0, "10110", {1: "111", 2: "100", 3: "1010"}, {3}),
    ("equal matches tie",
     1, "0110", {1: "0111", 2: "0111", 3: "010"}, {1, 2}),
    ("paths the key is inside at equal depth tie",
     2, "00110", {4: "0011", 5: "0011", 6: "00111"}, {4, 5}),
    ("one reference is the only choice",
     3, "00011", {4: "00010"}, {4}),
]

#: (case, level, key path, {ref: path}, offline refs, refs missing from
#: the network, the refs that may win).
OFFLINE_CASES = [
    ("an offline best match is passed over",
     0, "10110", {1: "1011", 2: "10", 3: "11"}, (1,), (), {2}),
    ("a reference the network does not know is passed over",
     0, "10110", {1: "1011", 2: "10"}, (), (1,), {2}),
    ("a tie loses its offline members",
     0, "10110", {1: "10", 2: "10", 3: "10"}, (2,), (), {1, 3}),
    ("every reference offline: nothing",
     0, "10110", {1: "1011", 2: "10"}, (1, 2), (), {None}),
]


def winners(pick, seeds=40):
    return {pick(random.Random(seed)) for seed in range(seeds)}


@pytest.mark.parametrize(
    "level,key,known,expected",
    [case[1:] for case in RANKING_CASES],
    ids=[case[0] for case in RANKING_CASES],
)
def test_the_ranking_rule(level, key, known, expected):
    paths = as_paths(known)
    # Every tied winner is reachable, and nothing else is.
    assert winners(lambda rng: dataplane_pick(level, key_in(key), paths, rng)) == expected


@pytest.mark.parametrize(
    "level,key,known,offline,missing,expected",
    [case[1:] for case in OFFLINE_CASES],
    ids=[case[0] for case in OFFLINE_CASES],
)
def test_the_data_plane_ranks_online_references_only(
    level, key, known, offline, missing, expected
):
    paths = as_paths(known)
    assert winners(
        lambda rng: dataplane_pick(level, key_in(key), paths, rng, offline, missing)
    ) == expected


@pytest.mark.parametrize(
    "known,tied",
    [({1: "11", 2: "11", 3: "100"}, [1, 2]), ({1: "1000", 2: "11"}, None), ({3: "10"}, None)],
    ids=["a tie draws once", "a single best draws nothing", "one reference draws nothing"],
)
def test_a_tie_costs_one_draw(known, tied):
    ours, theirs = random.Random(7), random.Random(7)
    picked = dataplane_pick(0, key_in("1100"), as_paths(known), ours)
    if tied is not None:
        assert picked == tied[theirs._randbelow(len(tied))]
    assert ours.getstate() == theirs.getstate()


# -- the two backends agree -------------------------------------------------------


@st.composite
def levels_with_references(draw):
    """An owner path, a level, the key leaving it there, and 1-4
    references under the complementary subtree with exact paths."""
    length = draw(st.integers(1, 12))
    owner = Path(draw(st.integers(0, (1 << length) - 1)), length)
    level = draw(st.integers(0, length - 1))
    subtree = owner.prefix(level).extend(1 - owner.bit(level))

    def under(path, extra):
        bits = draw(st.integers(0, (1 << extra) - 1)) if extra else 0
        return Path((path.bits << extra) | bits, path.length + extra)

    key_path = under(subtree, KEY_BITS - subtree.length)
    count = draw(st.integers(1, 4))
    paths = {ref: under(subtree, draw(st.integers(0, 8))) for ref in range(1, count + 1)}
    return level, key_path.bits, paths


@given(case=levels_with_references(), seed=st.integers(0, 2**31 - 1))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_backends_pick_references_of_equal_rank(case, seed):
    level, key, paths = case
    table = ReferenceTable(OWNER, 4)
    table.install({level: list(paths)})
    for ref, path in paths.items():
        table.note_path(ref, path)
    on_wire = table.pick(level, random.Random(seed), key)
    on_dataplane = dataplane_pick(level, key, paths, random.Random(seed))
    best = max(rank(path, key) for path in paths.values())
    assert rank(paths[on_wire], key) == rank(paths[on_dataplane], key) == best


# -- greedy lookups on ideal overlays ---------------------------------------------


@lru_cache(maxsize=None)
def ideal_overlay(label):
    peer_keys = workload_keys(label, 96, 10, seed=13)
    return PGridNetwork.ideal(
        [k for keys in peer_keys for k in keys], 96, d_max=20, n_min=2, rng=5
    )


@pytest.mark.parametrize("label", ["U", "P1.0"])
@given(key=st.integers(0, MAX_KEY - 1), seed=st.integers(0, 2**31 - 1))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_a_greedy_lookup_reaches_the_owner_within_its_path_length(label, key, seed):
    net = ideal_overlay(label)
    owners = {pid for pid, peer in net.peers.items() if peer.path.contains_key(key, KEY_BITS)}
    res = lookup(net, key, rng=random.Random(seed))
    assert res.found and res.responsible in owners
    # Every hop fixes at least one more bit of the key.
    assert res.hops <= net.peers[res.responsible].path.length
