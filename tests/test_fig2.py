"""The Fig. 2 decision, stated once in :mod:`repro.core.fig2`.

Three layers:

* **tables** -- ``relation`` over every pair of paths to depth 3,
  ``rules_3_4`` over all 16 input combinations, ``overloaded`` on both
  sides of each of its four thresholds;
* **properties** (``hypothesis``, derandomized) of the functions alone
  and of both engines through them: a path is refined only when the
  meeting is ``overloaded``;
* **view agreement** -- from one generated pair state the round engine
  (:mod:`repro.core.construction`) and the wire node
  (:mod:`repro.simnet.node`) hand ``fig2`` the same counts and the same
  split-policy arguments, except for the differences the node's comments
  name (ROADMAP item 9), each asserted to be exactly that.
"""

import contextlib
import itertools
import math
import random
from bisect import bisect_left
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import fig2
from repro.core.construction import ConstructionConfig, ConstructionPeer, _Construction
from repro.core.estimators import replica_count_from_overlap
from repro.pgrid.bits import Path
from repro.pgrid.keyspace import KEY_BITS
from repro.simnet.engine import Simulator
from repro.simnet.node import NodeConfig, PGridNode
from repro.simnet.transport import ConstantLatency, Network

PATHS = [
    "".join(bits) for depth in range(4) for bits in itertools.product("01", repeat=depth)
]


def meeting(level=0, size_a=0, size_b=0, overlap=0, known=0):
    return fig2.Meeting(level, size_a, size_b, overlap, lambda: known)


# -- tables ---------------------------------------------------------------------


@pytest.mark.parametrize("a, b", itertools.product(PATHS, repeat=2))
def test_relation_over_every_pair_of_paths_to_depth_3(a, b):
    if a == b:
        want = fig2.SAME
    elif b.startswith(a):
        want = fig2.A_UNDECIDED
    elif a.startswith(b):
        want = fig2.B_UNDECIDED
    else:
        want = fig2.DIVERGED
    assert fig2.relation(Path.from_string(a), Path.from_string(b)) == want


BETA = 0.4
#: (decided side, minority, draw, reference present) -> (side, via decided);
#: ``None`` for the draw means rule 3 decides and must not draw at all.
RULES_3_4 = {
    # rule 3: the decided peer sits on the minority side -> join the majority
    (0, 0, None, False): (1, True),
    (0, 0, None, True): (1, True),
    (1, 1, None, False): (0, True),
    (1, 1, None, True): (0, True),
    # rule 4, draw below beta: join the minority, opposite the decided peer
    (0, 1, 0.1, False): (1, True),
    (0, 1, 0.1, True): (1, True),
    (1, 0, 0.1, False): (0, True),
    (1, 0, 0.1, True): (0, True),
    # rule 4, draw above beta: the decided peer's side, through its
    # reference -- or, without one, the opposite side after all
    (0, 1, 0.9, True): (0, False),
    (1, 0, 0.9, True): (1, False),
    (0, 1, 0.9, False): (1, True),
    (1, 0, 0.9, False): (0, True),
}


def test_rules_3_4_over_all_sixteen_combinations():
    seen = 0
    for decided, minority, below, has_ref in itertools.product(
        (0, 1), (0, 1), (True, False), (False, True)
    ):
        rule_3 = decided == minority
        u = None if rule_3 else (0.1 if below else 0.9)
        draw = mock.Mock(return_value=u)
        got = fig2.rules_3_4(decided, minority, BETA, draw, has_ref)
        assert got == RULES_3_4[decided, minority, u, has_ref]
        assert draw.call_count == (0 if rule_3 else 1)
        seen += 1
    assert seen == 16


class TestOverloadedThresholds:
    """``d_max=50, n_min=5``; disjoint key lists estimate "unbounded"."""

    @staticmethod
    def verdict(m):
        return fig2.overloaded(m, 50.0, 5)

    def test_no_level_left_or_an_empty_list(self):
        assert self.verdict(meeting(KEY_BITS - 2, 30, 30))
        assert not self.verdict(meeting(KEY_BITS - 1, 30, 30))
        assert not self.verdict(meeting(0, 0, 60))
        assert not self.verdict(meeting(0, 60, 0))

    def test_direct_evidence_of_half_d_max(self):
        assert not self.verdict(meeting(0, 13, 12))  # 25 keys seen
        assert self.verdict(meeting(0, 13, 13))  # 26

    def test_partition_estimate_above_d_max(self):
        assert not self.verdict(meeting(0, 50, 50, 50, known=99))  # 50 * 50 / 50
        assert self.verdict(meeting(0, 50, 50, 49, known=99))

    def test_replica_evidence_of_twice_n_min(self):
        # overlap estimate 1 + 4 * 100 / 98 = 5.08: the replica lists decide
        assert not self.verdict(meeting(0, 50, 50, 49, known=9))
        assert self.verdict(meeting(0, 50, 50, 49, known=10))
        # overlap estimate 1 + 4 * 100 / 40 = 11 on its own
        assert self.verdict(meeting(0, 50, 50, 20, known=2))

    def test_replica_lists_are_consulted_last(self):
        def known():
            raise AssertionError("an earlier threshold already said no")

        for level, size_a, size_b, overlap in [
            (KEY_BITS - 1, 30, 30, 0), (0, 0, 60, 0), (0, 13, 12, 0), (0, 50, 50, 50),
        ]:
            assert not self.verdict(fig2.Meeting(level, size_a, size_b, overlap, known))


# -- properties of the functions alone --------------------------------------------


@settings(derandomize=True)
@given(
    st.integers(0, 1), st.integers(0, 1), st.floats(0, 1), st.floats(0, 1), st.booleans()
)
def test_chosen_side_is_what_fig2_allows(decided_side, minority, beta, u, has_ref):
    side, via_decided = fig2.rules_3_4(decided_side, minority, beta, lambda: u, has_ref)
    # the decided peer covers the other side exactly when the sides differ;
    # sharing its side takes the reference it hands over
    assert via_decided == (side == 1 - decided_side)
    assert via_decided or has_ref
    if decided_side == minority:
        assert side == 1 - minority


@settings(derandomize=True, deadline=None)
@given(
    st.integers(1, 200).flatmap(lambda m: st.tuples(st.integers(0, m), st.just(m))),
    st.one_of(st.floats(1, 500), st.just(math.inf)),
    st.integers(1, 8),
    st.sampled_from(fig2.STRATEGIES),
)
def test_split_probabilities_never_aim_below_n_min_peers(counts, peers_hat, n_min, strategy):
    zeros, m_eff = counts
    probs, minority = fig2.split_probabilities(zeros, m_eff, peers_hat, n_min, strategy)
    assert minority == (0 if 2 * zeros <= m_eff else 1)
    assert 0.0 <= probs.alpha <= 1.0 and 0.0 <= probs.beta <= 1.0
    assert probs.p <= 0.5
    if peers_hat >= 2 * n_min and math.isfinite(peers_hat):
        assert probs.p >= n_min / peers_hat


small_keys = st.sets(st.integers(0, 60), max_size=30)


@settings(derandomize=True)
@given(small_keys, small_keys, st.integers(0, 9))
def test_meeting_total_is_the_union(a, b, known):
    m = meeting(0, len(a), len(b), len(a & b), known)
    assert m.total == len(a | b)
    estimate = m.replica_estimate(3)
    assert m.replica_evidence(3) == (max(estimate, known) if a & b else math.inf)


# -- both engines, from one pair state ------------------------------------------------

N_MIN, D_MAX = 2, 4.0
INITIATOR, CONTACTED, REFERENCE = 0, 1, 2
OTHERS = (3, 4, 5, 6)


def key_under(path: Path, tail: int) -> int:
    """The key ``tail`` (six bits) places right below ``path``."""
    return ((path.bits << 6) | tail) << (KEY_BITS - path.length - 6)


@st.composite
def pair_states(draw):
    """Two peers' paths (to depth 3), key sets, replica lists and whether the
    decided one holds a reference for rule 4, second case."""
    bit = st.integers(0, 1)
    a = draw(st.lists(bit, max_size=3))
    how = draw(st.sampled_from(("same", "initiator lags", "contacted lags", "diverged")))
    if how == "same":
        b = a
    elif how == "diverged":
        a = a or [draw(bit)]
        at = draw(st.integers(0, len(a) - 1))
        b = a[:at] + [1 - a[at]] + draw(st.lists(bit, max_size=2 - at))
    else:
        a = a[:2]
        b = a + draw(st.lists(bit, min_size=1, max_size=3 - len(a)))
        if how == "contacted lags":
            a, b = b, a
    paths = [Path.from_string("".join(map(str, p))) for p in (a, b)]
    tails = st.sets(st.integers(0, 63), max_size=12)
    shared_under = max(paths, key=lambda p: p.length)
    shared = draw(tails)
    keys = []
    for path in paths:
        own = {key_under(path, t) for t in draw(tails)}
        both = {key_under(shared_under, t) for t in shared}
        keys.append(own | {k for k in both if path.contains_key(k, KEY_BITS)})
    replicas = [
        draw(st.sets(st.sampled_from(OTHERS + (other,)))) for other in (CONTACTED, INITIATOR)
    ]
    return paths, keys, replicas, draw(st.booleans())


class Asked:
    """What one engine handed to ``fig2`` during one interaction."""

    def __init__(self):
        self.meetings = []  # (counts with ``known`` called, verdict)
        self.policies = []  # split_probabilities arguments


@contextlib.contextmanager
def listening():
    asked = Asked()
    real_overloaded, real_split = fig2.overloaded, fig2.split_probabilities

    def overloaded(m, d_max, n_min):
        assert (d_max, n_min) == (D_MAX, N_MIN)
        verdict = real_overloaded(m, d_max, n_min)
        asked.meetings.append((m._replace(known=m.known()), verdict))
        return verdict

    def split_probabilities(*args):
        asked.policies.append(args)
        return real_split(*args)

    with mock.patch.object(fig2, "overloaded", overloaded), mock.patch.object(
        fig2, "split_probabilities", split_probabilities
    ):
        yield asked


def decided_index(paths):
    """Index of the peer further down, or ``None`` unless one path is a
    proper prefix of the other."""
    related = fig2.relation(*paths)
    return {fig2.A_UNDECIDED: CONTACTED, fig2.B_UNDECIDED: INITIATOR}.get(related)


def reference_path(paths):
    """A path opposite the decided peer at the undecided one's level."""
    decided = paths[decided_index(paths)]
    level = min(p.length for p in paths)
    return decided.prefix(level).extend(1 - decided.bit(level))


def round_engine_asks(paths, keys, replicas, has_ref) -> Asked:
    peers = [
        ConstructionPeer(peer_id=i, path=paths[i], keys=set(keys[i]), replicas=set(replicas[i]))
        for i in (INITIATOR, CONTACTED)
    ]
    decided = decided_index(paths)
    if decided is not None:
        peers.append(ConstructionPeer(peer_id=REFERENCE, path=reference_path(paths)))
        if has_ref:
            peers[decided].routing[min(p.length for p in paths)] = [REFERENCE]
    state = _Construction(
        peers, ConstructionConfig(n_min=N_MIN, d_max=D_MAX), random.Random(7)
    )
    state.frame_keys()
    for peer, held in zip(peers, keys):
        span = KEY_BITS - peer.path.length
        frame = tuple(
            bisect_left(state.universe, (peer.path.bits + edge) << span) for edge in (0, 1)
        )
        state.frame[peer.peer_id] = frame
        state.bitmap[peer.peer_id] = state._pack(held, *frame)
    with listening() as asked:
        state._interact(peers[INITIATOR], peers[CONTACTED])
    asked.refined = [peer.path != path for peer, path in zip(peers, paths)]
    return asked


def wire_node_asks(paths, keys, replicas, has_ref) -> Asked:
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01), loss_rate=0.0, rng=1)
    config = NodeConfig(n_min=N_MIN, d_max=D_MAX)
    nodes = []
    for i in (INITIATOR, CONTACTED):
        node = PGridNode(i, sim, net, config=config, rng=7 + i)
        node.path, node.keys, node.replicas = paths[i], set(keys[i]), set(replicas[i])
        nodes.append(node)
    decided = decided_index(paths)
    if decided is not None and has_ref:
        nodes[decided].routing[min(p.length for p in paths)] = [REFERENCE]
    initiator, contacted = nodes
    # What ``_begin_exchange`` puts on the wire.
    routes = {level: refs[0] for level, refs in initiator.routing.items() if refs}
    with listening() as asked:
        reply = contacted._evaluate_exchange(
            INITIATOR, initiator.path, set(initiator.keys), set(initiator.replicas), routes
        )
    asked.refined = [
        reply["action"] in ("split", "decide"),
        contacted.path != paths[CONTACTED],
    ]
    asked.action = reply["action"]
    return asked


@settings(derandomize=True, deadline=None, max_examples=300)
@given(pair_states())
def test_both_engines_hand_fig2_the_same_view(state):
    paths, keys, replicas, has_ref = state
    in_round, on_wire = round_engine_asks(*state), wire_node_asks(*state)
    related = fig2.relation(*paths)

    # A path is refined, or a split offered, only on an overloaded verdict.
    for asked in (in_round, on_wire):
        assert len(asked.meetings) == (0 if related == fig2.DIVERGED else 1)
        verdict = asked.meetings and asked.meetings[0][1]
        assert verdict or not any(asked.refined)
        assert len(asked.policies) == (1 if verdict else 0)
    if related == fig2.DIVERGED:
        assert on_wire.action == "refer"
        return
    if on_wire.action == "again":
        assert on_wire.meetings[0][1]

    (seen_round, said_round), (seen_wire, said_wire) = in_round.meetings[0], on_wire.meetings[0]
    assert seen_wire[:4] == seen_round[:4]
    assert seen_round.level == min(p.length for p in paths)
    undecided = INITIATOR if related != fig2.B_UNDECIDED else CONTACTED
    assert seen_round.size_a == len(keys[undecided])

    # ``known``, the round engine: everyone either replica list or the pair names.
    named = replicas[INITIATOR] | replicas[CONTACTED] | {INITIATOR, CONTACTED}
    assert seen_round.known == len(named)
    # The wire node, difference 1: the initiator counts once more when a
    # replica list already names it.
    listed = INITIATOR in replicas[CONTACTED]
    if related == fig2.A_UNDECIDED:
        # Difference 3: a lagging initiator's own replica list is left out.
        assert seen_wire.known == len(replicas[CONTACTED] | {INITIATOR, CONTACTED}) + listed
    else:
        assert seen_wire.known == seen_round.known + listed

    # Split-policy arguments: same split fraction, sample, n_min and strategy.
    if said_round and said_wire:
        (args_round,), (args_wire,) = in_round.policies, on_wire.policies
        union, shift = keys[0] | keys[1], KEY_BITS - 1 - seen_round.level
        assert args_wire[:2] == args_round[:2] == (
            sum(1 for k in union if not (k >> shift) & 1),
            len(union),
        )
        assert args_wire[3:] == args_round[3:] == (N_MIN, "theory")
    # Difference 2, the floor: the overlap estimate with the replica lists
    # (round engine) and without them (wire node).
    estimate = replica_count_from_overlap(*seen_round[1:4], N_MIN)
    if said_round:
        evidence = max(estimate, seen_round.known) if math.isfinite(estimate) else estimate
        assert in_round.policies[0][2] == evidence
    if said_wire:
        assert on_wire.policies[0][2] == estimate
