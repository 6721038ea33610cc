"""The message-kind table (``simnet.protocol.CATEGORY``) against the node
that sends and receives by it."""

import pytest

from repro.simnet import protocol as P
from repro.simnet.engine import Simulator
from repro.simnet.node import PGridNode
from repro.simnet.transport import ConstantLatency, Message, Network

CATEGORIES = {P.MAINTENANCE, P.QUERY_TRAFFIC, P.UPDATE_TRAFFIC}


def by_name(kind: str) -> str:
    """The category a kind's name says it has."""
    if kind.startswith(("query", "range_")):
        return P.QUERY_TRAFFIC
    if kind in ("insert", "delete") or kind.startswith(("update_", "replica_")):
        return P.UPDATE_TRAFFIC
    return P.MAINTENANCE


def test_every_kind_has_one_handler_and_one_category():
    declared = [
        value for name, value in vars(P).items()
        if name.isupper() and isinstance(value, str) and value not in CATEGORIES
    ]
    # Every kind constant is registered, and nothing else is.
    assert sorted(declared) == sorted(P.CATEGORY)
    for kind, category in P.CATEGORY.items():
        assert category == by_name(kind), kind
        assert callable(getattr(PGridNode, "_on_" + kind)), kind


def test_every_handler_on_the_node_has_a_kind():
    handlers = {name[4:] for name in dir(PGridNode) if name.startswith("_on_")}
    assert handlers == set(P.CATEGORY)


def test_an_unregistered_kind_cannot_be_sent_and_is_ignored_on_receipt():
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01), rng=1)
    node = PGridNode(0, sim, net, rng=1)
    PGridNode(1, sim, net, rng=2)
    with pytest.raises(KeyError):
        node.send(1, "vote_req", {})
    node.receive(Message(1, 0, "vote_req", {}, 0))  # no handler, no error
    assert net.messages_sent == 0
