"""Copy-free forwarding must not alias: the three forward sites.

The wire-kernel fast path replaced the per-hop ``dict(payload)`` copies
in ``simnet/node.py`` with minimal fresh forward dicts whose *values*
are shared by reference.  The invariant these tests pin is the one that
makes that safe: every forward owns its own **container**, so a handler
mutating the payload dict it received -- or a later hop mutating the
forward it was handed -- can never corrupt a sibling message that is
already on the wire.  The audited sites are ``_route_query``,
``_route_write``, and ``_route_range``'s sub-range forwards (a pure
relay, and a split whose siblings are the RANGE_PART slice and every
other sub-range built from the same incoming payload).
"""

from repro.pgrid.bits import Path
from repro.pgrid.keyspace import float_to_key
from repro.simnet import protocol as P
from repro.simnet.engine import Simulator
from repro.simnet.node import KEY_BITS, NodeConfig, PGridNode
from repro.simnet.transport import ConstantLatency, Network


def build_wire(paths_and_keys, *, latency=0.01, config=None):
    """Hand-built message-level overlay: one node per path string."""
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(latency), loss_rate=0.0, rng=1)
    config = config or NodeConfig(query_retries=2, query_timeout=5.0)
    nodes = []
    for node_id, (path, keys) in enumerate(paths_and_keys):
        node = PGridNode(node_id, sim, net, config=config, rng=node_id + 1)
        node.path = Path.from_string(path)
        node.keys = set(keys)
        node.joined = True
        nodes.append(node)
    for node in nodes:
        for other in nodes:
            if other is node:
                continue
            cpl = node.path.common_prefix_length(other.path)
            if cpl < node.path.length:
                node.add_route(cpl, other.node_id)
    return sim, net, nodes


QUADRANTS = [
    ("00", [float_to_key(0.05), float_to_key(0.2)]),
    ("01", [float_to_key(0.3), float_to_key(0.45)]),
    ("10", [float_to_key(0.55), float_to_key(0.7)]),
    ("11", [float_to_key(0.8), float_to_key(0.95)]),
]


def capture_sends(node):
    """Record every (kind, payload) the node puts on the wire."""
    sent = []
    original = node.send

    def recording(dst, kind, payload, **kwargs):
        sent.append((kind, payload))
        return original(dst, kind, payload, **kwargs)

    node.send = recording
    return sent


def clobber(payload):
    """Mutate a payload dict the way a buggy handler could: in place."""
    for key in list(payload):
        payload[key] = "clobbered"


class TestForwardOwnsItsContainer:
    """Unit audit of each forward site: fresh dict, no shared container."""

    def test_query_forward(self):
        sim, net, nodes = build_wire(QUADRANTS)
        sent = capture_sends(nodes[0])
        key = float_to_key(0.85)  # quadrant 11: node 0 must relay
        incoming = {"key": key, "origin": 3, "qid": 99, "attempt": 1, "hops": 2}
        nodes[0]._route_query(incoming)
        kinds = [kind for kind, _ in sent]
        assert kinds == [P.QUERY]
        forward = sent[0][1]
        assert forward is not incoming
        clobber(incoming)
        assert forward == {
            "key": key, "origin": 3, "qid": 99, "attempt": 1, "hops": 3,
        }

    def test_write_forward(self):
        sim, net, nodes = build_wire(QUADRANTS)
        sent = capture_sends(nodes[0])
        key = float_to_key(0.3)  # quadrant 01: node 0 must relay
        incoming = {
            "key": key, "op": "insert", "origin": 3, "qid": 7,
            "attempt": 1, "hops": 1,
        }
        nodes[0]._route_write(incoming)
        kinds = [kind for kind, _ in sent]
        assert kinds == [P.INSERT]
        forward = sent[0][1]
        assert forward is not incoming
        clobber(incoming)
        assert forward == {
            "key": key, "op": "insert", "origin": 3, "qid": 7,
            "attempt": 1, "hops": 2,
        }

    def test_range_relay_forward(self):
        sim, net, nodes = build_wire(QUADRANTS)
        sent = capture_sends(nodes[0])
        lo, hi = float_to_key(0.55), float_to_key(0.7)
        incoming = {
            "lo": lo, "hi": hi, "origin": 3, "qid": 42, "attempt": 1, "hops": 0,
        }
        nodes[0]._route_range(incoming)  # all of it in quadrant 10: relay
        kinds = [kind for kind, _ in sent]
        assert kinds == [P.RANGE_QUERY]
        forward = sent[0][1]
        assert forward is not incoming
        clobber(incoming)
        assert forward == {
            "lo": lo, "hi": hi, "origin": 3, "qid": 42, "attempt": 1, "hops": 1,
        }

    def test_range_split_siblings(self):
        # The split site: one incoming payload fans out into a
        # RANGE_PART slice home AND a sub-range forward.  Mutating
        # either sibling -- or the incoming payload -- must not reach
        # the other two dicts.
        sim, net, nodes = build_wire(QUADRANTS)
        sent = capture_sends(nodes[0])
        lo = float_to_key(0.05)
        hi = float_to_key(0.45)  # spans quadrants 00 and 01
        incoming = {
            "lo": lo, "hi": hi, "origin": 3, "qid": 11, "attempt": 2, "hops": 1,
        }
        nodes[0]._route_range(incoming)
        by_kind = dict(sent)
        assert set(by_kind) == {P.RANGE_PART, P.RANGE_QUERY}
        part, forward = by_kind[P.RANGE_PART], by_kind[P.RANGE_QUERY]
        assert part is not incoming and forward is not incoming
        part_hi = nodes[0].path.key_range(KEY_BITS)[1]
        expected_forward = {
            "lo": part_hi, "hi": hi, "origin": 3, "qid": 11, "attempt": 2, "hops": 2,
        }
        expected_part_keys = part["keys"]
        clobber(incoming)
        clobber(part)
        assert forward == expected_forward
        clobber(forward)
        # part was clobbered above on purpose; what matters is that its
        # keys list was never shared with anything clobbered since.
        assert expected_part_keys == [float_to_key(0.05), float_to_key(0.2)]


class TestHandlerMutationCannotCorruptSibling:
    """End to end: a relay that trashes its received payload *after*
    forwarding must not affect the hop already on the wire."""

    def test_query_survives_a_payload_trashing_relay(self):
        sim, net, nodes = build_wire(QUADRANTS)
        # Pin node 0's level-0 routing to the relay (node 2) so the
        # query must pass through the mutating handler.
        nodes[0].routing[0] = [2]
        original = nodes[2]._route_query

        def trashing(payload):
            original(payload)
            clobber(payload)

        nodes[2]._route_query = trashing
        outcomes = []
        nodes[0].on_query_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_query(float_to_key(0.85))  # quadrant 11, via node 2
        sim.run_until(60.0)
        assert outcomes and outcomes[0].success
        assert outcomes[0].timeouts == 0

    def test_range_survives_a_payload_trashing_splitter(self):
        sim, net, nodes = build_wire(QUADRANTS)
        # Node 2 splits the range: slice home + sub-range forward, then
        # trashes the payload both siblings were built from.
        nodes[0].routing[0] = [2]
        original = nodes[2]._route_range

        def trashing(payload):
            original(payload)
            clobber(payload)

        nodes[2]._route_range = trashing
        results = []
        nodes[0].on_range_done = lambda nid, qid, out: results.append(out)
        nodes[0].issue_range_query(float_to_key(0.55), float_to_key(0.95))
        sim.run_until(60.0)
        assert results and results[0].success
        # 0.55 and 0.7 from quadrant 10, 0.8 from quadrant 11.
        assert results[0].keys_found == 3
