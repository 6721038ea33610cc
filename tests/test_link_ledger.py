"""The transport's per-link byte ledger against an independent recount.

``Network.link_bytes`` is the offered load per directed link: every
send is billed at send time, drops included.  A run with churn, a
regional partition and writes exercises every send-time drop cause, and
a wrapper around ``Network.send`` recounts the bytes from the
arguments alone.  The ledger must equal the recount as a mapping and by
lookup, and the report's ``links`` block must be the one the recount
gives with plain full sorts.
"""

import dataclasses
from statistics import mean

import pytest

from repro.scenarios import scenario
from repro.scenarios.message_runner import MessageScenarioRunner
from repro.scenarios.spec import ChurnSpec
from repro.simnet.engine import Simulator
from repro.simnet.transport import HEADER_BYTES, KEY_BYTES, REF_BYTES, Network

CHURN = ChurnSpec(
    min_offline_s=10.0, max_offline_s=30.0,
    min_online_s=20.0, max_online_s=60.0, fraction=0.5,
)


def churned_partition_writes():
    spec = scenario(
        "asymmetric-partition-writes", n_peers=48, seed=7, duration_scale=0.3
    )
    phases = tuple(dataclasses.replace(p, churn=CHURN) for p in spec.phases)
    spec = dataclasses.replace(spec, phases=phases)
    spec.validate()
    return spec


def links_block(recount):
    """The report's ``links`` block, by full sorts over the recount."""
    sizes = sorted(recount.values())
    top = sorted(recount.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    return {
        "used": len(recount),
        "max_bytes": sizes[-1],
        "mean_bytes": mean(sizes),
        "top": [[src, dst, size] for (src, dst), size in top],
    }


@pytest.fixture(scope="module")
def recounted():
    recount = {}
    sends = Network.send

    def counting_send(self, src, dst, kind, payload, *, n_keys=0, n_refs=0,
                      category="maintenance"):
        size = HEADER_BYTES + n_keys * KEY_BYTES + n_refs * REF_BYTES
        recount[(src, dst)] = recount.get((src, dst), 0) + size
        return sends(self, src, dst, kind, payload, n_keys=n_keys,
                     n_refs=n_refs, category=category)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Network, "send", counting_send)
        runner = MessageScenarioRunner(churned_partition_writes())
        report = runner.run()
    return runner.transport, report, recount


def test_the_run_exercises_every_send_time_drop(recounted):
    transport, report, _ = recounted
    assert transport.drops_offline > 0
    assert transport.drops_partition > 0
    assert transport.drops_loss > 0
    assert report.writes["writes"] > 0


def test_ledger_equals_the_recount(recounted):
    transport, _, recount = recounted
    ledger = transport.link_bytes
    assert ledger == recount
    assert dict(ledger) == recount
    assert len(ledger) == len(recount)
    for link, size in recount.items():
        assert ledger[link] == size
    assert sum(recount.values()) == sum(ledger.values())


def test_report_links_block_is_the_recount_summary(recounted):
    _, report, recount = recounted
    assert report.message_level["links"] == links_block(recount)


def test_view_behaves_like_the_tuple_keyed_dict():
    net = Network(Simulator(), rng=1)
    net.send(3, 70000, "ping", {})
    net.send(3, 70000, "ping", {}, n_keys=2)
    net.send(70000, 3, "ping", {})
    ledger = net.link_bytes
    expected = {
        (3, 70000): 2 * HEADER_BYTES + 2 * KEY_BYTES,
        (70000, 3): HEADER_BYTES,
    }
    assert ledger == expected and expected == ledger
    assert list(ledger) == list(expected)
    assert list(ledger.items()) == list(expected.items())
    assert sorted(ledger.values()) == sorted(expected.values())
    assert (3, 70000) in ledger and (70000, 70000) not in ledger
    for absent in [(3, 3), (-1, 70000), (3, -1), (0, 1 << 32), 5, (1, 2, 3), "ab"]:
        assert absent not in ledger
        assert ledger.get(absent) is None
        with pytest.raises(KeyError):
            ledger[absent]
    with pytest.raises(TypeError):
        ledger[(3, 70000)] = 0
