"""Pinned outcomes of the construction *on the wire*.

``tests/data/wire_construction_digests.json`` holds one SHA-256 per seed
over everything the compressed Sec. 5 timeline (the
``paper-sec52-planetlab`` scenario at 80 peers and
``duration_scale=110/525``: join, replicate, construct from scratch,
query, churn) lets a caller observe: the report's JSON, plus each node's
id, path, sorted keys, routing table by level and sorted replica list.
The other scenario digests start from a built overlay and almost never
reach the Fig. 2 split / decide branches of ``simnet/node.py``; these
three runs execute them thousands of times.  A change to the node that
claims "no behaviour change" must leave every digest as it is.
Regenerate only when a change of the protocol is intended, and say so::

    PYTHONPATH=src python tests/test_wire_construction_digests.py

``tests/data/regen_message_digests.py --check`` recomputes the three
digests in a CI job that installs no dev dependency, so this module
imports nothing beyond the standard library and ``repro``: the seeds
are parametrized through the ``pytest_generate_tests`` hook.
"""

import hashlib
import json
import pathlib

from repro.scenarios import MessageScenarioRunner, library

DATA = pathlib.Path(__file__).parent / "data" / "wire_construction_digests.json"
N_PEERS = 80
SEEDS = (23, 24, 25)
DURATION_SCALE = 110 / 525


def cell_name(seed: int) -> str:
    return f"paper-sec52-planetlab/peers{N_PEERS}/seed{seed}"


def compute(seed: int) -> str:
    """SHA-256 over the report and every node's end state."""
    spec = library.paper_sec52_planetlab(N_PEERS, seed=seed, duration_scale=DURATION_SCALE)
    runner = MessageScenarioRunner(spec)
    h = hashlib.sha256(runner.run().to_json().encode())
    for pid in sorted(runner.nodes):
        node = runner.nodes[pid]
        h.update(
            repr(
                (
                    node.node_id,
                    node.path.bits,
                    node.path.length,
                    sorted(node.keys),
                    sorted(node.routing.items()),
                    sorted(node.replicas),
                )
            ).encode()
        )
    return h.hexdigest()


def pytest_generate_tests(metafunc):
    if "seed" in metafunc.fixturenames:
        metafunc.parametrize("seed", SEEDS)


def test_wire_construction_digest_unchanged(seed):
    committed = json.loads(DATA.read_text())["digests"]
    assert compute(seed) == committed[cell_name(seed)]


if __name__ == "__main__":
    payload = {
        "_comment": "sha256 per compressed paper-sec52-planetlab run; see "
        "tests/test_wire_construction_digests.py",
        "n_peers": N_PEERS,
        "digests": {cell_name(seed): compute(seed) for seed in SEEDS},
    }
    DATA.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {DATA}")
