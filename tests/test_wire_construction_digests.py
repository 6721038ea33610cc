"""Pinned outcomes of the construction *on the wire*.

``tests/data/wire_construction_digests.json`` holds one SHA-256 per seed
over everything the compressed five-phase experiment
(``run_experiment(ExperimentConfig.compressed(peers=80, seed=s))``: join,
replicate, construct from scratch, query, churn) lets a caller observe:
every numeric field and series of the report, plus each node's id, path,
sorted keys, routing table by level and sorted replica list.  The
scenario digests start from a built overlay and almost never reach the
Fig. 2 split / decide branches of ``simnet/node.py``; these three runs
execute them thousands of times.  A change to the node that claims "no
behaviour change" must leave every digest as it is.  Regenerate only when
a change of the protocol is intended, and say so::

    PYTHONPATH=src python tests/test_wire_construction_digests.py

``tests/data/regen_message_digests.py --check`` recomputes the three
digests in a CI job that installs no dev dependency, so this module
imports nothing beyond the standard library and ``repro``: the seeds
are parametrized through the ``pytest_generate_tests`` hook.
"""

import dataclasses
import hashlib
import json
import pathlib
from unittest import mock

from repro.simnet import experiment
from repro.simnet.experiment import ExperimentConfig, run_experiment

DATA = pathlib.Path(__file__).parent / "data" / "wire_construction_digests.json"
N_PEERS = 80
SEEDS = (23, 24, 25)


def cell_name(seed: int) -> str:
    return f"compressed/peers{N_PEERS}/seed{seed}"


def run_with_nodes(seed: int):
    """The compressed experiment's report and the nodes it built (the
    driver returns only the report; the nodes are caught at construction)."""
    nodes = []

    class Recorded(experiment.PGridNode):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nodes.append(self)

    with mock.patch.object(experiment, "PGridNode", Recorded):
        report = run_experiment(ExperimentConfig.compressed(peers=N_PEERS, seed=seed))
    return report, nodes


def compute(seed: int) -> str:
    """SHA-256 over the report (minus its config) and every node's end state."""
    report, nodes = run_with_nodes(seed)
    h = hashlib.sha256()
    for f in dataclasses.fields(report):
        if f.name != "config":
            h.update(repr((f.name, getattr(report, f.name))).encode())
    for node in nodes:
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
        "_comment": "sha256 per compressed run_experiment; see "
        "tests/test_wire_construction_digests.py",
        "n_peers": N_PEERS,
        "digests": {cell_name(seed): compute(seed) for seed in SEEDS},
    }
    DATA.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {DATA}")
