"""Pinned outcomes of the decentralized construction.

``tests/data/construction_digests.json`` holds one SHA-256 per
(workload, seed, strategy) cell over everything a caller can observe of a
:func:`construct_overlay` run: every peer's id, path, sorted keys,
routing table and replica list, plus the cost counters.  A change to the
engine that claims "no behaviour change" must leave every digest as it
is.  Regenerate only when a change of the protocol is intended, and say so::

    PYTHONPATH=src python tests/test_construction_digests.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.core.construction import ConstructionConfig, construct_overlay
from repro.workloads.datasets import workload_keys

DATA = pathlib.Path(__file__).parent / "data" / "construction_digests.json"
N_PEERS = 256
KEYS_PER_PEER = 10
CELLS = [
    (workload, seed, strategy)
    for workload in ("U", "P1.0", "A")
    for seed in (1, 2, 3)
    for strategy in ("theory", "heuristic")
]


def cell_name(workload: str, seed: int, strategy: str) -> str:
    return f"{workload}/seed{seed}/{strategy}"


def result_digest(result) -> str:
    """SHA-256 over the peers and counters of a ``ConstructionResult``."""
    h = hashlib.sha256()
    for peer in result.peers:
        h.update(
            repr(
                (
                    peer.peer_id,
                    peer.path.bits,
                    peer.path.length,
                    sorted(peer.keys),
                    sorted(peer.routing.items()),
                    sorted(peer.replicas),
                )
            ).encode()
        )
    h.update(
        repr(
            (
                result.rounds,
                result.interactions,
                result.keys_moved,
                result.bandwidth_keys,
                result.splits,
                result.undeliverable_keys,
            )
        ).encode()
    )
    return h.hexdigest()


def compute(workload: str, seed: int, strategy: str) -> str:
    peer_keys = workload_keys(workload, peers=N_PEERS, keys_per_peer=KEYS_PER_PEER, seed=seed)
    return result_digest(
        construct_overlay(peer_keys, ConstructionConfig(strategy=strategy), rng=seed)
    )


@pytest.mark.parametrize("workload,seed,strategy", CELLS)
def test_construction_digest_unchanged(workload, seed, strategy):
    committed = json.loads(DATA.read_text())["digests"]
    assert compute(workload, seed, strategy) == committed[cell_name(workload, seed, strategy)]


if __name__ == "__main__":
    payload = {
        "_comment": "sha256 per construct_overlay run; see tests/test_construction_digests.py",
        "n_peers": N_PEERS,
        "keys_per_peer": KEYS_PER_PEER,
        "digests": {cell_name(*cell): compute(*cell) for cell in CELLS},
    }
    DATA.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {DATA}")
