"""Worker-mode support: per-slice RNG seeds and the result codec.

The two pieces :func:`repro.scenarios.message_runner.run_sliced_ensemble`
needs to run independent keyspace slices in worker processes:
:func:`derive_shard_streams` derives each slice's seed from the
scenario's existing master stream tree, and :class:`ShardCodec` carries
a worker's result back to the parent as versioned bytes.
"""

from __future__ import annotations

import pickle
from typing import List

from .._util import make_rng
from ..exceptions import SimulationError

__all__ = [
    "ShardCodec",
    "derive_shard_streams",
]


def derive_shard_streams(root_seed: int, n_shards: int) -> List[int]:
    """Per-shard RNG seeds from the scenario's shard stream root.

    The root is the *final* draw of the scenario master chain
    (:meth:`repro.scenarios.base.ScenarioRunnerBase.shard_stream_root`),
    so deriving any number of shard streams can never shift a stream an
    existing golden trace depends on.  Each shard's seed is one
    ``randrange`` off a master seeded with the root -- the same
    one-master-many-streams idiom the scenario runner itself uses.
    """
    if n_shards < 1:
        raise SimulationError(f"need at least one shard, got {n_shards}")
    master = make_rng(root_seed)
    return [master.randrange(2**31) for _ in range(n_shards)]


class ShardCodec:
    """Versioned serialization for the worker protocol.

    Workers return their slice's result (report + kernel counters) as
    bytes; the parent decodes.  The payload rides pickled at a pinned
    protocol version under an explicit schema version, so a
    parent/worker mismatch fails loudly instead of resurfacing as a
    corrupted merge.
    """

    #: Pinned pickle protocol (parent and workers must agree).
    PROTOCOL = 4
    #: Envelope schema version, checked on decode.
    VERSION = 1

    @classmethod
    def encode(cls, obj: object) -> bytes:
        return pickle.dumps((cls.VERSION, obj), protocol=cls.PROTOCOL)

    @classmethod
    def decode(cls, data: bytes) -> object:
        version, obj = pickle.loads(data)
        if version != cls.VERSION:
            raise SimulationError(
                f"shard codec version mismatch: got {version}, "
                f"expected {cls.VERSION}"
            )
        return obj
