"""The option surface, pinned field by field.

Every independently settable field doubles what tests, benchmarks and a
spec fuzzer have to cover, so a new one should arrive as a reviewed
one-line diff to this file, not unnoticed.  A field earns its place when
two callers in the repo need different values for it; a value nobody
varies is a module constant beside the code that reads it.
"""

import dataclasses

import pytest

from repro.core.construction import ConstructionConfig
from repro.pgrid.liveness import RouteRepairPolicy
from repro.pgrid.serving import CachePolicy
from repro.pgrid.state import DurabilityPolicy
from repro.scenarios.message_runner import MessageNetConfig
from repro.simnet.churn import ChurnConfig
from repro.simnet.experiment import ExperimentConfig
from repro.simnet.node import NodeConfig

SURFACE = {
    MessageNetConfig: [
        "latency", "loss_rate", "repair", "tombstone_ttl_s", "durability",
    ],
    NodeConfig: [
        "n_min", "d_max", "query_timeout", "query_retries",
        "max_refs_per_level", "tombstone_ttl_s", "repair", "serving",
    ],
    RouteRepairPolicy: ["enabled"],
    CachePolicy: [
        "enabled", "result_ttl_s", "route_ttl_s", "hot_threshold",
        "replica_boost", "decay_interval_s", "grant_ttl_s", "front_ends",
    ],
    DurabilityPolicy: ["enabled"],
    ConstructionConfig: ["n_min", "d_max", "strategy", "sample_size", "seed"],
    ExperimentConfig: [
        "peers", "n_min", "d_max", "join_end", "replicate_start",
        "construct_start", "query_start", "churn_start", "end", "seed",
    ],
    ChurnConfig: ["min_offline", "max_offline", "min_online", "max_online"],
}


@pytest.mark.parametrize("cls", SURFACE, ids=lambda cls: cls.__name__)
def test_fields_are_the_pinned_list(cls):
    assert [f.name for f in dataclasses.fields(cls)] == SURFACE[cls]

