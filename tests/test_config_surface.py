"""The option surface, pinned field by field.

Every independently settable field doubles what tests, benchmarks and a
spec fuzzer have to cover, so a new one should arrive as a reviewed
one-line diff to this file, not unnoticed.  A field earns its place when
two callers in the repo need different values for it; a value nobody
varies is a module constant beside the code that reads it.
"""

import dataclasses
import inspect
import pathlib
import re

import pytest

from repro.core.construction import ConstructionConfig
from repro.pgrid.liveness import repair_routes
from repro.pgrid.mdim import ZOrderCodec
from repro.pgrid.serving import CachePolicy
from repro.pgrid.state import DurabilityPolicy
from repro.scenarios.message_runner import MessageNetConfig, MessageScenarioRunner
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import Phase
from repro.simnet.churn import ChurnConfig
from repro.simnet.node import NodeConfig

SURFACE = {
    MessageNetConfig: [
        "latency", "loss_rate", "durability",
    ],
    NodeConfig: [
        "n_min", "d_max", "query_timeout", "query_retries",
        "max_refs_per_level", "tombstone_ttl_s", "serving",
    ],
    CachePolicy: [
        "enabled", "result_ttl_s", "route_ttl_s", "hot_threshold",
        "decay_interval_s", "grant_ttl_s", "front_ends",
    ],
    DurabilityPolicy: ["enabled"],
    ConstructionConfig: ["n_min", "d_max", "strategy", "sample_size", "seed"],
    # construct replaced the Sec. 5 driver's ten-field config.
    Phase: [
        "name", "duration_s", "query_rate", "mix", "churn", "join_peers",
        "leave_peers", "maintenance_interval_s", "partitions", "writes",
        "restarts", "construct",
    ],
    ChurnConfig: ["min_offline", "max_offline", "min_online", "max_online"],
    # split_budget went when a box became one showered range query.
    ZOrderCodec: ["dims"],
}


@pytest.mark.parametrize("cls", SURFACE, ids=lambda cls: cls.__name__)
def test_fields_are_the_pinned_list(cls):
    assert [f.name for f in dataclasses.fields(cls)] == SURFACE[cls]



#: Keyword-only parameters of the entry points a config dataclass does
#: not cover, so a deleted switch cannot come back as a keyword.
KEYWORDS = {
    ScenarioRunner.__init__: ["durability"],
    MessageScenarioRunner.__init__: ["net_config"],
    repair_routes: ["rng"],
}


@pytest.mark.parametrize("func", KEYWORDS, ids=lambda func: func.__qualname__)
def test_keywords_are_the_pinned_list(func):
    params = inspect.signature(func).parameters.values()
    keywords = [p.name for p in params if p.kind is p.KEYWORD_ONLY]
    assert keywords == KEYWORDS[func]


def test_the_library_reads_no_environment():
    # Experiment sizes and seeds are arguments (benchmarks/paper_claims.py
    # passes them), so a REPRO_* knob cannot come back unreviewed.
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    readers = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if re.search(r"\bos\.(environ|getenv)\b", path.read_text())
    ]
    assert readers == []
