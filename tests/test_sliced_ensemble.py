"""Tests for worker mode: the sliced ensemble and its support pieces.

:func:`slice_spec` conservation arithmetic,
:func:`derive_shard_streams` determinism, and
:func:`run_sliced_ensemble`: pinned per-slice reports from forked and
sequential runs, conservation over the returned list, and a dead
worker surfacing as an error instead of a hang.

``tests/data/sliced_ensemble_digests.json`` pins one SHA-256 per slice
report (plus the ensemble's query total) for two specs.  Regenerate
only when a change of the protocol or the report is intended, and say
so::

    PYTHONPATH=src python tests/test_sliced_ensemble.py
"""

import hashlib
import json
import os
import pathlib
import signal
import time

import pytest

from repro.exceptions import SimulationError
from repro.scenarios import (
    MessageScenarioRunner,
    run_sliced_ensemble,
    scenario,
    slice_spec,
)
from repro.scenarios.message_runner import derive_shard_streams

DATA = pathlib.Path(__file__).parent / "data" / "sliced_ensemble_digests.json"
SHARDS = 4
#: A read-only spec at the worker-mode test size and a write-carrying
#: one whose population does not divide evenly.
PINNED = {
    "uniform-baseline": dict(n_peers=64, seed=7, duration_scale=0.25),
    "read-write-balanced": dict(n_peers=101, seed=9),
}


def pinned_entry(reports) -> dict:
    return {
        "slices": [
            hashlib.sha256(report.to_json().encode()).hexdigest()
            for report in reports
        ],
        "queries": sum(report.totals["queries"] for report in reports),
    }


class TestDeriveShardStreams:
    def test_deterministic_and_prefix_stable(self):
        assert derive_shard_streams(123, 4) == derive_shard_streams(123, 4)
        # More shards extend the stream list; existing seeds never move.
        assert derive_shard_streams(123, 8)[:4] == derive_shard_streams(123, 4)

    def test_rejects_zero_shards(self):
        with pytest.raises(SimulationError):
            derive_shard_streams(1, 0)


class TestSliceSpec:
    def test_conserves_population_and_rates(self):
        spec = scenario("read-write-balanced", n_peers=101, seed=9)
        slices = [
            slice_spec(spec, i, 4, seed=100 + i) for i in range(4)
        ]
        assert sum(s.n_peers for s in slices) == spec.n_peers
        for phase_idx, phase in enumerate(spec.phases):
            shards = [s.phases[phase_idx] for s in slices]
            assert sum(p.join_peers for p in shards) == phase.join_peers
            assert sum(p.leave_peers for p in shards) == phase.leave_peers
            assert sum(p.query_rate for p in shards) == \
                pytest.approx(phase.query_rate)
            if phase.writes is not None:
                assert sum(p.writes.write_rate for p in shards) == \
                    pytest.approx(phase.writes.write_rate)

    def test_confines_workload_to_slice(self):
        spec = scenario("uniform-baseline", n_peers=64, seed=9)
        sub = slice_spec(spec, 2, 4, seed=7)
        assert sub.distribution == f"{spec.distribution}@2/4"
        assert sub.name == f"{spec.name}@2/4"
        assert sub.seed == 7
        for phase in sub.phases:
            hotspot = phase.mix.hotspot
            assert (hotspot.lo, hotspot.hi, hotspot.weight) == (0.5, 0.75, 1.0)
        sub.validate()  # sliced distribution label must stay resolvable

    def test_rejects_bad_slices(self):
        spec = scenario("uniform-baseline", n_peers=64, seed=9)
        with pytest.raises(SimulationError):
            slice_spec(spec, 4, 4, seed=1)
        with pytest.raises(SimulationError):
            slice_spec(scenario("uniform-baseline", n_peers=6, seed=9),
                       0, 4, seed=1)


class TestWorkerMode:
    PARAMS = dict(n_peers=64, seed=7, duration_scale=0.25)

    @pytest.mark.parametrize("processes", [False, True], ids=["sequential", "forked"])
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_slice_digests_unchanged(self, name, processes):
        # "queries" was recorded from the merged report of the commit
        # that still merged, so the sum below is that total, conserved.
        spec = scenario(name, **PINNED[name])
        reports = run_sliced_ensemble(spec, shards=SHARDS, processes=processes)
        assert pinned_entry(reports) == json.loads(DATA.read_text())[name]
        assert sum(r.n_peers_start for r in reports) == spec.n_peers

    def test_processes_and_sequential_agree(self):
        spec = scenario("uniform-baseline", **self.PARAMS)
        sequential = run_sliced_ensemble(spec, shards=4, processes=False)
        forked = run_sliced_ensemble(spec, shards=4, processes=True)
        assert [r.to_json() for r in sequential] == [r.to_json() for r in forked]

    def test_kernel_stats_out_param(self):
        spec = scenario("uniform-baseline", **self.PARAMS)
        stats = []
        run_sliced_ensemble(
            spec, shards=4, processes=False, kernel_stats=stats
        )
        assert len(stats) == 4
        # One kernel, one entry: the unsliced path fills the list too.
        run_sliced_ensemble(spec, shards=1, kernel_stats=stats)
        assert len(stats) == 5
        for entry in stats:
            assert entry["events_processed"] > 0
            assert entry["pending_peak"] > 0
            assert entry["wall_s"] >= 0

    def test_shards_one_is_the_legacy_path(self):
        spec = scenario("uniform-baseline", **self.PARAMS)
        (only,) = run_sliced_ensemble(spec, shards=1)
        assert only.to_json() == MessageScenarioRunner(spec).run().to_json()

    def test_rejects_zero_shards(self):
        spec = scenario("uniform-baseline", **self.PARAMS)
        with pytest.raises(SimulationError):
            run_sliced_ensemble(spec, shards=0)

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM") or not hasattr(os, "fork"),
        reason="needs fork workers and SIGALRM as the hang guard",
    )
    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch):
        # A worker that dies without returning (OOM-kill, hard exit)
        # must surface as an error naming a slice.  The patched ``run``
        # is inherited by the forked workers; the parent never calls it.
        spec = scenario("uniform-baseline", **self.PARAMS)
        real_run = MessageScenarioRunner.run

        def run_or_die(runner):
            if runner.spec.name.endswith("@1/4"):
                os._exit(1)
            return real_run(runner)

        monkeypatch.setattr(MessageScenarioRunner, "run", run_or_die)

        def hung(signum, frame):
            raise AssertionError("run_sliced_ensemble hung on a dead worker")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        start = time.perf_counter()
        try:
            with pytest.raises(SimulationError, match="worker process died"):
                run_sliced_ensemble(spec, shards=4, processes=True)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 10.0


if __name__ == "__main__":
    payload = {
        "_comment": "sha256 per slice report of a 4-slice ensemble; see tests/test_sliced_ensemble.py",
        **{
            name: pinned_entry(
                run_sliced_ensemble(scenario(name, **params), shards=SHARDS)
            )
            for name, params in sorted(PINNED.items())
        },
    }
    DATA.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {DATA}")
