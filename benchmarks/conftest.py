"""Shared configuration for the benchmark harness.

Each ``bench_*`` file regenerates one of the paper's tables or figures
(its module docstring carries a ``Guards:`` line naming the figure or
claim it protects); the pytest-benchmark fixture times the regeneration
and the printed tables carry the actual series (run with ``-s`` to see
them inline).

One perf-tracking entry point sits alongside the figure suites:
``bench_perf_suite.py`` (one-shot absolute timings across overlay
sizes, emitting ``BENCH_core.json`` at the repo root -- run ``python
benchmarks/bench_perf_suite.py --quick`` for the CI smoke variant).
"""

collect_ignore_glob: list = []


def pytest_configure(config):
    # Benchmarks print paper-style tables; keep them visible in CI logs.
    config.option.verbose = max(config.option.verbose, 0)
