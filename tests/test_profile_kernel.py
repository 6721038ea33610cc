"""Smoke test of ``benchmarks/profile_kernel.py`` on tiny populations: both
targets exit 0 and write a table that names what it profiled and the
peak RSS."""

import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = str(ROOT / "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import profile_kernel  # noqa: E402

PEAK_RSS = re.compile(r"peak RSS \d+\.\d MiB")


@pytest.mark.parametrize(
    "flags, names",
    [
        (["--target", "build", "--n-peers", "64"], "build_overlay N=64"),
        (["--n-peers", "64", "--scale", "0.01"], f"{profile_kernel.SCENARIO} N=64"),
    ],
    ids=["build", "kernel"],
)
def test_writes_a_table_naming_the_run_and_its_peak_rss(tmp_path, capsys, flags, names):
    output = tmp_path / "profile.txt"
    assert profile_kernel.main(flags + ["--top", "5", "--output", str(output)]) == 0
    header = output.read_text().splitlines()[:2]
    assert names in header[0]
    assert PEAK_RSS.search(header[1])
    assert PEAK_RSS.search(capsys.readouterr().out)
