"""The paper's claims at reduced sizes: every row of the claims table.

``benchmarks/paper_claims.py`` runs each row at its ``full`` sizes and
REPRODUCTION.md records that run; here each row runs at its ``quick``
sizes against the same bands, so a change that breaks a shape claim of
the construction, the bisection models or the full-system run fails
tier-1.
"""

import itertools
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(ROOT / "benchmarks"))

import paper_claims  # noqa: E402


@pytest.fixture(scope="module")
def runs():
    return []  # rows sharing a run measure it once


@pytest.mark.parametrize("claim", paper_claims.CLAIMS, ids=lambda claim: claim.id)
def test_claim_holds_at_quick_sizes(claim, runs):
    bands = paper_claims.measure(claim, "quick", runs)
    assert bands
    assert all(band.ok for band in bands), paper_claims.render([(claim, bands)])


def test_reproduction_md_lists_every_claim():
    lines = (ROOT / "REPRODUCTION.md").read_text().splitlines()
    rows = itertools.takewhile(
        lambda line: line.startswith("| "), lines[lines.index(paper_claims.HEADER) + 2:]
    )
    ids = [row.split("|")[1].strip() for row in rows]
    assert ids == [claim.id for claim in paper_claims.CLAIMS]
