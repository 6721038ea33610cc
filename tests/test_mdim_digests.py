"""Pinned outputs of the z-order codec.

``tests/data/mdim_digests.json`` holds one SHA-256 per (dims,
split_budget) cell over a seeded corpus: every box's inclusive cell
bounds and its :meth:`ZOrderCodec.box_ranges` output (random boxes at
every scale, single-cell, full-space, a float box with a cell-aligned
upper bound, and a ``max_ranges`` override), plus every point's
``encode`` key and its ``cells_of`` cells.  A change to the kernels that
claims "keys and ranges byte-identical" must leave every digest as it
is.  Regenerate only when a change of the key format or of the
split-budget rule is intended, and say so::

    PYTHONPATH=src python tests/test_mdim_digests.py

``--check`` recomputes every cell and exits non-zero on drift::

    PYTHONPATH=src python tests/test_mdim_digests.py --check
"""

import hashlib
import json
import pathlib
import random
import sys

import pytest

from repro.pgrid.mdim import ZOrderCodec

DATA = pathlib.Path(__file__).parent / "data" / "mdim_digests.json"
DIMS = (1, 2, 3, 4, 7, 53)
BUDGETS = (1, 2, 3, 5, 16, 64)
CELLS = [(dims, budget) for dims in DIMS for budget in BUDGETS]
#: Per cell; 36 cells make 3,600 random boxes and 10,800 points.
RANDOM_BOXES = 100
POINTS = 300
OVERRIDE_RANGES = 4


def cell_name(dims: int, budget: int) -> str:
    return f"z{dims}/budget{budget}"


def corpus_boxes(codec: ZOrderCodec, rng: random.Random):
    """Inclusive cell boxes: sides from one cell to the whole dimension."""
    d, bits, cells = codec.dims, codec.bits_per_dim, codec.cells_per_dim
    corner = tuple(rng.randrange(cells) for _ in range(d))
    yield corner, corner  # single cell
    yield (0,) * d, (cells - 1,) * d  # full space
    yield codec.box_cells((0.0,) * d, (0.5,) * d)  # cell-aligned upper bound
    yield codec.box_cells((0.25,) * d, (1.0,) * d)
    for _ in range(RANDOM_BOXES):
        lo_cells, hi_cells = [], []
        for _ in range(d):
            side = 1 << rng.randrange(bits + 1)
            lo = rng.randrange(cells - side + 1)
            lo_cells.append(lo)
            hi_cells.append(lo + rng.randrange(side))
        yield tuple(lo_cells), tuple(hi_cells)


def compute(dims: int, budget: int) -> str:
    codec = ZOrderCodec(dims=dims, split_budget=budget)
    rng = random.Random(1_000 * dims + budget)
    h = hashlib.sha256()
    for index, (lo_cells, hi_cells) in enumerate(corpus_boxes(codec, rng)):
        ranges = codec.box_ranges(lo_cells, hi_cells)
        h.update(repr((lo_cells, hi_cells, ranges)).encode())
        if index % 8 == 0:
            h.update(
                repr(codec.box_ranges(lo_cells, hi_cells, OVERRIDE_RANGES)).encode()
            )
    for _ in range(POINTS):
        point = tuple(rng.random() for _ in range(dims))
        key = codec.encode(point)
        h.update(repr((key, codec.cells_of(key))).encode())
    return h.hexdigest()


def compute_all() -> dict:
    return {cell_name(*cell): compute(*cell) for cell in CELLS}


@pytest.mark.parametrize("dims,budget", CELLS)
def test_mdim_digest_unchanged(dims, budget):
    committed = json.loads(DATA.read_text())["digests"]
    assert compute(dims, budget) == committed[cell_name(dims, budget)]


def main(argv) -> int:
    if argv == ["--check"]:
        committed = json.loads(DATA.read_text())["digests"]
        stale = [name for name, d in compute_all().items() if committed.get(name) != d]
        for name in stale:
            print(f"STALE {name}")
        print("mdim digests match the code" if not stale else f"{len(stale)} stale")
        return 1 if stale else 0
    if argv:
        print(__doc__)
        return 2
    payload = {
        "_comment": "sha256 per (dims, split_budget) corpus; see tests/test_mdim_digests.py",
        "random_boxes": RANDOM_BOXES,
        "points": POINTS,
        "digests": compute_all(),
    }
    DATA.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {DATA}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
