"""A wire node's routing state is reached through its table's methods.

``repro.pgrid.liveness.ReferenceTable`` keeps the sweep's skip cache
valid by resetting it inside every method that can uncover a level.
That holds only while nothing else writes the state those methods
guard, so this scan (by text, like ``test_dead_code.py``) fails when
another file under ``src/`` names the cache field or one of the belief
dicts.
"""

import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
TABLE_MODULE = SRC / "repro" / "pgrid" / "liveness.py"
CACHE_FIELD = "_lapse_at"
BELIEF_DICTS = (
    "strikes", "probe_nonce", "last_confirmed", "confirm_interval", "evicted_at"
)


def test_the_skip_cache_field_is_named_in_the_tables_module_only():
    named = [path for path in sorted(SRC.rglob("*.py")) if CACHE_FIELD in path.read_text()]
    assert named == [TABLE_MODULE]


def test_no_other_module_reaches_into_the_belief_dicts():
    table_text = TABLE_MODULE.read_text()
    needles = ["liveness." + BELIEF_DICTS[0]] + ["." + name for name in BELIEF_DICTS[1:]]
    for name in BELIEF_DICTS:
        assert "self." + name in table_text  # a rename must not blind the scan
    reached = {
        str(path.relative_to(SRC)): [n for n in needles if n in path.read_text()]
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path != TABLE_MODULE
    }
    assert not {path: found for path, found in reached.items() if found}
