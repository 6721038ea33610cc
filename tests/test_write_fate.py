"""The recovery section's write-fate audit (``lost_acked_writes``,
``tombstone_resurrections``).

* **Hand-built histories** -- which keys the audit judges: a key whose
  last acked mutation overlapped an unacked one of the opposite kind is
  counted as ``acked_writes_concurrent``, not as a violation.
* **Property** -- drawn restart scenarios on both backends lose no
  acked write and resurrect no deleted key.  The nightly workflow runs
  it at ``REPRO_FUZZ_EXAMPLES=200``.
"""

import os

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.scenarios import ScenarioRunner, run_scenario, scenario

#: Examples of the property; the nightly workflow raises it to 200.
FUZZ_EXAMPLES = os.environ.get("REPRO_FUZZ_EXAMPLES")

KEY = 7377797767892117


def audit(history, present=(), tombstones=()):
    """Run the audit over ``history``: ``("issue" | "ack", op)`` steps on
    one key, against a final view of the overlay."""
    runner = ScenarioRunner(scenario("restart-storm", n_peers=16, seed=1))
    runner._recovery = {}  # what run() sets when restarts are active
    runner._durable_key_view = lambda: (set(present), set(tombstones))
    for step, op in history:
        if step == "issue":
            runner._note_issued_write(op, KEY)
        else:
            runner._note_acked_write(op, KEY)
    lost, resurrected, tracked, concurrent = runner._write_fate()
    return {
        "lost": lost, "resurrected": resurrected,
        "tracked": tracked, "concurrent": concurrent,
    }


class TestAuditedKeys:
    def test_insert_landing_after_a_later_acked_delete_is_not_a_resurrection(self):
        # restart-storm, N=32, seed 1, scale 0.2: an insert is issued,
        # a delete is issued and acked, then the insert's retry lands.
        history = [
            ("issue", "insert"), ("issue", "delete"),
            ("ack", "delete"), ("ack", "insert"),
        ]
        assert audit(history, present=[KEY]) == {
            "lost": 0, "resurrected": 0, "tracked": 0, "concurrent": 1,
        }

    def test_delete_landing_after_a_later_acked_insert_is_not_a_lost_write(self):
        history = [
            ("issue", "delete"), ("issue", "insert"),
            ("ack", "insert"), ("ack", "delete"),
        ]
        assert audit(history) == {
            "lost": 0, "resurrected": 0, "tracked": 0, "concurrent": 1,
        }

    def test_an_unacked_earlier_write_may_still_land(self):
        # A failed or moot write is never acked: it overlaps whatever
        # of the other kind is issued after it.
        history = [("issue", "insert"), ("issue", "delete"), ("ack", "delete")]
        assert audit(history, present=[KEY])["concurrent"] == 1

    def test_a_lone_acked_delete_is_a_resurrection_when_the_key_is_back(self):
        history = [("issue", "delete"), ("ack", "delete")]
        assert audit(history, present=[KEY]) == {
            "lost": 0, "resurrected": 1, "tracked": 1, "concurrent": 0,
        }
        # A live certificate anywhere will still kill it.
        assert audit(history, present=[KEY], tombstones=[KEY])["resurrected"] == 0

    def test_a_lone_acked_insert_is_lost_when_the_key_is_gone(self):
        history = [("issue", "insert"), ("ack", "insert")]
        assert audit(history)["lost"] == 1
        assert audit(history, present=[KEY])["lost"] == 0

    def test_sequential_opposite_writes_are_audited(self):
        # The delete was acked before the insert was issued: no overlap.
        history = [
            ("issue", "delete"), ("ack", "delete"),
            ("issue", "insert"), ("ack", "insert"),
        ]
        assert audit(history) == {
            "lost": 1, "resurrected": 0, "tracked": 1, "concurrent": 0,
        }

    @pytest.mark.parametrize("last", ["insert", "delete"])
    def test_an_unacked_last_write_is_in_limbo(self, last):
        first = "delete" if last == "insert" else "insert"
        history = [("issue", first), ("ack", first), ("issue", last)]
        assert audit(history) == {
            "lost": 0, "resurrected": 0, "tracked": 0, "concurrent": 0,
        }


# -- property: restart scenarios keep every acked write's fate ------------------


@settings(derandomize=True, max_examples=int(FUZZ_EXAMPLES or 10), deadline=None)
@given(
    name=st.sampled_from(["restart-storm", "rolling-deploy"]),
    n_peers=st.integers(32, 96),
    seed=st.integers(1, 2**16),
    duration_scale=st.floats(0.2, 0.3),
)
# A late insert retry against an acked delete, and a split that shed the
# only certificates of a deleted key: both were flagged before the fixes.
@example(name="restart-storm", n_peers=32, seed=1, duration_scale=0.2)
@example(name="restart-storm", n_peers=96, seed=9, duration_scale=0.2)
def test_restart_scenarios_keep_acked_writes(name, n_peers, seed, duration_scale):
    spec = scenario(name, n_peers=n_peers, seed=seed, duration_scale=duration_scale)
    for backend in ("dataplane", "message"):
        rec = run_scenario(spec, backend=backend).recovery
        assert rec["lost_acked_writes"] == 0, backend
        assert rec["tombstone_resurrections"] == 0, backend
