#!/usr/bin/env python
"""Regenerate or verify ``scenario_message_digests.json``.

The digests pin message-backend determinism; any change to RNG stream
derivation, transport accounting, the node protocol or report assembly
shifts them.  Three tiers live in one file:

* ``digests`` -- every library scenario at N=1024 (the acceptance-level
  full-population pin, checked by ``tests/test_message_scenarios.py``);
* ``smoke`` -- the same scenarios at a small population, cheap enough
  for the CI digest-staleness step to recompute on every PR;
* ``long`` -- the same scenarios at N=48 with unscaled durations
  (600-1,200 simulated seconds, against at most 120 in the other two),
  so the 60 -> 960 s probe back-off ladder, cache expiry and retry
  exhaustion all happen under a pin; also recomputed by ``--check`` and
  asserted by ``tests/test_message_scenarios.py``.

Regenerate only when a protocol/report change is intentional, and say so
in the commit message::

    PYTHONPATH=src python tests/data/regen_message_digests.py

``--check`` recomputes the *smoke* and *long* tiers, both golden traces
(``scenario_golden.json`` / ``scenario_message_golden.json``) and the
wire-construction digests (``wire_construction_digests.json``, whose
recipe and regeneration live in ``tests/test_wire_construction_digests.py``)
and exits non-zero on any drift from the committed files -- the CI step that
catches "changed the protocol, forgot to regenerate" PRs before the
nightly full run does::

    PYTHONPATH=src python tests/data/regen_message_digests.py --check
"""

import argparse
import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

import test_wire_construction_digests as wire_construction  # noqa: E402
from repro.scenarios import SCENARIOS, run_scenario, scenario  # noqa: E402

PARAMS = dict(n_peers=1024, seed=5, duration_scale=0.1)
#: The tiers ``--check`` recomputes, by their key in the file.
CHECKED_TIERS = {
    "smoke": dict(n_peers=96, seed=5, duration_scale=0.05),
    "long": dict(n_peers=48, seed=5, duration_scale=1.0),
}
DATA = pathlib.Path(__file__).parent
OUT = DATA / "scenario_message_digests.json"

#: The pinned golden traces and the spec/backend that regenerates each.
GOLDENS = (
    ("scenario_golden.json", "dataplane"),
    ("scenario_message_golden.json", "message"),
)
GOLDEN_SPEC = dict(n_peers=24, seed=11, duration_scale=0.2)


def compute_digests(params: dict) -> dict:
    digests = {}
    for name in sorted(SCENARIOS):
        spec = scenario(name, **params)
        report = run_scenario(spec, backend="message")
        digests[name] = hashlib.sha256(report.to_json().encode()).hexdigest()
    return digests


def golden_json(backend: str) -> str:
    spec = scenario("uniform-baseline", **GOLDEN_SPEC)
    return run_scenario(spec, backend=backend).to_json()


def regenerate() -> None:
    payload = {
        "_comment": [
            "SHA-256 digests of ScenarioReport.to_json() for every library scenario",
            "run under MessageScenarioRunner.  'digests' pins full-population",
            f"determinism at n_peers={PARAMS['n_peers']}; 'smoke' pins a small run and 'long' a",
            "small population at unscaled durations, both recomputed by the CI",
            "digest-staleness step on every PR (--check).  Regenerate",
            "deliberately with:",
            "  PYTHONPATH=src python tests/data/regen_message_digests.py",
        ],
        **PARAMS,
        "digests": compute_digests(PARAMS),
        **{
            tier: {**params, "digests": compute_digests(params)}
            for tier, params in CHECKED_TIERS.items()
        },
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT}")


def check() -> int:
    """Verify the smoke and long digests, the golden traces and the
    wire-construction digests match the code."""
    drift = []
    pinned = json.loads(OUT.read_text())
    for tier in CHECKED_TIERS:
        committed = pinned.get(tier)
        if not committed:
            drift.append(f"{OUT.name} has no {tier} tier -- regenerate it")
            continue
        params = {k: committed[k] for k in ("n_peers", "seed", "duration_scale")}
        fresh = compute_digests(params)
        for name in sorted(set(fresh) | set(committed["digests"])):
            if fresh.get(name) != committed["digests"].get(name):
                drift.append(
                    f"{tier} digest of {name!r}: committed "
                    f"{committed['digests'].get(name, '<missing>')[:12]}... vs "
                    f"code {fresh.get(name, '<missing>')[:12]}..."
                )
    for filename, backend in GOLDENS:
        committed = (DATA / filename).read_text().strip()
        if golden_json(backend) != committed:
            drift.append(f"golden trace {filename} drifts from the code")
    wire = json.loads(wire_construction.DATA.read_text())["digests"]
    for seed in wire_construction.SEEDS:
        if wire_construction.compute(seed) != wire.get(wire_construction.cell_name(seed)):
            drift.append(
                f"wire construction digest of seed {seed} drifts from the code"
                " (regenerate: PYTHONPATH=src python tests/test_wire_construction_digests.py)"
            )
    if drift:
        print("committed digests/goldens are stale:", file=sys.stderr)
        for line in drift:
            print(f"  {line}", file=sys.stderr)
        print(
            "\nIf the change is intentional, regenerate with:\n"
            "  PYTHONPATH=src python tests/data/regen_message_digests.py\n"
            "  PYTHONPATH=src python -c \"from repro.scenarios import run_scenario, scenario;"
            " print(run_scenario(scenario('uniform-baseline', n_peers=24, seed=11,"
            " duration_scale=0.2), backend='dataplane').to_json())\""
            " > tests/data/scenario_golden.json   (and backend='message' likewise)",
            file=sys.stderr,
        )
        return 1
    print("smoke and long digests, golden traces and wire construction digests match the code")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed smoke/long/wire-construction digests + goldens "
        "instead of rewriting",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check()
    regenerate()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
