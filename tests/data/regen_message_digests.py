#!/usr/bin/env python
"""Regenerate or verify ``scenario_message_digests.json``.

The digests pin message-backend determinism; any change to RNG stream
derivation, transport accounting, the node protocol or report assembly
shifts them.  Two tiers live in one file:

* ``digests`` -- every library scenario at N=1024 (the acceptance-level
  full-population pin, checked by ``tests/test_message_scenarios.py``);
* ``smoke`` -- the same scenarios at a small population, cheap enough
  for the CI digest-staleness step to recompute on every PR.

Regenerate only when a protocol/report change is intentional, and say so
in the commit message::

    PYTHONPATH=src python tests/data/regen_message_digests.py

``--check`` recomputes the *smoke* tier plus both golden traces
(``scenario_golden.json`` / ``scenario_message_golden.json``) and exits
non-zero on any drift from the committed files -- the CI step that
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

from repro.scenarios import SCENARIOS, run_scenario, scenario  # noqa: E402

PARAMS = dict(n_peers=1024, seed=5, duration_scale=0.1)
SMOKE_PARAMS = dict(n_peers=96, seed=5, duration_scale=0.05)
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
            f"determinism at n_peers={PARAMS['n_peers']}; 'smoke' pins a small run the CI",
            "digest-staleness step recomputes on every PR (--check).  Regenerate",
            "deliberately with:",
            "  PYTHONPATH=src python tests/data/regen_message_digests.py",
        ],
        **PARAMS,
        "digests": compute_digests(PARAMS),
        "smoke": {
            **SMOKE_PARAMS,
            "digests": compute_digests(SMOKE_PARAMS),
        },
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT}")


def check() -> int:
    """Verify the smoke digests and golden traces match the code."""
    drift = []
    pinned = json.loads(OUT.read_text())
    smoke = pinned.get("smoke")
    if not smoke:
        drift.append(f"{OUT.name} has no smoke tier -- regenerate it")
    else:
        params = {k: smoke[k] for k in ("n_peers", "seed", "duration_scale")}
        fresh = compute_digests(params)
        for name in sorted(set(fresh) | set(smoke["digests"])):
            if fresh.get(name) != smoke["digests"].get(name):
                drift.append(
                    f"smoke digest of {name!r}: committed "
                    f"{smoke['digests'].get(name, '<missing>')[:12]}... vs "
                    f"code {fresh.get(name, '<missing>')[:12]}..."
                )
    for filename, backend in GOLDENS:
        committed = (DATA / filename).read_text().strip()
        if golden_json(backend) != committed:
            drift.append(f"golden trace {filename} drifts from the code")
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
    print("smoke digests and golden traces match the code")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed smoke digests + goldens instead of rewriting",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check()
    regenerate()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
