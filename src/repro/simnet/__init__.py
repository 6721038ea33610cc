"""Discrete-event message-level network simulator (the PlanetLab substitute).

The paper validates its system on ~300 PlanetLab nodes (Sec. 5).  This
package provides the substrate that lets us run the *same protocol logic*
under controlled, reproducible networking conditions:

``engine``
    Event loop (simulated clock, scheduling).
``transport``
    Message delivery with configurable latency models, loss, and
    per-category byte accounting.
``topology``
    The pre-existing unstructured overlay (random graph) used for
    bootstrap and the construction's walks.
``churn``
    On/off availability process (peers offline 1-5 min every 5-10 min).
``node``/``protocol``
    P-Grid peers as asynchronous message handlers: replication,
    construction interactions, queries.
``stats``
    The byte ledger: wire bytes by traffic category and time bin (the
    bandwidth series of Fig. 8).

The Sec. 5 deployment itself runs as the ``paper-sec52-planetlab``
scenario (:mod:`repro.scenarios.library`).
"""

from . import churn, engine, node, protocol, stats, topology, transport  # noqa: F401
