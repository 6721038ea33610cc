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
    bootstrap, random walks and vote flooding.
``vote``
    The decentralized decision to start indexing (Sec. 4.1).
``churn``
    On/off availability process (peers offline 1-5 min every 5-10 min).
``node``/``protocol``
    P-Grid peers as asynchronous message handlers: replication,
    construction interactions, queries.
``stats``
    Time-binned series: online population, bandwidth by category,
    query latency -- exactly the series of Figs. 7, 8 and 9.
``experiment``
    The five-phase timeline driver reproducing the Sec. 5 deployment.
"""

from . import churn, engine, experiment, node, protocol, stats, topology, transport, vote  # noqa: F401
