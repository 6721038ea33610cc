"""Wire protocol constants for the simulated P-Grid deployment.

Message kinds and traffic categories live here so the node
implementation and the tests share one vocabulary.  :data:`CATEGORY` is
where a kind is registered: ``PGridNode.send`` bills a message to the
category it names and ``PGridNode.receive`` hands a delivered kind to
the node's ``_on_<kind>`` method; a kind missing from it cannot be sent.
"""

from __future__ import annotations

__all__ = [
    "JOIN",
    "NEIGHBORS",
    "WALK",
    "WALK_RESULT",
    "STORE",
    "EXCHANGE_REQ",
    "EXCHANGE_RESP",
    "QUERY",
    "QUERY_HIT",
    "QUERY_MISS",
    "RANGE_QUERY",
    "RANGE_PART",
    "INSERT",
    "DELETE",
    "UPDATE_ACK",
    "UPDATE_MISS",
    "REPLICA_SYNC",
    "REPLICA_GRANT",
    "REPLICA_REVOKE",
    "PING",
    "PONG",
    "MAINTENANCE",
    "QUERY_TRAFFIC",
    "UPDATE_TRAFFIC",
    "CATEGORY",
]

# -- message kinds ---------------------------------------------------------

JOIN = "join"  #: newcomer -> bootstrap: request neighbors
NEIGHBORS = "neighbors"  #: bootstrap -> newcomer: unstructured-overlay links
WALK = "walk"  #: random-walk step (uniform peer sampling)
WALK_RESULT = "walk_result"  #: walk terminal -> origin: sampled peer id
STORE = "store"  #: replication-phase key copy
EXCHANGE_REQ = "exchange_req"  #: construction interaction request
EXCHANGE_RESP = "exchange_resp"  #: construction interaction response
QUERY = "query"  #: exact-match query being routed
QUERY_HIT = "query_hit"  #: responsible peer -> origin
QUERY_MISS = "query_miss"  #: routing dead-end -> origin
RANGE_QUERY = "range_query"  #: range query traversing partitions in key order
RANGE_PART = "range_part"  #: partition result slice -> origin (``done``/``stuck``)
INSERT = "insert"  #: key insert being routed to the responsible partition
DELETE = "delete"  #: key delete being routed (tombstoned at the owner)
UPDATE_ACK = "update_ack"  #: responsible peer -> origin: mutation applied
UPDATE_MISS = "update_miss"  #: routing dead-end -> origin (mutation retries)
REPLICA_SYNC = "replica_sync"  #: owner -> replicas: eager mutation fan-out
REPLICA_GRANT = "replica_grant"  #: hot owner -> helper: serve my range (adaptive replication)
REPLICA_REVOKE = "replica_revoke"  #: owner -> helper: load decayed, stop serving
PING = "ping"  #: liveness probe of a routing reference (``want``: send candidates)
PONG = "pong"  #: probe answer (proof of life; replacement candidates if wanted)

# -- traffic categories (Fig. 8 split, plus the write path) -------------------

MAINTENANCE = "maintenance"
QUERY_TRAFFIC = "queries"
UPDATE_TRAFFIC = "updates"

#: Every message kind and the category its bytes are billed to: reads
#: (``query*``, ``range_*``), the write path (``insert``, ``delete``,
#: ``update_*``, ``replica_*``), and everything that keeps the overlay
#: up.
CATEGORY = {
    JOIN: MAINTENANCE,
    NEIGHBORS: MAINTENANCE,
    WALK: MAINTENANCE,
    WALK_RESULT: MAINTENANCE,
    STORE: MAINTENANCE,
    EXCHANGE_REQ: MAINTENANCE,
    EXCHANGE_RESP: MAINTENANCE,
    PING: MAINTENANCE,
    PONG: MAINTENANCE,
    QUERY: QUERY_TRAFFIC,
    QUERY_HIT: QUERY_TRAFFIC,
    QUERY_MISS: QUERY_TRAFFIC,
    RANGE_QUERY: QUERY_TRAFFIC,
    RANGE_PART: QUERY_TRAFFIC,
    INSERT: UPDATE_TRAFFIC,
    DELETE: UPDATE_TRAFFIC,
    UPDATE_ACK: UPDATE_TRAFFIC,
    UPDATE_MISS: UPDATE_TRAFFIC,
    REPLICA_SYNC: UPDATE_TRAFFIC,
    REPLICA_GRANT: UPDATE_TRAFFIC,
    REPLICA_REVOKE: UPDATE_TRAFFIC,
}
