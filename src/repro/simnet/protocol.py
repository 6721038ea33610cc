"""Wire protocol constants for the simulated P-Grid deployment.

Message kinds, phase names and default protocol timers live here so the
node implementation and the tests share one vocabulary.
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
    "VOTE_REQ",
    "VOTE_RESP",
    "MAINTENANCE",
    "QUERY_TRAFFIC",
    "UPDATE_TRAFFIC",
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
VOTE_REQ = "vote_req"  #: index-initiation vote flood (Sec. 4.1)
VOTE_RESP = "vote_resp"  #: aggregated vote reply

# -- traffic categories (Fig. 8 split, plus the write path) -------------------

MAINTENANCE = "maintenance"
QUERY_TRAFFIC = "queries"
UPDATE_TRAFFIC = "updates"
