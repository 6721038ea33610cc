"""P-Grid trie-structured overlay substrate (Sec. 2.1).

Sub-modules
-----------
``bits``
    Binary paths over the recursively bisected key space.
``keyspace``
    Order-preserving key encodings (floats, strings) to integer keys.
``routing``
    Per-level routing tables referencing the complementary subtree.
``keystore``
    Sorted-array key storage: O(log n + hits) range extraction and
    merge-based reconciliation for the query-serving data plane.
``peer``
    Peer state: path, stored keys, replicas, routing table.
``network``
    The assembled overlay: construction adapters, lookup entry points,
    and the routed write path (``insert``/``delete`` with eager
    replica application).
``search``
    Prefix routing for exact queries and the "shower" algorithm for
    range queries over the trie.
``maintenance``
    The standard *sequential* maintenance model (joins/leaves) used as
    the construction baseline, plus failure repair.
``liveness``
    The shared route-repair subsystem: its module constants, the
    evidence-driven :class:`~repro.pgrid.liveness.ReferenceTable`
    (routing levels plus liveness beliefs) of a message-backend node,
    and the oracle-evidence ``repair_routes`` sweep used by the data
    plane.
``replication``
    Anti-entropy reconciliation between replicas, including delete-wins
    tombstone propagation and the replica-divergence aggregates.
``serving``
    The query-serving front end: :class:`~repro.pgrid.serving.
    CachePolicy` knobs, TTL + write-invalidation result/route caches,
    and the adaptive-replication grant contract (see the module
    docstring for the coherence/audit model).
"""

from . import (  # noqa: F401
    bits,
    keyspace,
    keystore,
    liveness,
    maintenance,
    network,
    peer,
    replication,
    routing,
    search,
    serving,
)
