"""Per-figure experiment harnesses (the code behind ``benchmarks/paper_claims.py``).

Every module regenerates one of the paper's tables or figures and
returns plain data structures; the claims table checks them and
REPRODUCTION.md records the verdicts:

===============  ==================================================
``fig3``         alpha''(p) curvature curve
``fig45``        the five partitioning models: accuracy and cost
``fig6``         construction sweeps (panels a-f)
``complexity``   sequential vs parallel construction (Sec. 4.3)
``rangecost``    trie range queries vs hash-DHT + PHT (Sec. 6)
``ablations``    sample size / correction ablations
===============  ==================================================

Figs. 7-9 and the Sec. 5.2 statistics come from one run of the
``paper-sec52-planetlab`` scenario (:mod:`repro.scenarios.library`) on
the message backend.  Sizes, repetitions and
seeds are explicit arguments; the claims table passes the paper's.
"""

from . import ablations, complexity, fig3, fig45, fig6, rangecost  # noqa: F401
