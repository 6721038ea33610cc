"""The paper's core contribution: decentralized parallel partitioning.

Sub-modules
-----------
``probabilities``
    The AEP decision probabilities ``alpha(p)``/``beta(p)``, their
    sampling-bias corrections and the interaction-count predictions.
``mva``
    Mean-value (expected-dynamics) models MVA and SAM.
``bisection``
    Discrete simulations of a single bisection (models AEP, COR, AUT).
``reference``
    Algorithm 1 -- the globally coordinated optimal partitioner.
``estimators``
    Local estimators for the split fraction, replica count and
    partition size.
``fig2``
    The Fig. 2 interaction rules as pure functions of those estimates.
``deviation``
    The load-balance deviation metric of Sec. 4.4.
``construction``
    The full recursive, round-based construction process (Sec. 4),
    asking ``fig2`` and producing a complete P-Grid overlay from scratch.
"""

from . import (  # noqa: F401
    bisection,
    constants,
    construction,
    deviation,
    estimators,
    fig2,
    mva,
    probabilities,
    reference,
)
