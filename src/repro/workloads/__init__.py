"""Evaluation workloads: key distributions and the synthetic text corpus.

The paper evaluates on six key distributions (Sec. 4.4): Uniform ``U``,
Pareto with shapes 0.5/1.0/1.5 (``P0.5``/``P1.0``/``P1.5``), a sharply
concentrated Normal ``N``, and keys extracted from the Alvis text
collection ``A``.  Alvis is proprietary; :mod:`repro.workloads.corpus`
substitutes a synthetic Zipf-vocabulary corpus whose induced key skew
exercises the same code paths (its module docstring describes the corpus).
"""

from . import corpus, datasets, distributions, queries  # noqa: F401
from .datasets import uniform_keys, workload_keys  # noqa: F401
from .distributions import DISTRIBUTIONS, KeyDistribution  # noqa: F401
from .queries import QuerySampler  # noqa: F401
