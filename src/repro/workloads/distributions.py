"""Key distributions over the unit interval (Sec. 4.4).

Each distribution produces floats in ``[0, 1)`` that are mapped onto the
integer key space by :func:`repro.pgrid.keyspace.float_to_key`.  The
registry :data:`DISTRIBUTIONS` uses the paper's figure labels::

    U      uniform
    P0.5   truncated Pareto, shape 0.5   (extreme skew)
    P1.0   truncated Pareto, shape 1.0
    P1.5   truncated Pareto, shape 1.5
    N      truncated Normal(1/2, 0.05)   (sharp central spike)
    A      synthetic Alvis-like text keys (Zipf vocabulary)

The Pareto scale parameter is not legible in the available copy of the
paper; we use ``x_m = 1e-3``, which concentrates ~``1 - x_m^k`` of the
mass in the lowest decades of the key space -- the "very skewed" regime
the paper discusses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from .._util import RngLike, make_rng
from ..exceptions import DomainError
from ..pgrid.keyspace import float_to_key

__all__ = [
    "KeyDistribution",
    "UniformDistribution",
    "ParetoDistribution",
    "NormalDistribution",
    "TextKeyDistribution",
    "SlicedDistribution",
    "DISTRIBUTIONS",
    "distribution",
]


class KeyDistribution:
    """Base class: a named sampler of floats in ``[0, 1)``."""

    name: str = "base"

    def sample_floats(self, n: int, rng: RngLike = None) -> List[float]:
        """Draw ``n`` values in ``[0, 1)``."""
        raise NotImplementedError

    def sample_keys(self, n: int, rng: RngLike = None) -> List[int]:
        """Draw ``n`` integer keys."""
        return [float_to_key(x) for x in self.sample_floats(n, rng)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


@dataclass
class UniformDistribution(KeyDistribution):
    """The unskewed baseline ``U``."""

    name: str = "U"

    def sample_floats(self, n: int, rng: RngLike = None) -> List[float]:
        rand = make_rng(rng)
        return [rand.random() for _ in range(n)]


@dataclass
class ParetoDistribution(KeyDistribution):
    """Pareto(shape ``k``, scale ``x_m``) truncated to ``[x_m, 1)``.

    Sampled by inverse-CDF of the truncated law, so all mass genuinely
    lies in the unit interval (no clipping spike at 1.0).  Smaller shapes
    are *more* skewed toward the lower end of the key space.
    """

    shape: float = 1.0
    scale: float = 1e-3
    name: str = "P"

    def __post_init__(self):
        if self.shape <= 0:
            raise DomainError(f"Pareto shape must be positive, got {self.shape}")
        if not 0 < self.scale < 1:
            raise DomainError(f"Pareto scale must lie in (0, 1), got {self.scale}")
        self.name = f"P{self.shape:g}"

    def sample_floats(self, n: int, rng: RngLike = None) -> List[float]:
        rand = make_rng(rng)
        k, xm = self.shape, self.scale
        # Truncated-at-1 Pareto: F(x) = (1 - (xm/x)^k) / (1 - xm^k)
        z = 1.0 - xm**k
        out = []
        for _ in range(n):
            u = rand.random() * z
            x = xm / (1.0 - u) ** (1.0 / k)
            out.append(min(x, math.nextafter(1.0, 0.0)))
        return out


@dataclass
class NormalDistribution(KeyDistribution):
    """Normal(``mu``, ``sigma``) truncated to ``[0, 1)`` by resampling.

    The paper's ``N`` uses mean 1/2 with a small standard deviation,
    concentrating nearly all keys in a narrow central band -- an extreme
    storage-balancing stress for order-preserving overlays.
    """

    mu: float = 0.5
    sigma: float = 0.05
    name: str = "N"

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")

    def sample_floats(self, n: int, rng: RngLike = None) -> List[float]:
        rand = make_rng(rng)
        out = []
        while len(out) < n:
            x = rand.gauss(self.mu, self.sigma)
            if 0.0 <= x < 1.0:
                out.append(x)
        return out


@dataclass
class TextKeyDistribution(KeyDistribution):
    """Keys from the synthetic Alvis-like corpus (label ``A``).

    Terms are drawn with Zipf frequencies from a generated vocabulary and
    mapped through the order-preserving string encoder, yielding the
    clustered, multi-modal skew characteristic of inverted-file term
    keys.
    """

    vocabulary_size: int = 2000
    zipf_exponent: float = 1.0
    name: str = "A"

    def sample_floats(self, n: int, rng: RngLike = None) -> List[float]:
        from ..pgrid.keyspace import MAX_KEY

        return [k / MAX_KEY for k in self.sample_keys(n, rng)]

    def sample_keys(self, n: int, rng: RngLike = None) -> List[int]:
        from .corpus import SyntheticCorpus

        rand = make_rng(rng)
        corpus = SyntheticCorpus(
            vocabulary_size=self.vocabulary_size,
            zipf_exponent=self.zipf_exponent,
            rng=rand,
        )
        return [corpus.sample_term_key(rand) for _ in range(n)]


@dataclass
class SlicedDistribution(KeyDistribution):
    """A base distribution affinely mapped into one keyspace slice.

    Label form ``"<base>@<index>/<count>"`` (e.g. ``"P1.0@2/8"``): every
    sample of the base law is compressed into
    ``[index/count, (index+1)/count)``, preserving its shape within the
    slice.  This is how worker-mode sharding
    (:func:`repro.scenarios.message_runner.slice_spec`) confines one
    worker's key workload to its shard's keyspace region without
    changing the :class:`~repro.scenarios.spec.ScenarioSpec` schema.
    """

    base: KeyDistribution = None
    index: int = 0
    count: int = 1
    name: str = "sliced"

    def __post_init__(self):
        if self.count < 1 or not 0 <= self.index < self.count:
            raise DomainError(
                f"slice {self.index}/{self.count} is not a valid keyspace slice"
            )
        self.name = f"{self.base.name}@{self.index}/{self.count}"

    def sample_floats(self, n: int, rng: RngLike = None) -> List[float]:
        lo = self.index / self.count
        width = 1.0 / self.count
        return [lo + x * width for x in self.base.sample_floats(n, rng)]


#: Registry keyed by the paper's figure labels.
DISTRIBUTIONS: Dict[str, KeyDistribution] = {
    "U": UniformDistribution(),
    "P0.5": ParetoDistribution(shape=0.5),
    "P1.0": ParetoDistribution(shape=1.0),
    "P1.5": ParetoDistribution(shape=1.5),
    "N": NormalDistribution(),
    "A": TextKeyDistribution(),
}


def distribution(label: str) -> KeyDistribution:
    """Look up a distribution by its figure label (e.g. ``"P1.0"``).

    A ``"<base>@<index>/<count>"`` suffix wraps the base distribution in
    a :class:`SlicedDistribution` confined to that keyspace slice.
    """
    base_label, _, slice_part = label.partition("@")
    try:
        base = DISTRIBUTIONS[base_label]
    except KeyError:
        raise DomainError(
            f"unknown distribution {label!r}; known: {sorted(DISTRIBUTIONS)}"
        ) from None
    if not slice_part:
        return base
    try:
        index_s, count_s = slice_part.split("/", 1)
        index, count = int(index_s), int(count_s)
    except ValueError:
        raise DomainError(
            f"malformed slice suffix in {label!r}; expected "
            f"'<base>@<index>/<count>'"
        ) from None
    return SlicedDistribution(base=base, index=index, count=count)
