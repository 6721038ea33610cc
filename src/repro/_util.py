"""Internal helpers shared across the package.

Seeded random-number handling and environment-variable based scaling of
experiment sizes live here so that every experiment is reproducible and
cheap by default, yet can be scaled back up to paper-size runs.
"""

from __future__ import annotations

import os
import random
from typing import Union

from .exceptions import DomainError, SimulationError

RngLike = Union[random.Random, int, None]


def make_rng(rng: RngLike = None) -> random.Random:
    """Return a :class:`random.Random` from a seed, an existing RNG or ``None``.

    Passing an existing ``random.Random`` returns it unchanged, so nested
    components can share one stream.  An ``int`` seeds a fresh generator and
    ``None`` draws the seed from :func:`env_seed` (default 20050830, the
    VLDB'05 conference date) for deterministic-by-default experiments.
    """
    if isinstance(rng, random.Random):
        return rng
    if rng is None:
        return random.Random(env_seed())
    return random.Random(rng)


def env_seed() -> int:
    """Global experiment seed, overridable through ``REPRO_SEED``."""
    return int(os.environ.get("REPRO_SEED", "20050830"))


def env_reps(default: int) -> int:
    """Number of experiment repetitions, overridable through ``REPRO_REPS``."""
    value = os.environ.get("REPRO_REPS")
    if value is None:
        return default
    return max(1, int(value))


def env_scale(default: float = 1.0) -> float:
    """Population-size multiplier, overridable through ``REPRO_SCALE``."""
    value = os.environ.get("REPRO_SCALE")
    if value is None:
        return default
    return float(value)


def scaled(n: int, minimum: int = 1) -> int:
    """Scale an experiment size ``n`` by the ``REPRO_SCALE`` multiplier."""
    return max(minimum, int(round(n * env_scale())))


def sample_online(items, is_online, rand, probes: int = 8):
    """A uniformly random member of ``items`` satisfying ``is_online``.

    Rejection-samples an indexable sequence (uniform among online
    members by construction) instead of materializing the online list
    per call; falls back to the full filtered scan when the random
    probes keep missing (heavy churn).  Returns ``None`` when nothing
    is online.  Shared by :meth:`PGridNetwork.random_online_peer` and
    the message scenario backend's origin selection -- the draw
    sequence (``probes`` uniforms, then one ``randrange`` on the
    fallback) is part of the golden-trace determinism contract.
    """
    if not items:
        return None
    n = len(items)
    for _ in range(probes):
        # min() guards the half-ulp case where random()*n rounds up to
        # exactly n (possible for n not a power of two).
        item = items[min(int(rand.random() * n), n - 1)]
        if is_online(item):
            return item
    online = [item for item in items if is_online(item)]
    if not online:
        return None
    return online[rand.randrange(len(online))]


def ensure_monotonic(times, what: str = "phases") -> None:
    """Validate that ``times`` is non-decreasing (a sane phase timeline).

    Shared by :class:`repro.simnet.experiment.ExperimentConfig` and
    :class:`repro.scenarios.spec.ScenarioSpec`; raises
    :class:`~repro.exceptions.SimulationError` on the first inversion.
    """
    times = list(times)
    if any(b < a for a, b in zip(times, times[1:])):
        raise SimulationError(f"{what} out of order: {times}")


def check_probability(value: float, name: str = "p") -> float:
    """Validate that ``value`` is a probability in ``[0, 1]`` and return it."""
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def mean(values) -> float:
    """Arithmetic mean of a non-empty sequence."""
    values = list(values)
    return sum(values) / len(values)


def std(values) -> float:
    """Population standard deviation of a sequence (0.0 for len < 2)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return (sum((v - mu) ** 2 for v in values) / len(values)) ** 0.5
