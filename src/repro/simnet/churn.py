"""Churn: peers leave and rejoin on a renewal process (Sec. 5.1).

The paper's final experiment phase has "each peer independently decide to
go offline 1-5 minutes every 5-10 minutes", producing considerable churn
the overlay must absorb.  :class:`ChurnProcess` reproduces exactly that
schedule on the simulator clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from .._util import RngLike, make_rng
from ..exceptions import SimulationError
from .engine import Simulator

__all__ = ["ChurnConfig", "ChurnProcess", "start_churn"]


@dataclass
class ChurnConfig:
    """Churn timing parameters, in seconds (paper defaults in minutes)."""

    min_offline: float = 60.0
    max_offline: float = 300.0
    min_online: float = 300.0
    max_online: float = 600.0

    def validate(self) -> None:
        if not 0 < self.min_offline <= self.max_offline:
            raise SimulationError("invalid offline interval")
        if not 0 < self.min_online <= self.max_online:
            raise SimulationError("invalid online interval")


class ChurnProcess:
    """Drives one node's on/off availability.

    ``set_online`` is called with True/False at each transition; the
    process starts in the online state and alternates uniformly sampled
    online/offline periods until ``stop()`` or ``until`` is reached.
    """

    def __init__(
        self,
        sim: Simulator,
        set_online: Callable[[bool], None],
        *,
        config: Optional[ChurnConfig] = None,
        until: Optional[float] = None,
        rng: RngLike = None,
    ):
        self.sim = sim
        self.set_online = set_online
        self.config = config or ChurnConfig()
        self.config.validate()
        self.until = until
        self.rng = make_rng(rng)
        self.active = False
        self.transitions = 0

    def start(self, *, stagger: bool = False) -> None:
        """Begin alternating periods (first transition after one online
        period).

        With ``stagger`` the first online period is drawn from
        ``[0, max_online]`` instead of ``[min_online, max_online]`` --
        the stationary-renewal approximation that prevents a whole
        population started at the same instant from taking its first
        offline period in one synchronized wave.
        """
        self.active = True
        self._schedule_offline(stagger=stagger)

    def stop(self) -> None:
        """Stop scheduling further transitions (node stays as-is)."""
        self.active = False

    def _expired(self) -> bool:
        return self.until is not None and self.sim.now >= self.until

    def _schedule_offline(self, stagger: bool = False) -> None:
        lo = 0.0 if stagger else self.config.min_online
        delay = self.rng.uniform(lo, self.config.max_online)
        self.sim.schedule(delay, self._go_offline)

    def _go_offline(self) -> None:
        if not self.active or self._expired():
            return
        self.set_online(False)
        self.transitions += 1
        delay = self.rng.uniform(self.config.min_offline, self.config.max_offline)
        self.sim.schedule(delay, self._go_online)

    def _go_online(self) -> None:
        if not self.active:
            return
        self.set_online(True)
        self.transitions += 1
        if not self._expired():
            self._schedule_offline()


def start_churn(
    sim: Simulator,
    set_online_callbacks: Iterable[Callable[[bool], None]],
    *,
    config: Optional[ChurnConfig] = None,
    until: Optional[float] = None,
    stagger: bool = False,
    rng: RngLike = None,
) -> List[ChurnProcess]:
    """Attach one started :class:`ChurnProcess` per callback.

    The shared orchestration behind the Sec. 5 experiment's churn phase
    and the scenario engine's churn phases
    (:mod:`repro.scenarios.runner`): each target gets an independent
    renewal process seeded from one master stream, so a whole
    population's churn stays reproducible from a single seed.
    ``stagger`` spreads the population's first offline periods (see
    :meth:`ChurnProcess.start`).
    """
    rand = make_rng(rng)
    config = config or ChurnConfig()
    procs: List[ChurnProcess] = []
    for callback in set_online_callbacks:
        proc = ChurnProcess(
            sim,
            callback,
            config=config,
            until=until,
            rng=make_rng(rand.randrange(2**31)),
        )
        procs.append(proc)
        proc.start(stagger=stagger)
    return procs
