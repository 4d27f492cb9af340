"""Discrete-event simulation kernel.

This package provides a small, dependency-free discrete-event simulation
(DES) core in the style of SimPy: an :class:`~repro.sim.engine.Engine`
drives generator-based processes that ``yield`` events (timeouts,
resource requests, arbitrary one-shot events). All timed experiments in the
reproduction (GC interference, tail latency, zone-append contention) run on
this kernel; untimed experiments drive device state machines directly and
never touch it.

Time is a float in **microseconds**. NAND latencies are hundreds of
microseconds to milliseconds, so microseconds give comfortable resolution
without precision issues over simulated runs of minutes.
"""

from repro.sim.engine import (
    Engine,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import PriorityResource, Resource
from repro.sim.rng import make_rng

__all__ = [
    "Engine",
    "Event",
    "Process",
    "PriorityResource",
    "Resource",
    "SimulationError",
    "Timeout",
    "make_rng",
]
