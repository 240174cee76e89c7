"""Discrete-event simulation kernel (events, processes, resources, probes)."""

from repro.sim.kernel import (
    Continuation,
    Event,
    KernelStatsCollector,
    Process,
    Simulator,
    all_of,
    any_of,
    collect_kernel_stats,
)
from repro.sim.resources import Resource, Store
from repro.sim.trace import Counter, LatencyStat, ProbeSet, TimeWeighted

__all__ = [
    "Continuation",
    "Event",
    "KernelStatsCollector",
    "Process",
    "Simulator",
    "all_of",
    "any_of",
    "collect_kernel_stats",
    "Resource",
    "Store",
    "Counter",
    "LatencyStat",
    "ProbeSet",
    "TimeWeighted",
]
