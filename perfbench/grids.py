"""The two benchmark workloads, as sweep grids over the public entry points.

A workload is a sequence of parts.  Each part is a closed, finite
:class:`~repro.harness.sweep.SweepSpec` of ``run_microbench`` /
``run_service`` / ``run_application`` jobs, issued from one process
through :meth:`SweepEngine.run` with its own worker count, plus the
normalizing baseline jobs the figures derive with :func:`baseline_job`.
Simulated statistics are deterministic, so only host time varies between
runs; the seed changes the inputs only where a part has random input
(``OpenLoopSpec.seed`` on ``service_slo``, ``BfsParams.seed`` on
``apps_swq``).

The four part grids are trimmed versions of the paper figures they stand
for, sized so one repetition of a workload (two parts) takes about six
seconds and a run can report a median of several cold repetitions.
``scale="smoke"`` shrinks each grid to a couple of tiny jobs that
exercise the same code paths for the self-tests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.config import AccessMechanism, DeviceConfig, SwqConfig, SystemConfig
from repro.harness.applications import default_params
from repro.harness.experiment import MeasureWindow
from repro.harness.service import ServiceParams
from repro.harness.sweep import SweepJob, SweepSpec, baseline_job
from repro.workloads.loadgen import ArrivalSpec, KeySpec, OpenLoopSpec
from repro.workloads.microbench import MicrobenchSpec

SCALES = ("full", "smoke")

#: The figure harness's default work count (``figures.DEFAULT_WORK``).
_WORK = 200

#: fig3's measurement window.
_FIG3_WINDOW = MeasureWindow(warmup_us=30.0, measure_us=100.0)


@dataclass(frozen=True)
class Part:
    """One sweep of a workload: a grid and the engine that runs it."""

    name: str
    #: ``SweepEngine`` worker processes.
    engine_jobs: int
    build: Callable[[int, str], SweepSpec]


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: why the benchmark runs this workload.
    why: str
    #: Whether ``--seed`` reaches the simulated inputs.
    seeded: bool
    #: Sweeps run one after another; the workload's wall is their sum.
    parts: tuple[Part, ...]


def _with_baselines(name: str, jobs: list[SweepJob]) -> SweepSpec:
    """The measured jobs plus each one's normalizing baseline, the way
    the figure harness submits them (the engine runs duplicates once)."""
    baselines = [
        dataclasses.replace(baseline_job(job), label=f"base:{job.label}")
        for job in jobs
    ]
    return SweepSpec(name, jobs + baselines)


def _microbench(label, mechanism, latency_us, cores, threads, window,
                reads=1, writes=0) -> SweepJob:
    return SweepJob(
        config=SystemConfig(
            mechanism=mechanism,
            cores=cores,
            threads_per_core=threads,
            device=DeviceConfig(total_latency_us=latency_us),
        ),
        spec=MicrobenchSpec(
            work_count=_WORK, reads_per_batch=reads, writes_per_batch=writes
        ),
        window=window,
        label=label,
    )


def prefetch_rw(seed: int, scale: str) -> SweepSpec:
    """fig3/fig5/future-writes points: prefetch + user threads on one core
    at 1 and 4 us, four cores past the 14-entry chip queue, and posted
    writes beside reads at 10 threads.  No random input."""
    pf = AccessMechanism.PREFETCH
    if scale == "smoke":
        window = MeasureWindow(warmup_us=5.0, measure_us=10.0)
        return _with_baselines("prefetch_rw", [
            _microbench("pf/1us/1c/t10", pf, 1.0, 1, 10, window),
            _microbench("pf/1us/1c/t10/w1", pf, 1.0, 1, 10, window, writes=1),
        ])
    jobs = []
    for latency_us in (1.0, 4.0):
        for threads in (1, 4, 10, 16):
            jobs.append(_microbench(
                f"pf/{latency_us:g}us/1c/t{threads}", pf, latency_us, 1,
                threads, _FIG3_WINDOW,
            ))
    jobs.append(_microbench("pf/1us/4c/t10", pf, 1.0, 4, 10, _FIG3_WINDOW))
    for writes in (1, 4):
        jobs.append(_microbench(
            f"pf/1us/1c/t10/w{writes}", pf, 1.0, 1, 10, _FIG3_WINDOW,
            writes=writes,
        ))
    return _with_baselines("prefetch_rw", jobs)


#: Shortened fig8 window: keeps the SWQ grid at a few seconds per
#: repetition on a two-worker pool.
_SWQ_WINDOW = MeasureWindow(warmup_us=20.0, measure_us=60.0)


def swq_multicore(seed: int, scale: str) -> SweepSpec:
    """fig8's SWQ core/thread grid at 1 us plus fig9's one-core MLP-2 and
    MLP-4 points.  No random input."""
    swq = AccessMechanism.SOFTWARE_QUEUE
    if scale == "smoke":
        window = MeasureWindow(warmup_us=5.0, measure_us=10.0)
        return _with_baselines("swq_multicore", [
            _microbench("swq/1c/t4", swq, 1.0, 1, 4, window),
            _microbench("swq/2c/t4", swq, 1.0, 2, 4, window),
        ])
    jobs = []
    for cores in (1, 2, 4, 8):
        for threads in (4, 16, 32):
            jobs.append(_microbench(
                f"swq/{cores}c/t{threads}", swq, 1.0, cores, threads,
                _SWQ_WINDOW,
            ))
    for reads in (2, 4):
        for threads in (16, 32):
            jobs.append(_microbench(
                f"swq/1c/t{threads}/mlp{reads}", swq, 1.0, 1, threads,
                _SWQ_WINDOW, reads=reads,
            ))
    return _with_baselines("swq_multicore", jobs)


#: figA_slo's per-core service workers and queue-sizing policies.
SLO_WORKERS = 16
SLO_POLICIES = (("under-rule", 8), ("rule-sized", 32))
#: figA_slo's window; the exact-p99 baseline was recorded with it.
SLO_BASELINE_WINDOW = MeasureWindow(warmup_us=40.0, measure_us=400.0)
#: Shortened window for the timed grid.
_SLO_WINDOW = MeasureWindow(warmup_us=20.0, measure_us=100.0)


def slo_job(policy: str, ring: int, cores: int, load: float, seed: int,
            window: MeasureWindow) -> SweepJob:
    """One figA_slo grid point (same construction as ``figA_slo``)."""
    return SweepJob(
        config=SystemConfig(
            mechanism=AccessMechanism.SOFTWARE_QUEUE,
            cores=cores,
            threads_per_core=SLO_WORKERS,
            device=DeviceConfig(total_latency_us=1.0),
            swq=SwqConfig(ring_entries=ring),
        ),
        service=ServiceParams(
            open_loop=OpenLoopSpec(
                arrivals=ArrivalSpec(rate_per_us=load),
                keys=KeySpec(theta=0.0),
                seed=seed,
            ),
            workers_per_core=SLO_WORKERS,
        ),
        window=window,
        label=f"{policy}/{cores}core/{load:g}",
    )


def service_slo(seed: int, scale: str) -> SweepSpec:
    """figA_slo: open-loop Poisson load, rings of 8 and 32 entries, one
    core at 0.1/0.2/0.3 req/us/core and eight cores at 0.3.  Every job
    builds one 2048-item store per core."""
    if scale == "smoke":
        window = MeasureWindow(warmup_us=5.0, measure_us=20.0)
        return SweepSpec("service_slo", [
            slo_job(policy, ring, 1, 0.3, seed, window)
            for policy, ring in SLO_POLICIES
        ])
    jobs = []
    for policy, ring in SLO_POLICIES:
        for load in (0.1, 0.2, 0.3):
            jobs.append(slo_job(policy, ring, 1, load, seed, _SLO_WINDOW))
        jobs.append(slo_job(policy, ring, 8, 0.3, seed, _SLO_WINDOW))
    return SweepSpec("service_slo", jobs)


def slo_baseline_spec(seed: int) -> SweepSpec:
    """The four figA_slo points whose p99 ``benchmarks/
    service_baseline.json`` records exactly (quick scale, load 0.3)."""
    return SweepSpec("service_slo_baseline", [
        slo_job(policy, ring, cores, 0.3, seed, SLO_BASELINE_WINDOW)
        for policy, ring in SLO_POLICIES
        for cores in (1, 8)
    ])


#: Threads per core of fig10 panel (d).
_APP_THREADS = 16


def apps_swq(seed: int, scale: str) -> SweepSpec:
    """fig10 panel (d): SWQ at 8 cores x 16 threads running bfs and bloom
    to completion, each with its one-thread DRAM baseline."""
    cores, threads, vertices, queries = 8, _APP_THREADS, 64, 8
    if scale == "smoke":
        cores, threads, vertices, queries = 2, 4, 16, 2
    config = SystemConfig(
        mechanism=AccessMechanism.SOFTWARE_QUEUE,
        cores=cores,
        threads_per_core=threads,
        device=DeviceConfig(total_latency_us=1.0),
    )
    bfs = dataclasses.replace(
        default_params("bfs", bfs_vertices=vertices), seed=seed
    )
    bloom = default_params("bloom", ops_per_thread=queries)
    return _with_baselines("apps_swq", [
        SweepJob(config=config, app="bfs", params=bfs, label="d/bfs"),
        SweepJob(config=config, app="bloom", params=bloom, label="d/bloom"),
    ])


WORKLOADS = {
    "microbench": Workload(
        "microbench",
        "closed-loop microbenchmarks, no store setup: serial prefetch jobs "
        "(OoO core, LFB, uncore), then SWQ jobs on the two-worker sweep pool "
        "(queue pairs, fetcher, PCIe)",
        seeded=False,
        parts=(
            Part("prefetch_rw", 1, prefetch_rw),
            Part("swq_multicore", 2, swq_multicore),
        ),
    ),
    "service_apps": Workload(
        "service_apps",
        "setup-heavy open-loop service on the SWQ runtime (22 identical "
        "stores), then bfs and bloom to completion at 8x16 threads (barrier "
        "spins, empty CQ polls)",
        seeded=True,
        parts=(
            Part("service_slo", 1, service_slo),
            Part("apps_swq", 1, apps_swq),
        ),
    ),
}


def build_parts(workload: str, seed: int, scale: str) -> list[tuple[Part, SweepSpec]]:
    """Each part of ``workload`` with its sweep for ``seed``."""
    return [(part, part.build(seed, scale))
            for part in WORKLOADS[workload].parts]
