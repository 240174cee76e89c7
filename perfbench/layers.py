"""Layer probes: wrappers installed around each layer's public functions.

The benchmark measures the simulator from its own files: it replaces the
names the harness calls (``System``, the ``install_*`` functions, the job
drivers, ``KvStore.populate`` ...) with timing wrappers that call the
originals unchanged.  Nothing under ``src/`` knows it is being measured,
and the simulated outputs stay bit-identical.

Each job-driver call (``run_microbench`` / ``run_service`` /
``run_application``) opens a per-job record; the wrappers beneath it add
to that record, and the job-driver wrapper appends it as one JSON line to
``<ledger_dir>/<pid>.jsonl`` when the call returns.  Forked pool workers
inherit the wrappers, so their jobs land in the same ledger directory
and the repetition process reads every worker's records after the sweep.

Modes (one per repetition process):

* ``plain``: only what the end-to-end metrics need -- ``System(...)`` and
  ``install_*`` time (``setup_s``) and the job-driver time.
* ``traced``: adds ``System.run_*``, store populate, graph build and
  result-cache I/O time.
* ``oracle``: untimed.  Adds the output oracles (store words, BFS
  distances), the modelled-component snapshot of every job's ``System``,
  CQ poll counts and the build-input digests behind
  ``workloads.populate_repeat_frac``.
* ``profile``: the ``plain`` wrappers; the repetition runs under cProfile.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import re
from collections import deque
from pathlib import Path
from time import perf_counter

import repro.harness.applications as applications
import repro.harness.experiment as experiment
import repro.harness.service as service
import repro.harness.sweep as sweep
import repro.host.system as host_system
import repro.runtime.driver as runtime_driver
import repro.workloads.bfs as bfs
import repro.workloads.bloom as bloom
import repro.workloads.memcached as memcached

MODES = ("plain", "traced", "oracle", "profile")

#: ``repro.<package>`` names folded into their own ``*.self_frac``;
#: every other frame (stdlib, obs, config, the benchmark) is ``other``.
LAYERS = (
    "harness", "host", "workloads", "memory", "sim", "cpu", "units",
    "runtime", "device", "interconnect",
)

#: Store keys the oracle reads back per store.
ORACLE_KEYS = 16


def _job_record() -> dict:
    return {
        "driver_s": 0.0, "build_s": 0.0, "install_s": 0.0, "run_s": 0.0,
        "populate_s": 0.0, "populate_calls": 0, "graph_s": 0.0,
        "builds": [], "polls": 0, "oracle_failures": [],
    }


def reference_bfs(adjacency: list[list[int]], source: int) -> list[int]:
    """Plain breadth-first distances (-1 for unreachable vertices)."""
    distance = [-1] * len(adjacency)
    distance[source] = 0
    frontier = deque([source])
    while frontier:
        vertex = frontier.popleft()
        for neighbor in adjacency[vertex]:
            if distance[neighbor] < 0:
                distance[neighbor] = distance[vertex] + 1
                frontier.append(neighbor)
    return distance


def store_failures(store, keys) -> list[str]:
    """Keys whose functional GET differs from ``value_word`` content."""
    words = store.params.value_bytes // memcached.WORD_BYTES
    failures = []
    for key in keys:
        expected = [memcached.value_word(key, i) for i in range(words)]
        if store.get_functional(key) != expected:
            failures.append(f"store key {key}: value words differ")
    return failures


_GAUGE_SUM = {
    "rob_max_used": re.compile(r"core\d+\.rob\.max_used$"),
    "empty_polls": re.compile(r"runtime\d+\.empty_polls$"),
    "fetcher_bursts": re.compile(r"device\.fetcher\d+\.bursts_issued$"),
    "fetcher_empty_bursts": re.compile(r"device\.fetcher\d+\.empty_bursts$"),
    "writes_served": re.compile(r"device\.writes_(served|received)$"),
}


def model_record(system, polls: int) -> dict:
    """Simulated per-job values from ``System.report()`` and
    ``System.metrics_snapshot()`` (read after the run; passive)."""
    report = system.report()
    snapshot = system.metrics_snapshot()
    values = {name: [] for name in _GAUGE_SUM}
    for key, entry in snapshot.items():
        for name, pattern in _GAUGE_SUM.items():
            if pattern.match(key):
                values[name].append(entry["value"])
    latency = report["access_latency_ns"]
    config = system.config
    return {
        "mechanism": config.mechanism.value,
        "backing": config.backing.value,
        "cores": config.cores,
        "threads": config.threads_per_core,
        "lfb_max": max(report["lfb_max_per_core"]),
        "chip_queue_max": report["uncore_pcie_max"],
        "rob_max_used": max(values["rob_max_used"]),
        "pcie_up_util": snapshot["pcie.upstream.util"]["mean"],
        "pcie_up_wire_bytes": report["pcie_up_wire_bytes"],
        "pcie_up_payload_bytes": report["pcie_up_payload_bytes"],
        "device_requests": report["device_requests"],
        "context_switches": sum(report["context_switches"]),
        "empty_polls": sum(values["empty_polls"]),
        "polls": polls,
        "fetcher_bursts": sum(values["fetcher_bursts"]),
        "fetcher_empty_bursts": sum(values["fetcher_empty_bursts"]),
        "deadline_misses": report["deadline_misses"],
        "writes_served": sum(values["writes_served"]),
        "access_latency_p99_ns": latency["p99"] if latency else None,
    }


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def aggregate_model(records: list[dict]) -> dict:
    """Grid-level modelled-component metrics from per-job records."""
    device = [r for r in records if r["backing"] != "dram"]

    def total(field, rows=records):
        return sum(r[field] for r in rows)

    p99s = [r["access_latency_p99_ns"] for r in device
            if r["access_latency_p99_ns"] is not None]
    return {
        "cpu.lfb_max_in_flight": max(r["lfb_max"] for r in records),
        "cpu.chip_queue_max": max(r["chip_queue_max"] for r in records),
        "cpu.rob_max_used": max(r["rob_max_used"] for r in records),
        "interconnect.pcie_up_util": max(r["pcie_up_util"] for r in records),
        "interconnect.pcie_up_wire_bytes_per_access": _ratio(
            total("pcie_up_wire_bytes"), total("device_requests")),
        "interconnect.pcie_up_useful_frac": _ratio(
            total("pcie_up_payload_bytes"), total("pcie_up_wire_bytes")),
        "runtime.empty_poll_frac": _ratio(total("empty_polls"), total("polls")),
        "runtime.switches_per_access": _ratio(
            total("context_switches", device), total("device_requests", device)),
        "device.fetcher_empty_burst_frac": _ratio(
            total("fetcher_empty_bursts"), total("fetcher_bursts")),
        "device.deadline_misses": total("deadline_misses"),
        "device.writes_served": total("writes_served"),
        "device.access_latency_p99_ns": max(p99s) if p99s else 0.0,
    }


def _digest(*parts) -> str:
    return hashlib.sha1(repr(parts).encode()).hexdigest()[:16]


class Probes:
    """Installs the layer wrappers for one repetition process.

    ``plant="store"`` corrupts one value word of the first store built
    (oracle mode), so a self-test can show the store oracle fires.
    """

    def __init__(self, mode: str, ledger_dir, seed: int = 0,
                 plant: str | None = None) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown probe mode {mode!r}")
        self.mode = mode
        self.ledger_dir = Path(ledger_dir)
        self.seed = seed
        self.plant = plant
        #: ``ResultCache.load``/``store`` seconds (engine process only).
        self.cache_io_s = 0.0
        self._job = _job_record()
        self._patches: list[tuple[object, str, object]] = []
        self._graphs: dict[str, list[int]] = {}
        self._planted = False
        self._real_generate_graph = bfs.generate_graph

    # -- installation ----------------------------------------------------

    def _patch(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self) -> None:
        self.ledger_dir.mkdir(parents=True, exist_ok=True)
        for module in (experiment, service, applications):
            self._patch(module, "System", self._timer("build_s"))
        self._patch(experiment, "install_microbench", self._timer("install_s"))
        self._patch(service, "install_service", self._timer("install_s"))
        for name in ("install_bloom", "install_memcached", "install_microbench"):
            self._patch(applications, name, self._timer("install_s"))
        self._patch(applications, "install_bfs", self._install_bfs)
        for name in ("run_microbench", "run_service", "run_application"):
            self._patch(sweep, name, self._driver)
        if self.mode in ("traced", "oracle"):
            for name in ("run_window", "run_to_completion"):
                self._patch(host_system.System, name, self._timer("run_s"))
            self._patch(memcached.KvStore, "populate", self._populate)
            self._patch(bloom.BloomFilter, "populate", self._populate)
            self._patch(bfs, "generate_graph", self._timer("graph_s"))
            self._patch(bfs.CsrGraph, "__init__", self._csr_init)
            self._patch(sweep.ResultCache, "load", self._cache_io)
            self._patch(sweep.ResultCache, "store", self._cache_io)
        if self.mode == "oracle":
            self._patch(runtime_driver.CoreRuntime, "_poll_once", self._count_poll)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- wrappers --------------------------------------------------------

    def _timer(self, field: str):
        def make(func):
            @functools.wraps(func, updated=())
            def timed(*args, **kwargs):
                t0 = perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    self._job[field] += perf_counter() - t0
                if field == "build_s" and self.mode == "oracle":
                    self._job["system"] = result
                return result
            return timed
        return make

    def _install_bfs(self, func):
        timed = self._timer("install_s")(func)

        @functools.wraps(func)
        def install_bfs(system, params, threads_per_core):
            runs = timed(system, params, threads_per_core)
            if self.mode == "oracle":
                self._job["bfs"] = [(params, run.distance) for run in runs]
            return runs
        return install_bfs

    def _driver(self, func):
        @functools.wraps(func)
        def driver(*args, **kwargs):
            self._job = _job_record()
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
                self._job["driver_s"] = perf_counter() - t0
                if self.mode == "oracle":
                    self._inspect(self._job)
                self._flush(self._job)
            finally:
                self._job = _job_record()
            return result
        return driver

    def _populate(self, func):
        @functools.wraps(func)
        def populate(store, keys):
            t0 = perf_counter()
            try:
                func(store, keys)
            finally:
                self._job["populate_s"] += perf_counter() - t0
                self._job["populate_calls"] += 1
            if self.mode == "oracle":
                self._job["builds"].append(_digest(
                    type(store).__name__, store.params,
                    keys if isinstance(keys, range) else sorted(keys),
                ))
                if isinstance(store, memcached.KvStore):
                    self._job.setdefault("stores", []).append(store)
                    if self.plant == "store" and not self._planted:
                        self._corrupt(store)
        return populate

    def _csr_init(self, func):
        @functools.wraps(func)
        def csr_init(graph, adjacency, base_addr, world):
            t0 = perf_counter()
            try:
                func(graph, adjacency, base_addr, world)
            finally:
                self._job["graph_s"] += perf_counter() - t0
            if self.mode == "oracle":
                self._job["builds"].append(_digest("CsrGraph", adjacency))
        return csr_init

    def _cache_io(self, func):
        @functools.wraps(func)
        def cache_io(*args, **kwargs):
            t0 = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.cache_io_s += perf_counter() - t0
        return cache_io

    def _count_poll(self, func):
        @functools.wraps(func)
        def poll_once(runtime):
            self._job["polls"] += 1
            return func(runtime)
        return poll_once

    # -- oracle ------------------------------------------------------------

    def oracle_keys(self, items: int) -> list[int]:
        rng = random.Random(self.seed)
        return sorted({0, items - 1, *rng.sample(range(items), ORACLE_KEYS)})

    def _corrupt(self, store) -> None:
        key = self.oracle_keys(store.params.items)[0]
        address = store._value_addr(key)
        store.world.write_word(address, store.world.read_word(address) ^ 1)
        self._planted = True

    def _inspect(self, job: dict) -> None:
        system = job.pop("system", None)
        if system is not None:
            job["model"] = model_record(system, job["polls"])
        failures = job["oracle_failures"]
        for store in job.pop("stores", ()):
            failures += store_failures(store, self.oracle_keys(store.params.items))
        for params, distance in job.pop("bfs", ()):
            key = _digest(params)
            if key not in self._graphs:
                adjacency = self._real_generate_graph(params)
                self._graphs[key] = reference_bfs(adjacency, params.source)
            if distance != self._graphs[key]:
                failures.append(f"bfs distances differ (seed {params.seed})")

    def _flush(self, job: dict) -> None:
        path = self.ledger_dir / f"{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            handle.write(json.dumps(job) + "\n")


def read_ledger(ledger_dir) -> list[dict]:
    """Every job record written by the engine process and its workers."""
    records = []
    for path in sorted(Path(ledger_dir).glob("*.jsonl")):
        with open(path) as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records


def _layer_of(filename: str) -> str:
    marker = f"{os.sep}repro{os.sep}"
    index = filename.rfind(marker)
    if index < 0:
        return "other"
    head = filename[index + len(marker):].split(os.sep)[0]
    name = head[:-3] if head.endswith(".py") else head
    return name if name in LAYERS else "other"


def fold_profile(stats) -> dict[str, float]:
    """Self time by ``repro.<package>`` as fractions summing to 1.

    ``stats`` is a :class:`pstats.Stats`.  Built-in functions (heap
    operations, ``send``, ``isinstance`` ...) have no file of their own;
    their self time goes to the package of each caller, split by the time
    cProfile recorded per caller.
    """
    totals = dict.fromkeys(LAYERS + ("other",), 0.0)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        if filename != "~":
            totals[_layer_of(filename)] += tt
            continue
        split = sum(entry[2] for entry in callers.values())
        if not callers or split <= 0:
            totals["other"] += tt
            continue
        for (caller_file, _l, _n), entry in callers.items():
            layer = "other" if caller_file == "~" else _layer_of(caller_file)
            totals[layer] += tt * entry[2] / split
    grand = sum(totals.values())
    return {layer: _ratio(value, grand) for layer, value in totals.items()}
