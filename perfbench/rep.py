"""One cold repetition of a benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition, so every repetition
pays what regenerating a figure pays: a fresh interpreter state, a cold
result cache, and the sweep engine's own worker pool.  The workload's
parts run one after another, each on its own engine and cache.  The
record of the repetition is written as JSON to ``--out``::

    python3 perfbench/rep.py --workload microbench --seed 1 \\
        --mode plain --work-dir .perfbench_tmp/x --out .perfbench_tmp/x.json

``src`` must be on ``PYTHONPATH``.  The garbage collector is held fixed:
enabled at its default thresholds, with everything imported before the
sweep frozen out of its generations.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import pstats
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import grids, layers  # noqa: E402
from repro.harness.figures import FigureResult, queue_rule_report  # noqa: E402
from repro.harness.sweep import SweepEngine  # noqa: E402
from repro.units import NS, S, US  # noqa: E402
from repro.workloads.loadgen import OpenLoopSpec  # noqa: E402

#: Held-out (not calibrated) paper anchors, EXPERIMENTS.md.
FIG9_MLP_PEAKS = {2: 0.45, 4: 0.35}
FIG8_USEFUL_GBPS = 2.0
FIG10D_BAND = (1.2, 2.0)
LINE_BYTES = 64

SERVICE_BASELINE = Path("benchmarks") / "service_baseline.json"


def payload_digest(payload: dict) -> str:
    """Digest of a job's simulated outputs.  ``kernel_stats`` is left
    out: event counts may change under a performance-only change."""
    simulated = {k: v for k, v in payload.items() if k != "kernel_stats"}
    text = json.dumps(simulated, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _ops(payload: dict) -> int:
    kind = payload.get("kind")
    if kind == "microbench":
        return payload["accesses"]
    if kind == "service":
        return payload["completions"]
    if kind == "application":
        return payload["operations"]
    return 0


def _plant_payload(outcomes) -> list[dict]:
    payloads = [dict(outcome.payload) for outcome in outcomes]
    first = payloads[0]
    field = next(k for k, v in sorted(first.items())
                 if isinstance(v, (int, float)) and not isinstance(v, bool))
    first[field] = first[field] + 1
    return payloads


def _max_rss_mb() -> float:
    """Peak RSS of this process and its pool workers.

    This process's own peak is read from ``VmHWM``, which starts afresh
    at ``exec``; ``getrusage`` would carry over the peak of the process
    that spawned it.  The workers are forked, not exec'd, so their
    ``RUSAGE_CHILDREN`` peak is their own.
    """
    own_kb = 0
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                own_kb = int(line.split()[1])
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, children_kb) / 1024.0


# -- paper claims and anchors (oracle repetition, full scale) -------------------


def _by_label(outcomes) -> dict[str, dict]:
    return {outcome.job.label: outcome.payload for outcome in outcomes}


def swq_paper_err(payloads: dict[str, dict]) -> tuple[float, dict]:
    values = {}
    for reads, anchor in FIG9_MLP_PEAKS.items():
        peak = max(
            payloads[f"swq/1c/t{t}/mlp{reads}"]["work_ipc"]
            / payloads[f"base:swq/1c/t{t}/mlp{reads}"]["work_ipc"]
            for t in (16, 32)
        )
        values[f"fig9_mlp{reads}_peak"] = (peak, anchor)
    useful = max(
        payloads[f"swq/8c/t{t}"]["accesses"] * LINE_BYTES
        / (payloads[f"swq/8c/t{t}"]["ticks"] / S) / 1e9
        for t in (4, 16, 32)
    )
    values["fig8_8core_useful_gbps"] = (useful, FIG8_USEFUL_GBPS)
    err = max(abs(value - anchor) / anchor for value, anchor in values.values())
    return 100.0 * err, {k: v[0] for k, v in values.items()}


def apps_paper_err(payloads: dict[str, dict]) -> tuple[float, dict]:
    low, high = FIG10D_BAND
    speedups, err = {}, 0.0
    for app in ("bfs", "bloom"):
        run, base = payloads[f"d/{app}"], payloads[f"base:d/{app}"]
        speedup = (base["ticks"] / base["operations"]) / (
            run["ticks"] / run["operations"])
        speedups[f"fig10d_{app}_speedup"] = speedup
        if speedup < low:
            err = max(err, (low - speedup) / low)
        elif speedup > high:
            err = max(err, (speedup - high) / high)
    return 100.0 * err, speedups


def _slo_figure(outcomes) -> FigureResult:
    """figA_slo-shaped p99 series (``queue_rule_report`` input)."""
    figure = FigureResult("figA_slo", "service_slo", "load", "p99 us")
    lines = {}
    for outcome in outcomes:
        policy, cores, load = outcome.job.label.split("/")
        label = f"{policy}/{cores}/p99"
        if label not in lines:
            lines[label] = figure.new_series(label)
        lines[label].add(float(load), outcome.payload["p99_ns"] / (US / NS))
    return figure


def prefetch_claims(records: list[dict]) -> list[str]:
    failures = []
    models = [r["model"] for r in records if "model" in r]
    single = [m for m in models if m["backing"] != "dram" and m["cores"] == 1
              and m["threads"] >= 10]
    multi = [m for m in models if m["backing"] != "dram" and m["cores"] == 4]
    if not single or any(m["lfb_max"] != 10 for m in single):
        failures.append("LFB occupancy does not peak at exactly 10: "
                        f"{[m['lfb_max'] for m in single]}")
    if not multi or any(m["chip_queue_max"] != 14 for m in multi):
        failures.append("chip queue does not peak at exactly 14: "
                        f"{[m['chip_queue_max'] for m in multi]}")
    return failures


def service_claims(outcomes, seed: int, work_dir: Path) -> list[str]:
    failures = []
    report = queue_rule_report(_slo_figure(outcomes))
    if not report["holds"]:
        failures.append(f"queue-sizing rule does not hold: {report['per_cores']}")
    if seed != OpenLoopSpec().seed:
        return failures
    expected = json.loads(SERVICE_BASELINE.read_text())["p99_us"]
    engine = SweepEngine(jobs=1, cache_dir=work_dir / "baseline-cache")
    measured = {}
    for outcome in engine.run(grids.slo_baseline_spec(seed)):
        policy, cores, _load = outcome.job.label.split("/")
        measured[f"{policy}/{cores}/p99"] = outcome.payload["p99_ns"] / (US / NS)
    for label, value in expected.items():
        if measured.get(label) != value:
            failures.append(f"{label}: p99 {measured.get(label)!r} us != "
                            f"baseline {value!r} us")
    return failures


# -- the repetition ---------------------------------------------------------------


def _run_part(part, spec, mode: str, probes, work_dir: Path) -> dict:
    """Run and time one part's sweep on a fresh engine, cache and ledger."""
    probes.ledger_dir = work_dir / "ledger" / part.name
    probes.ledger_dir.mkdir(parents=True)
    engine_jobs = 1 if mode == "profile" else part.engine_jobs
    engine = SweepEngine(jobs=engine_jobs, cache_dir=work_dir / "cache" / part.name)
    profiler = cProfile.Profile() if mode == "profile" else None
    t0 = perf_counter()
    if profiler is not None:
        profiler.enable()
    outcomes = engine.run(spec)
    if profiler is not None:
        profiler.disable()
    wall_s = perf_counter() - t0
    stats = engine.last_stats
    ledger = layers.read_ledger(probes.ledger_dir)
    driver_s = sum(r["driver_s"] for r in ledger)
    workers = max(1, min(engine_jobs, stats["simulated"]))
    result = {
        "name": part.name,
        "outcomes": outcomes,
        "ledger": ledger,
        "stats": stats,
        "wall_s": wall_s,
        "driver_s": driver_s,
        "workers": workers,
        "overhead_s": wall_s - driver_s / workers,
    }
    if profiler is not None:
        result["profile"] = pstats.Stats(profiler)
    return result


def run(workload_name: str, seed: int, mode: str, scale: str, work_dir: Path,
        plant: str | None = None) -> dict:
    probes = layers.Probes(mode, work_dir / "ledger", seed=seed, plant=plant)
    probes.install()
    parts = grids.build_parts(workload_name, seed, scale)

    gc.collect()
    gc.freeze()
    t0 = perf_counter()
    done = [_run_part(part, spec, mode, probes, work_dir) for part, spec in parts]
    wall_s = perf_counter() - t0
    peak_rss_mb = _max_rss_mb()

    outcomes = [outcome for part in done for outcome in part["outcomes"]]
    ledger = [r for part in done for r in part["ledger"]]
    unique = {(part["name"], outcome.key): outcome.payload
              for part in done for outcome in part["outcomes"]}
    payloads = (_plant_payload(outcomes) if plant == "payload"
                else [outcome.payload for outcome in outcomes])
    kernel: dict = {}
    for part in done:
        for stat, value in part["stats"]["kernel_stats"].items():
            kernel[stat] = kernel.get(stat, 0) + value
    record = {
        "mode": mode,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "jobs": len(outcomes),
        "failed_jobs": [o.job.label for o in outcomes if o.failed],
        "digests": {o.job.label: payload_digest(p)
                    for o, p in zip(outcomes, payloads)},
        "kernel": kernel,
        "simulated": sum(part["stats"]["simulated"] for part in done),
        "retries": sum(part["stats"]["retries"] for part in done),
        "ops": sum(_ops(payload) for payload in unique.values()),
        "driver_s": sum(part["driver_s"] for part in done),
        "overhead_s": sum(part["overhead_s"] for part in done),
        "busy_s": sum(part["workers"] * part["wall_s"] for part in done),
        "cache_io_s": probes.cache_io_s,
        "parts": [{field: part[field] for field in
                   ("name", "wall_s", "driver_s", "workers", "overhead_s")}
                  for part in done],
    }
    for field in ("build_s", "install_s", "run_s", "populate_s",
                  "populate_calls", "graph_s"):
        record[field] = sum(r[field] for r in ledger)
    record["setup_s"] = record["build_s"] + record["install_s"]
    for part, part_record in zip(done, record["parts"]):
        for field in ("build_s", "install_s", "run_s"):
            part_record[field] = sum(r[field] for r in part["ledger"])
    if mode == "profile":
        for part, part_record in zip(done, record["parts"]):
            part_record["self_frac"] = layers.fold_profile(part["profile"])
        total = done[0]["profile"]
        for part in done[1:]:
            total.add(part["profile"])
        record["self_frac"] = layers.fold_profile(total)
    if mode == "oracle":
        probes.uninstall()
        record.update(_oracle(done, seed, scale, work_dir))
    return record


def _oracle(done: list[dict], seed, scale, work_dir) -> dict:
    ledger = [r for part in done for r in part["ledger"]]
    builds = [digest for r in ledger for digest in r["builds"]]
    repeats = len(builds) - len(set(builds))
    result = {
        "oracle_failures": sorted(
            {f for r in ledger for f in r["oracle_failures"]}),
        "oracle_failed_jobs": sum(1 for r in ledger if r["oracle_failures"]),
        "model": layers.aggregate_model([r["model"] for r in ledger]),
        "polls": sum(r["polls"] for r in ledger),
        "builds": len(builds),
        "populate_repeat_frac": repeats / len(builds) if builds else 0.0,
        "claim_failures": [],
        "paper_err_pct": None,
        "anchors": {},
    }
    if scale != "full":
        return result
    if any(outcome.failed for part in done for outcome in part["outcomes"]):
        return result
    errors = []
    for part in done:
        name, outcomes = part["name"], part["outcomes"]
        payloads = _by_label(outcomes)
        if name == "prefetch_rw":
            result["claim_failures"] += prefetch_claims(part["ledger"])
        elif name == "service_slo":
            result["claim_failures"] += service_claims(outcomes, seed, work_dir)
        elif name == "swq_multicore":
            err, anchors = swq_paper_err(payloads)
            errors.append(err)
            result["anchors"].update(anchors)
        elif name == "apps_swq":
            err, anchors = apps_paper_err(payloads)
            errors.append(err)
            result["anchors"].update(anchors)
    if errors:
        result["paper_err_pct"] = max(errors)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(grids.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=layers.MODES)
    parser.add_argument("--scale", default="full", choices=grids.SCALES)
    parser.add_argument("--plant", choices=("payload", "store"))
    parser.add_argument("--work-dir", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.mode, args.scale,
                 args.work_dir, plant=args.plant)
    args.out.write_text(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
