"""Layered host-cost benchmark of the simulator.

Runs one workload (or ``all``) as repeated cold repetitions, each in a
fresh process (``rep.py``), from the root of a source checkout::

    python3 perfbench/run.py --workload service_apps --seed 1 --seconds 60 --trace 0

``--trace 0`` times the repetitions with only the setup probes installed
and prints the end-to-end metrics; ``--trace 1`` alternates plain and
traced repetitions, adds one profiled repetition, and prints the
per-layer metrics.  A run of a workload takes about ``--seconds`` in all.
Either way one untimed oracle repetition comes first:
it checks the data-integrity oracles and the paper claims and snapshots
the modelled components.  Every repetition's simulated outputs are
digested and compared with the references committed under
``perfbench/references`` (when one exists for the seed) and with each
other.  Human-readable lines come first; the last line of standard output
is one JSON object.  The exit code is 1 when any output check fails and 2
when the checkout is unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

sys.path.insert(0, str(HERE.parent))

from perfbench.calibrate import REFERENCE_S, calibrate  # noqa: E402
SCRATCH = ROOT / ".perfbench_tmp"

WORKLOADS = ("microbench", "service_apps")
#: Plain repetitions (and plain/traced pairs) a run makes at least,
#: however short ``--seconds``.
MIN_REPS = 3
MIN_PAIRS = 1
#: cProfile's slowdown.  The profiled repetition also runs the pool
#: parts in-process, so it costs about this many plain repetitions times
#: the plain ones' busy time (workers x wall) over their wall.
PROFILE_COST = 3.0
#: No single repetition may take longer (the whole run must end in 180 s).
REP_TIMEOUT_S = 150.0

PER_LAYER_UNITS = {
    "harness.overhead_s": "s", "harness.cache_io_s": "s",
    "harness.parallel_eff": "ratio", "harness.jobs_simulated": "count",
    "harness.retries": "count", "host.build_s": "s", "host.run_s": "s",
    "workloads.install_s": "s", "workloads.populate_share": "ratio",
    "workloads.populate_calls": "count", "workloads.populate_repeat_frac": "ratio",
    "workloads.graph_share": "ratio", "sim.events": "count", "sim.resumes": "count",
    "sim.timed_pushes": "count", "sim.runq_bypass_frac": "ratio",
    "sim.mode_switches": "count", "sim.events_per_op": "count",
    "sim.host_ns_per_event": "ns", "trace.overhead_ratio": "ratio",
    "cpu.lfb_max_in_flight": "count", "cpu.chip_queue_max": "count",
    "cpu.rob_max_used": "count", "interconnect.pcie_up_util": "ratio",
    "interconnect.pcie_up_wire_bytes_per_access": "B",
    "interconnect.pcie_up_useful_frac": "ratio",
    "runtime.empty_poll_frac": "ratio", "runtime.switches_per_access": "count",
    "device.fetcher_empty_burst_frac": "ratio", "device.deadline_misses": "count",
    "device.writes_served": "count", "device.access_latency_p99_ns": "sim_ns",
}
SELF_FRAC_LAYERS = (
    "harness", "host", "workloads", "memory", "sim", "cpu", "units",
    "runtime", "device", "interconnect", "other",
)
for _layer in SELF_FRAC_LAYERS:
    PER_LAYER_UNITS[f"{_layer}.self_frac"] = "ratio"


class RepError(RuntimeError):
    """A repetition process failed or timed out."""


def run_rep(workload: str, seed: int, mode: str, scale: str, run_dir: Path,
            index: int, plant: str | None = None) -> dict:
    """Run one repetition in a fresh process and return its record."""
    work_dir = run_dir / f"rep{index}"
    out = run_dir / f"rep{index}.json"
    (work_dir / "tmp").mkdir(parents=True)
    path = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(path),
        PYTHONHASHSEED="0",
        TMPDIR=str(work_dir / "tmp"),
    )
    cmd = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--scale", scale,
        "--work-dir", str(work_dir), "--out", str(out),
    ]
    if plant:
        cmd += ["--plant", plant]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepError(f"{workload} {mode} repetition timed out")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RepError(f"{workload} {mode} repetition failed:\n{stderr[-3000:]}")
    record = json.loads(out.read_text())
    shutil.rmtree(work_dir, ignore_errors=True)
    return record


def load_reference(workload: str, seed: int, scale: str) -> dict | None:
    """Committed per-job digests for ``seed``, or None if not shipped."""
    path = HERE / "references" / f"{workload}.json"
    if not path.is_file():
        return None
    reference = json.loads(path.read_text())
    key = "any" if reference["seed_independent"] else str(seed)
    return reference["digests"][scale].get(key)


def count_failures(reps: list[dict], reference: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every repetition of a run.

    A job fails when the engine reports it failed, when its digest
    differs from the committed reference, or when it differs from the
    oracle repetition's digest.  Each job whose store or BFS oracle
    fails, and each failed paper claim, counts as one more failed job.
    """
    oracle = reps[0]
    attempted = failed = 0
    messages = []
    for rep in reps:
        bad = set(rep["failed_jobs"])
        for label, digest in rep["digests"].items():
            if reference is not None and reference.get(label) != digest:
                bad.add(label)
                messages.append(f"{rep['mode']}: {label} differs from reference")
            elif digest != oracle["digests"].get(label):
                bad.add(label)
                messages.append(f"{rep['mode']}: {label} differs between repetitions")
        attempted += rep["jobs"]
        failed += len(bad)
    messages += oracle["oracle_failures"] + oracle["claim_failures"]
    failed += oracle["oracle_failed_jobs"] + len(oracle["claim_failures"])
    failed = min(attempted, failed)
    return attempted, failed, sorted(set(messages))


def _median(reps: list[dict], key) -> float:
    return statistics.median(key(rep) for rep in reps)


def _ref(rep: dict, field: str) -> float:
    """``rep[field]`` in seconds at the calibration's reference speed."""
    return rep[field] * rep["speed"]


def end_to_end(timed: list[dict]) -> dict:
    return {
        "wall_ref_s": {"value": _median(timed, lambda r: _ref(r, "wall_s")),
                       "unit": "s"},
        "setup_s": {"value": _median(timed, lambda r: _ref(r, "setup_s")),
                    "unit": "s"},
        "peak_rss_mb": {"value": _median(timed, lambda r: r["peak_rss_mb"]),
                        "unit": "MB"},
    }


def per_layer(oracle: dict, plain: list[dict], traced: list[dict],
              profiled: dict) -> dict:
    kernel = oracle["kernel"]
    events = kernel["events_fired"]
    scheduled = kernel["runq_bypasses"] + kernel["heap_pushes"]
    run_s = _median(traced, lambda r: r["run_s"])
    values = {
        "harness.overhead_s": _median(traced, lambda r: r["overhead_s"]),
        "harness.cache_io_s": _median(traced, lambda r: r["cache_io_s"]),
        "harness.parallel_eff": _median(
            traced, lambda r: r["driver_s"] / r["busy_s"]),
        "harness.jobs_simulated": oracle["simulated"],
        "harness.retries": max(r["retries"] for r in [oracle, *plain, *traced]),
        "host.build_s": _median(traced, lambda r: r["build_s"]),
        "host.run_s": run_s,
        "workloads.install_s": _median(traced, lambda r: r["install_s"]),
        "workloads.populate_share": _median(
            traced, lambda r: r["populate_s"] / r["install_s"]),
        "workloads.populate_calls": oracle["populate_calls"],
        "workloads.populate_repeat_frac": oracle["populate_repeat_frac"],
        "workloads.graph_share": _median(
            traced, lambda r: r["graph_s"] / r["install_s"]),
        "sim.events": events,
        "sim.resumes": kernel["process_resumes"],
        "sim.timed_pushes": kernel["heap_pushes"],
        "sim.runq_bypass_frac": kernel["runq_bypasses"] / scheduled if scheduled else 0.0,
        "sim.mode_switches": kernel["mode_switches"],
        "sim.events_per_op": events / oracle["ops"] if oracle["ops"] else 0.0,
        "sim.host_ns_per_event": run_s * 1e9 / events if events else 0.0,
        "trace.overhead_ratio": _median(traced, lambda r: _ref(r, "wall_s"))
        / _median(plain, lambda r: _ref(r, "wall_s")),
    }
    values.update(oracle["model"])
    for layer in SELF_FRAC_LAYERS:
        values[f"{layer}.self_frac"] = profiled["self_frac"][layer]
    return {name: {"value": values[name], "unit": PER_LAYER_UNITS[name]}
            for name in PER_LAYER_UNITS}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str, plant: str | None) -> dict:
    """All repetitions of one workload; returns the run's summary."""
    run_dir = SCRATCH / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    index = 0

    calibration = None

    def rep(mode: str) -> dict:
        """One repetition; a timed one is bracketed by calibrations, and
        its ``speed`` is REFERENCE_S over their mean."""
        nonlocal index, calibration
        index += 1
        if mode == "oracle":
            return run_rep(workload, seed, mode, scale, run_dir, index, plant)
        before = calibration if calibration is not None else calibrate()
        record = run_rep(workload, seed, mode, scale, run_dir, index, plant)
        calibration = calibrate()
        record["speed"] = REFERENCE_S / ((before + calibration) / 2)
        return record

    # The oracle repetition counts against ``seconds``, so a run's length
    # does not depend on how much checking its seed carries.
    started = perf_counter()
    try:
        oracle = rep("oracle")
        plain, traced, profiled = [], [], None
        timed_from = perf_counter()
        if not trace:
            while True:
                plain.append(rep("plain"))
                now = perf_counter()
                per_rep = (now - timed_from) / len(plain)
                if len(plain) >= MIN_REPS and now - started + per_rep > seconds:
                    break
        else:
            while True:
                order = ("plain", "traced") if len(plain) % 2 == 0 else ("traced", "plain")
                for mode in order:
                    (plain if mode == "plain" else traced).append(rep(mode))
                now = perf_counter()
                pair = (now - timed_from) / len(traced)
                serial = _median(plain, lambda r: r["busy_s"] / r["wall_s"])
                budget = now - started + pair + PROFILE_COST * serial * pair / 2
                if len(traced) >= MIN_PAIRS and budget > seconds:
                    break
            profiled = rep("profile")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    reps = [oracle, *plain, *traced] + ([profiled] if profiled else [])
    reference = load_reference(workload, seed, scale)
    attempted, failed, messages = count_failures(reps, reference)
    metrics = (per_layer(oracle, plain, traced, profiled) if trace
               else end_to_end(plain))
    parts = {}
    for i, part in enumerate(oracle["parts"]):
        parts[part["name"]] = {
            "wall_ref_s": _median(
                plain, lambda r: r["parts"][i]["wall_s"] * r["speed"]),
            "setup_s": _median(plain, lambda r: r["speed"] * (
                r["parts"][i]["build_s"] + r["parts"][i]["install_s"])),
            "self_frac": profiled["parts"][i]["self_frac"] if profiled else None,
        }
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "reps": len(plain) + len(traced), "reference": reference is not None,
        "attempted": attempted, "failed": failed, "messages": messages,
        "paper_err_pct": oracle["paper_err_pct"], "anchors": oracle["anchors"],
        "metrics": metrics, "parts": parts,
        "plain": [(rep["wall_s"], rep["speed"]) for rep in plain],
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_summary(summary: dict) -> None:
    print(f"== {summary['workload']}  seed {summary['seed']}  "
          f"trace {int(summary['trace'])}  {summary['reps']} timed repetitions "
          f"(+1 oracle{', +1 profiled' if summary['trace'] else ''})")
    for name, metric in summary["metrics"].items():
        print(f"  {name:44s} {_fmt(metric['value']):>14s} {metric['unit']}")
    plain = summary["plain"]
    raw = statistics.median(wall for wall, _speed in plain)
    print(f"  {'wall_s (raw, not scaled by host speed)':44s} {_fmt(raw):>14s} s")
    print(f"  {'(untraced raw wall_s per repetition)':44s} "
          + " ".join(f"{wall:.3f}" for wall, _speed in plain))
    print(f"  {'(host speed factor per repetition)':44s} "
          + " ".join(f"{speed:.3f}" for _wall, speed in plain))
    for name, part in summary["parts"].items():
        line = (f"    part {name:20s} wall_ref_s {part['wall_ref_s']:.3f} s  "
                f"setup_s {part['setup_s']:.4f} s")
        if part["self_frac"]:
            top = sorted(part["self_frac"].items(), key=lambda kv: -kv[1])[:4]
            line += "  self " + ", ".join(f"{k} {v:.2f}" for k, v in top)
        print(line)
    frac = summary["failed"] / summary["attempted"]
    print(f"  {'failed_frac':44s} {_fmt(frac):>14s} ratio "
          f"({summary['failed']} of {summary['attempted']} jobs)")
    err = summary["paper_err_pct"]
    print(f"  {'paper_err_pct':44s} "
          f"{'n/a' if err is None else _fmt(err):>14s} %"
          + ("  (no held-out numeric anchor)" if err is None else ""))
    for name, value in summary["anchors"].items():
        print(f"    anchor {name} = {_fmt(value)}")
    if not summary["reference"]:
        print("  note: no committed reference for this seed; digests were "
              "checked for agreement across repetitions only")
    for message in summary["messages"]:
        print(f"  CHECK FAILED: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny grids for the self-tests")
    parser.add_argument("--plant", choices=("payload", "store"),
                        help="plant an output mismatch (self-tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a source checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for name in names:
            summaries.append(measure(name, args.seed, args.seconds,
                                     bool(args.trace), args.scale, args.plant))
            print_summary(summaries[-1])
    except RepError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{name}": metric
                   for s in summaries for name, metric in s["metrics"].items()}
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
