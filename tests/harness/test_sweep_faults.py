"""Fault-injection suite for the sweep engine's failure paths.

Every scenario the worker-failure machinery claims to survive is
exercised here against the real multi-process execution path: hanging
workers (killed and replaced), crashing workers (retried, then executed
in-process), deterministically failing jobs (structured per-job
failures that never poison neighbours), spurious queue-wait timeouts
(the deadline runs from the observed job start, not submission), and a
mid-sweep interrupt followed by a bit-for-bit identical resume.

The injected faults key off ``multiprocessing.current_process().name``:
engine workers are forked children (so they inherit the monkeypatched
``sweep_mod._execute_job``), while the parent's in-process fallback
runs in ``MainProcess`` and is spared -- exactly the asymmetry a real
worker-environment fault has.
"""

import multiprocessing
import time

import pytest

from repro.config import AccessMechanism, DeviceConfig, SystemConfig
from repro.harness import sweep as sweep_mod
from repro.harness.coordinator import DONE, FAILED, WorkQueue
from repro.harness.experiment import MeasureWindow
from repro.harness.sweep import SweepEngine, SweepJob, SweepSpec
from repro.workloads.microbench import MicrobenchSpec

TINY = MeasureWindow(warmup_us=2.0, measure_us=8.0)

#: ``work_count`` marking the job a fault is injected into.
SENTINEL = 7777

_REAL_EXECUTE = sweep_mod._execute_job


def _job(work) -> SweepJob:
    return SweepJob(
        config=SystemConfig(
            mechanism=AccessMechanism.PREFETCH,
            threads_per_core=2,
            device=DeviceConfig(total_latency_us=1.0),
        ),
        spec=MicrobenchSpec(work_count=work),
        window=TINY,
    )


def _in_worker() -> bool:
    return multiprocessing.current_process().name != "MainProcess"


def _fake_payload(job) -> dict:
    return {
        "kind": "microbench",
        "work": job.spec.work_count,
        "proc": multiprocessing.current_process().name,
    }


def _worker_index(worker: str):
    """The N of an engine worker named ``...-wN`` (None otherwise)."""
    head, sep, tail = worker.rpartition("-w")
    if not sep or not tail.isdigit():
        return None
    return int(tail)


# ---------------------------------------------------------------------------
# Hanging workers: killed, replaced, concurrency restored
# ---------------------------------------------------------------------------

def test_hung_worker_is_killed_and_replaced(tmp_path, monkeypatch):
    def _hang_on_sentinel(job, collect_metrics, check_invariants):
        if job.spec.work_count == SENTINEL and _in_worker():
            time.sleep(600.0)
        time.sleep(0.06)
        return _fake_payload(job)

    monkeypatch.setattr(sweep_mod, "_execute_job", _hang_on_sentinel)
    jobs = [_job(SENTINEL)] + [_job(work) for work in range(16)]
    engine = SweepEngine(
        jobs=2, retries=0, timeout_s=0.4, use_cache=False,
        queue_dir=tmp_path / "q",
    )
    outcomes = engine.run(SweepSpec(name="hang", jobs=jobs))

    assert [outcome.payload["work"] for outcome in outcomes] == (
        [SENTINEL] + list(range(16))
    )
    stats = engine.last_stats
    assert stats["failed"] == 0
    assert stats["worker_respawns"] >= 1
    assert stats["fallbacks"] >= 1  # the sentinel ran in-process

    # The replacement worker actually drained jobs: some done record
    # names a worker index beyond the two launched at start -- the
    # hung slot was restored, not leaked.
    [queue] = [WorkQueue.attach(path) for path in (tmp_path / "q").iterdir()
               if (path / "manifest.json").exists()]
    indices = {
        _worker_index(queue.done_record(key)["worker"])
        for key in queue.order
    }
    assert any(index is not None and index >= 2 for index in indices)
    assert queue.counts()[DONE] == len(jobs)


# ---------------------------------------------------------------------------
# Crashing workers: retried, then executed in-process
# ---------------------------------------------------------------------------

def test_crashing_workers_never_lose_jobs(monkeypatch):
    def _crash_in_worker(job, collect_metrics, check_invariants):
        if _in_worker():
            import os

            os._exit(5)
        return _fake_payload(job)

    monkeypatch.setattr(sweep_mod, "_execute_job", _crash_in_worker)
    jobs = [_job(work) for work in range(3)]
    engine = SweepEngine(jobs=2, retries=1, timeout_s=60.0, use_cache=False)
    outcomes = engine.run(SweepSpec(name="crash", jobs=jobs))

    assert [outcome.payload["work"] for outcome in outcomes] == [0, 1, 2]
    # Every job ended up in the parent (fallback or emergency drain).
    assert all("MainProcess" in outcome.payload["proc"]
               or outcome.payload["proc"] == "MainProcess"
               for outcome in outcomes)
    stats = engine.last_stats
    assert stats["failed"] == 0
    assert stats["fallbacks"] + stats["retries"] >= len(jobs)


# ---------------------------------------------------------------------------
# Deterministically failing jobs: structured failure, neighbours intact
# ---------------------------------------------------------------------------

def test_failing_job_reports_structured_failure(tmp_path, monkeypatch):
    def _fail_on_sentinel(job, collect_metrics, check_invariants):
        if job.spec.work_count == SENTINEL:
            raise ValueError("injected deterministic fault")
        return _fake_payload(job)

    monkeypatch.setattr(sweep_mod, "_execute_job", _fail_on_sentinel)
    jobs = [_job(0), _job(SENTINEL), _job(1)]
    engine = SweepEngine(
        jobs=2, retries=1, timeout_s=60.0, use_cache=False,
        queue_dir=tmp_path / "q",
    )
    outcomes = engine.run(SweepSpec(name="fail", jobs=jobs))

    good = [outcomes[0], outcomes[2]]
    bad = outcomes[1]
    assert not any(outcome.failed for outcome in good)
    assert [outcome.payload["work"] for outcome in good] == [0, 1]
    assert bad.failed
    assert "ValueError: injected deterministic fault" in bad.error
    assert bad.payload["kind"] == "failure"

    stats = engine.last_stats
    assert stats["failed"] == 1
    assert stats["failures"] == {bad.key: bad.error}
    assert stats["queue"]["counts"][FAILED] == 1

    # Completed results are durable; the failure is a queue record.
    [queue] = [WorkQueue.attach(path) for path in (tmp_path / "q").iterdir()
               if (path / "manifest.json").exists()]
    assert queue.state(bad.key) == FAILED
    assert queue.failure(bad.key)["error_type"] == "ValueError"
    for outcome in good:
        assert queue.done_record(outcome.key)["payload"] == outcome.payload


def test_failing_job_on_the_serial_path(monkeypatch):
    def _fail_on_sentinel(job, collect_metrics, check_invariants):
        if job.spec.work_count == SENTINEL:
            raise ValueError("serial fault")
        return _fake_payload(job)

    monkeypatch.setattr(sweep_mod, "_execute_job", _fail_on_sentinel)
    engine = SweepEngine(jobs=1, use_cache=False)
    outcomes = engine.run(
        SweepSpec(name="serial-fail", jobs=[_job(0), _job(SENTINEL)])
    )
    assert not outcomes[0].failed
    assert outcomes[1].failed
    assert engine.last_stats["failed"] == 1


# ---------------------------------------------------------------------------
# Queue-wait is not execution time: no spurious timeouts
# ---------------------------------------------------------------------------

def test_queued_jobs_do_not_time_out_waiting_for_a_slot(monkeypatch):
    def _slow(job, collect_metrics, check_invariants):
        time.sleep(0.15)
        return _fake_payload(job)

    monkeypatch.setattr(sweep_mod, "_execute_job", _slow)
    # 8 jobs over 2 slots: the tail of the queue waits ~0.45 s for a
    # slot, well past the 0.3 s per-job deadline.  The deadline runs
    # from each job's observed start, so nothing times out.
    jobs = [_job(work) for work in range(8)]
    engine = SweepEngine(jobs=2, retries=0, timeout_s=0.3, use_cache=False)
    outcomes = engine.run(SweepSpec(name="queue-wait", jobs=jobs))

    assert [outcome.payload["work"] for outcome in outcomes] == list(range(8))
    stats = engine.last_stats
    assert stats["retries"] == 0
    assert stats["fallbacks"] == 0
    assert stats["worker_respawns"] == 0
    assert stats["failed"] == 0


# ---------------------------------------------------------------------------
# Interrupt and resume: bit-for-bit identical outcomes
# ---------------------------------------------------------------------------

class _InterruptAfter:
    """Progress hook that raises KeyboardInterrupt mid-sweep."""

    def __init__(self, after: int) -> None:
        self.after = after
        self.done = 0

    def begin(self, name, total, cache_hits, workers) -> None:
        pass

    def job_done(self, wall_s, active=0) -> None:
        self.done += 1
        if self.done >= self.after:
            raise KeyboardInterrupt

    def heartbeat(self, active) -> None:
        pass

    def finish(self, stats) -> None:
        pass


def test_interrupted_sweep_resumes_bit_for_bit(tmp_path, monkeypatch):
    works = (10, 20, 30, 40, 50, 60)
    jobs = [_job(work) for work in works]
    reference = SweepEngine(jobs=2, use_cache=False)
    expected = reference.run(SweepSpec(name="resume", jobs=list(jobs)))

    # Make the interrupt point deterministic: in the interrupted run,
    # workers may finish only the first three jobs.  The rest wait on a
    # release file that only the resume phase creates, so the third
    # ``job_done`` always lands with three jobs still unresolved.
    release = tmp_path / "release"
    held = set(works[3:])

    def _held_until_resume(job, collect_metrics=False, check_invariants=False):
        if job.spec.work_count in held and _in_worker():
            deadline = time.monotonic() + 120.0
            while not release.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        return _REAL_EXECUTE(job, collect_metrics, check_invariants)

    monkeypatch.setattr(sweep_mod, "_execute_job", _held_until_resume)

    queue_dir = tmp_path / "q"
    interrupted = SweepEngine(
        jobs=2, use_cache=False, queue_dir=queue_dir,
        progress=_InterruptAfter(after=3),
    )
    with pytest.raises(KeyboardInterrupt):
        interrupted.run(SweepSpec(name="resume", jobs=list(jobs)))
    assert interrupted.last_stats["interrupted"] is True
    partial = interrupted.last_stats["queue"]["counts"]
    assert 0 < partial[DONE] < len(jobs)

    release.touch()
    resumed = SweepEngine(jobs=2, use_cache=False, queue_dir=queue_dir)
    outcomes = resumed.run(SweepSpec(name="resume", jobs=list(jobs)))

    assert [outcome.payload for outcome in outcomes] == [
        outcome.payload for outcome in expected
    ]
    assert resumed.last_stats["failed"] == 0
    # Each job executed exactly once across the interrupt+resume pair,
    # so the experiment's kernel totals match an uninterrupted run's.
    assert (resumed.last_stats["kernel_stats"]
            == reference.last_stats["kernel_stats"])
    assert resumed.last_stats["queue"]["counts"][DONE] == len(jobs)

    # A second resume is a pure queue replay: nothing simulates.
    replay = SweepEngine(jobs=2, use_cache=False, queue_dir=queue_dir)
    replay_outcomes = replay.run(SweepSpec(name="resume", jobs=list(jobs)))
    assert replay.last_stats["simulated"] == 0
    assert replay.last_stats["queue_served"] == len(jobs)
    assert [outcome.payload for outcome in replay_outcomes] == [
        outcome.payload for outcome in expected
    ]
