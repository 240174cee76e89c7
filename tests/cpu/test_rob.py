"""Unit tests for the reorder buffer model."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.cpu.rob import ReorderBuffer
from repro.sim import Event, Simulator, Store


def test_allocate_within_capacity_does_not_stall():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=8)

    def frontend():
        yield from rob.allocate(5)
        return sim.now

    assert sim.run(sim.process(frontend())) == 0
    assert rob.used == 5


def test_allocate_blocks_until_retirement():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=4)
    grants = []

    def frontend():
        yield from rob.allocate(4)
        rob.commit(4, sim.timeout(100))
        yield from rob.allocate(2)
        grants.append(sim.now)

    sim.process(frontend())
    sim.run()
    assert grants == [100]


def test_retirement_is_in_order():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=10)
    retired = []

    def frontend():
        # Older group finishes LATE, younger finishes early.
        yield from rob.allocate(3)
        rob.commit(3, sim.timeout(100), on_retire=lambda: retired.append(("old", sim.now)))
        yield from rob.allocate(3)
        rob.commit(3, sim.timeout(10), on_retire=lambda: retired.append(("young", sim.now)))

    sim.process(frontend())
    sim.run()
    # The young group may complete at t=10 but retires behind the old one.
    assert retired == [("old", 100), ("young", 100)]


def test_long_latency_head_blocks_slot_reuse():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=4)
    times = []

    def frontend():
        yield from rob.allocate(4)
        rob.commit(4, sim.timeout(1000))
        yield from rob.allocate(1)  # must wait for the head to retire
        times.append(sim.now)

    sim.process(frontend())
    sim.run()
    assert times == [1000]


def test_oversized_allocation_rejected():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=4)

    def frontend():
        yield from rob.allocate(5)

    with pytest.raises(SimulationError):
        sim.run(sim.process(frontend()))


def test_nonpositive_allocation_rejected():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=4)

    def frontend():
        yield from rob.allocate(0)

    with pytest.raises(SimulationError):
        sim.run(sim.process(frontend()))


def test_free_slots_accounting():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=16)

    def frontend():
        yield from rob.allocate(6)
        rob.commit(6, sim.timeout(10))
        yield from rob.allocate(4)
        rob.commit(4, sim.timeout(20))

    sim.process(frontend())
    sim.run()
    assert rob.free == 16
    assert rob.max_used == 10
    assert rob.retired_groups == 2


def test_already_fired_completion_retires_immediately():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=4)
    retired = []

    def frontend():
        yield from rob.allocate(2)
        done = sim.event()
        done.succeed(None)
        rob.commit(2, done, on_retire=lambda: retired.append(sim.now))
        yield sim.timeout(5)

    sim.process(frontend())
    sim.run()
    assert retired == [0]
    assert rob.free == 4


def test_try_allocate_takes_free_slots_without_queueing():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=4)
    assert rob.try_allocate(3)
    assert not rob.try_allocate(2)
    assert rob.used == 3
    assert rob.max_used == 3
    assert rob.allocated_slots == 3
    with pytest.raises(SimulationError):
        rob.try_allocate(5)
    with pytest.raises(SimulationError):
        rob.try_allocate(0)


def test_try_allocate_does_not_overtake_a_stalled_request():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=4)
    grants = []

    def stalled():
        yield from rob.allocate(4)
        grants.append(sim.now)

    assert rob.try_allocate(2)
    sim.process(stalled())
    sim.run()
    # One free slot would fit, but the queued request is older.
    assert rob.free == 2
    assert not rob.try_allocate(1)
    rob.commit(2, sim.timeout(10))
    sim.run()
    assert grants == [10]


def test_failed_completion_crashes_the_run_naming_the_rob():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=4, name="rob7")

    def frontend():
        yield from rob.allocate(1)
        done = sim.event()
        rob.commit(1, done)
        yield sim.timeout(5)
        done.fail(ValueError("load faulted"))

    sim.process(frontend())
    with pytest.raises(ValueError, match="load faulted") as info:
        sim.run()
    assert any("rob7" in note for note in info.value.__notes__)


# ---------------------------------------------------------------------------
# Differential test: callback retirement vs the process-based original
# ---------------------------------------------------------------------------


class _ProcessRob:
    """The ROB as it was before retirement became a callback chain: a
    retire process takes every committed group from a ``Store`` and
    waits on its completion.  Kept verbatim (tracing aside) as the
    oracle for the firing order the callback chain must reproduce."""

    def __init__(self, sim, capacity, name="rob"):
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.free = capacity
        self._entries = Store(sim, name=f"{name}-entries")
        self._waiters = deque()
        self._idle_waiters = []
        self.max_used = 0
        self.retired_groups = 0
        self.allocated_slots = 0
        self.retired_slots = 0
        sim.process(self._retire_loop(), name=f"{name}-retire")

    @property
    def used(self):
        return self.capacity - self.free

    def allocate(self, slots):
        if self.free >= slots and not self._waiters:
            self.free -= slots
            self.allocated_slots += slots
        else:
            grant = Event(self.sim)
            self._waiters.append((slots, grant))
            yield grant
        self.max_used = max(self.max_used, self.used)

    def commit(self, slots, done, on_retire=None):
        self._entries.put((slots, done, on_retire))

    def _retire_loop(self):
        while True:
            slots, done, on_retire = yield self._entries.get()
            if not done.fired:
                yield done
            self.free += slots
            self.retired_slots += slots
            self.retired_groups += 1
            if on_retire is not None:
                on_retire()
            self._grant_waiters()
            if self.free == self.capacity and not self._waiters:
                waiters, self._idle_waiters = self._idle_waiters, []
                for waiter in waiters:
                    waiter.succeed(None)

    def idle(self):
        event = Event(self.sim)
        if self.free == self.capacity and not self._waiters:
            event.succeed(None)
        else:
            self._idle_waiters.append(event)
        return event

    def _grant_waiters(self):
        while self._waiters and self._waiters[0][0] <= self.free:
            slots, grant = self._waiters.popleft()
            self.free -= slots
            self.allocated_slots += slots
            grant.succeed(None)


#: How a committed group's completion event behaves: already fired at
#: commit, triggered at commit (fires this tick), a later timeout, the
#: previous group's completion reused, or a fixed latency chained
#: behind the previous completion.
_DONE_KINDS = ("fired", "now", "later", "shared", "chained")

_ops = st.lists(
    st.tuples(
        st.integers(1, 8),  # slots
        st.sampled_from(_DONE_KINDS),
        st.integers(0, 40),  # completion delay
        st.integers(0, 3),  # front-end gap before the next op
        st.booleans(),  # probe idle() after committing
    ),
    min_size=1,
    max_size=24,
)


def _trace(rob_class, capacity, frontends, ops):
    sim = Simulator()
    rob = rob_class(sim, capacity)
    log = []

    def frontend(fid):
        last = None
        for index in range(fid, len(ops), frontends):
            slots, kind, delay, gap, probe = ops[index]
            slots = min(slots, capacity)
            yield from rob.allocate(slots)
            log.append(("grant", index, sim.now, rob.free))
            if kind == "fired":
                done = sim.event()
                done.succeed(index)
                yield done
            elif kind == "now":
                done = sim.event()
                done.succeed(index)
            elif kind == "shared" and last is not None:
                done = last
            elif kind == "chained" and last is not None:
                done = sim.delayed(last, delay)
            else:
                done = sim.timeout(delay)
            rob.commit(
                slots,
                done,
                lambda index=index: log.append(
                    ("retire", index, sim.now, rob.free)
                ),
            )
            last = done
            if probe:
                rob.idle().add_callback(
                    lambda _ev, index=index: log.append(("idle", index, sim.now))
                )
            if gap:
                yield sim.timeout(gap)
        yield rob.idle()
        log.append(("drained", fid, sim.now))

    for fid in range(frontends):
        sim.process(frontend(fid))
    sim.run()
    log.append(
        (
            "final",
            sim.now,
            rob.free,
            rob.max_used,
            rob.allocated_slots,
            rob.retired_slots,
            rob.retired_groups,
        )
    )
    return log


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 12),
    frontends=st.integers(1, 3),
    ops=_ops,
)
def test_callback_retirement_matches_process_reference(capacity, frontends, ops):
    """Same ticks, retire order, grant order, idle fires, and slot
    accounting as the process-based ROB, for random group sizes,
    completions that are already fired, fire this tick, fire later or
    are shared, and several front ends contending for slots."""
    expected = _trace(_ProcessRob, capacity, frontends, ops)
    assert _trace(ReorderBuffer, capacity, frontends, ops) == expected
