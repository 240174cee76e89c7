"""Reorder-buffer occupancy tracking with in-order retirement.

The paper's on-demand result (Figure 2) is a story about the ROB: "a
load from a microsecond-latency device will rapidly reach the head of
the reorder buffer, causing it to fill up and stall further instruction
dispatch" (section III-B).  This module models exactly that: dispatch
allocates slots, completion is out of order, retirement is in order,
and a long-latency load at the head holds every younger instruction's
slots hostage.

Two fast paths keep the model off the kernel's hot path:

* ``try_allocate(slots)`` is a plain call that takes free slots if no
  older request is queued, and returns False otherwise.  Only then does
  the front end fall back to the ``allocate`` generator, which waits
  for a grant.  Most dispatches never stall, so most skip the
  generator.
* Retirement is a callback chain, not a process.  Committed groups wait
  in a deque.  One zero-delay step (a kernel ``Continuation``) is
  scheduled whenever retirement has work; the step retires the head
  group if its completion has fired and otherwise waits on that
  completion.  This is the exact firing order of the loop it replaces
  (``Store.get()`` plus ``yield done`` in a process), with no store
  hand-off event and no generator resume per group.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generator, Optional

from repro.errors import SimulationError
from repro.sim import Continuation, Event, Simulator

__all__ = ["ReorderBuffer"]

# Retirement FIFO entries are plain ``(slots, done, on_retire)`` tuples;
# a group is committed for every dispatched chunk, so the entry type is
# on the kernel's hot path and must not cost a class instance.


class ReorderBuffer:
    """Slot accounting for an out-of-order core's instruction window.

    Usage from the core's front-end (a single process):

    1. ``yield from rob.allocate(n)`` -- stall dispatch until ``n``
       slots are free.
    2. ``rob.commit(n, done_event[, on_retire])`` -- enter the dispatched
       group into the retirement FIFO; its slots free once ``done_event``
       has fired *and* every older group has retired.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "rob") -> None:
        if capacity < 1:
            raise SimulationError("ROB capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.free = capacity
        self._groups: Deque[
            tuple[int, Event, Optional[Callable[[], None]]]
        ] = deque()
        self._waiters: Deque[tuple[int, Event]] = deque()
        self._idle_waiters: list[Event] = []
        self.max_used = 0
        self.retired_groups = 0
        # Slot-level dispatch/retire accounting: the invariant monitor
        # checks ``allocated_slots - retired_slots == used``.
        self.allocated_slots = 0
        self.retired_slots = 0
        #: Optional observability hooks (attached by the System when a
        #: trace is requested); None keeps the hot path untouched.
        self.tracer = None
        self._trace_pid = 0
        self._trace_tid = 0
        # Retirement is parked (no step queued, no completion awaited)
        # until the first commit.
        self._parked = True
        self._retire = Continuation(sim, self._retire_step, f"{name}-retire")

    def attach_tracer(self, tracer, pid: int, tid: int) -> None:
        self.tracer = tracer
        self._trace_pid = pid
        self._trace_tid = tid

    def register_metrics(self, registry, prefix: str) -> None:
        """Export occupancy statistics under ``prefix``."""
        registry.register(f"{prefix}.capacity", lambda: self.capacity)
        registry.register(f"{prefix}.max_used", lambda: self.max_used)
        registry.register(
            f"{prefix}.retired_groups", lambda: self.retired_groups
        )
        registry.register(
            f"{prefix}.allocated_slots", lambda: self.allocated_slots
        )
        registry.register(
            f"{prefix}.retired_slots", lambda: self.retired_slots
        )

    @property
    def used(self) -> int:
        return self.capacity - self.free

    def try_allocate(self, slots: int) -> bool:
        """Take ``slots`` free slots now, unless that would overtake a
        stalled request; never waits.  Returns whether it took them."""
        if slots > self.capacity:
            raise SimulationError(
                f"{self.name}: group of {slots} exceeds ROB capacity "
                f"{self.capacity} (reduce the work chunk size)"
            )
        if slots <= 0:
            raise SimulationError("allocation must be positive")
        free = self.free
        if free >= slots and not self._waiters:
            self.free = free = free - slots
            self.allocated_slots += slots
            used = self.capacity - free
            if used > self.max_used:
                self.max_used = used
            return True
        return False

    def allocate(self, slots: int) -> Generator[Event, object, None]:
        """Generator: stall until ``slots`` ROB slots are available."""
        if self.try_allocate(slots):
            return
        grant = Event(self.sim)
        self._waiters.append((slots, grant))
        tracer = self.tracer
        if tracer is None:
            yield grant
        else:
            stalled_at = self.sim.now
            yield grant
            tracer.complete(
                "rob",
                self._trace_pid,
                self._trace_tid,
                "rob-stall",
                stalled_at,
                self.sim.now,
                args={"slots": slots, "used": self.used},
            )
        self.max_used = max(self.max_used, self.used)

    def commit(
        self,
        slots: int,
        done: Event,
        on_retire: Optional[Callable[[], None]] = None,
    ) -> None:
        """Enter an allocated group into the retirement FIFO."""
        self._groups.append((slots, done, on_retire))
        if self._parked:
            self._parked = False
            self._retire.schedule()

    def _retire_step(self, _event: Event) -> None:
        """Retire the head group, or wait for its completion.

        A completion that had already fired when the step ran retires
        whatever its outcome; a failure seen while waiting crashes the
        run, naming ``<rob>-retire``.
        """
        groups = self._groups
        slots, done, on_retire = groups[0]
        if not done.fired:
            self._retire.wait(done)
            return
        groups.popleft()
        self.free = free = self.free + slots
        self.retired_slots += slots
        if free > self.capacity:  # pragma: no cover - invariant
            raise SimulationError(f"{self.name}: retired more than allocated")
        self.retired_groups += 1
        if on_retire is not None:
            on_retire()
        if self._waiters:
            self._grant_waiters()
        if (
            self._idle_waiters
            and self.free == self.capacity
            and not self._waiters
        ):
            waiters, self._idle_waiters = self._idle_waiters, []
            for waiter in waiters:
                waiter.succeed(None)
        if groups:
            self._retire.schedule()
        else:
            self._parked = True

    def idle(self) -> Event:
        """An event firing when the ROB has fully drained."""
        event = Event(self.sim)
        if self.free == self.capacity and not self._waiters:
            event.succeed(None)
        else:
            self._idle_waiters.append(event)
        return event

    def _grant_waiters(self) -> None:
        while self._waiters and self._waiters[0][0] <= self.free:
            slots, grant = self._waiters.popleft()
            self.free -= slots
            self.allocated_slots += slots
            grant.succeed(None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ReorderBuffer {self.used}/{self.capacity}>"
