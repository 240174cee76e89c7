"""Shared-resource primitives for the simulation kernel.

These model the *queues* at the heart of the paper: every device access
mechanism is "a pair of queues, one for requests and one for responses"
(section III), and it is queue occupancy limits -- line-fill buffers,
the chip-level queue, descriptor rings, link serialization -- that
dictate performance.

* :class:`Resource` -- a counting semaphore with FIFO grant order
  (line-fill buffers, chip-level queues, DRAM channel slots).
* :class:`Store` -- an optionally-bounded FIFO of items (packet queues,
  descriptor staging, completion delivery).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Event, Simulator

__all__ = ["Resource", "Store"]


class Resource:
    """A counting resource with ``capacity`` slots, granted FIFO.

    ``acquire()`` returns an event that fires when a slot is granted;
    ``release()`` frees a slot.  Occupancy statistics are tracked so
    experiments can report maximum queue occupancy, mirroring the
    paper's measurement of the 14-entry chip-level queue.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: Deque[Event] = deque()
        # Statistics.
        self.max_in_use = 0
        self.total_acquires = 0
        self._occupancy_integral = 0  # sum of in_use * dt, for averages
        self._last_change = sim.now

    def _account(self) -> None:
        now = self.sim.now
        self._occupancy_integral += self.in_use * (now - self._last_change)
        self._last_change = now

    def acquire(self) -> Event:
        """Request a slot; the returned event fires on grant."""
        event = Event(self.sim)
        self.total_acquires += 1
        in_use = self.in_use
        if in_use < self.capacity and not self._waiters:
            self._account()
            self.in_use = in_use = in_use + 1
            if in_use > self.max_in_use:
                self.max_in_use = in_use
            # Inlined succeed(): the event is freshly constructed, so the
            # triggered/scheduled guards cannot fire.
            event._value = self
            event._scheduled = True
            self.sim._runq_append(event)
        else:
            self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Take a slot immediately if one is free; never queues."""
        in_use = self.in_use
        if in_use < self.capacity and not self._waiters:
            self._account()
            self.in_use = in_use = in_use + 1
            if in_use > self.max_in_use:
                self.max_in_use = in_use
            self.total_acquires += 1
            return True
        return False

    def release(self) -> None:
        """Free a slot, handing it to the oldest waiter if any."""
        in_use = self.in_use
        if in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot over without transiting through "free":
            # occupancy stays constant, the waiter proceeds.
            self._waiters.popleft().succeed(self)
        else:
            self._account()
            self.in_use = in_use - 1

    @property
    def queued(self) -> int:
        """Number of acquire requests still waiting."""
        return len(self._waiters)

    def average_occupancy(self) -> float:
        """Time-weighted mean occupancy since construction.

        A pure query: the integral-so-far is folded in arithmetically
        instead of flushing ``_account()``, so mid-run introspection can
        never perturb the accounting state (or, before this fix, the
        statistics ordering of a later ``_account()``).
        """
        now = self.sim.now
        if now <= 0:
            return 0.0
        integral = self._occupancy_integral + self.in_use * (now - self._last_change)
        return integral / now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name or id(self)} {self.in_use}/{self.capacity}"
            f" (+{len(self._waiters)} waiting)>"
        )


class Store:
    """A FIFO of items with optional bounded capacity.

    ``put(item)`` returns an event firing once the item is accepted
    (immediately if there is space); ``push(item)`` is its
    fire-and-forget form for unbounded stores; ``get()`` returns an
    event firing with the oldest item once one is available.
    """

    def __init__(
        self, sim: Simulator, capacity: Optional[int] = None, name: str = ""
    ) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()
        self.total_puts = 0
        self.max_level = 0

    def put(self, item: Any) -> Event:
        """Offer ``item``; the returned event fires when it is enqueued.

        The satisfied branches build the already-succeeded event by
        hand (``__new__`` plus slot assignments) instead of
        ``Event(sim).succeed(None)``: the event is freshly constructed,
        so the triggered/scheduled guards cannot fire, and this method
        is on the kernel's hottest path.
        """
        sim = self.sim
        self.total_puts += 1
        if self._getters:
            # Direct hand-off to the oldest waiting consumer.
            self._getters.popleft().succeed(item)
        else:
            items = self._items
            capacity = self.capacity
            if capacity is not None and len(items) >= capacity:
                event = Event(sim)
                self._putters.append((event, item))
                return event
            items.append(item)
            level = len(items)
            if level > self.max_level:
                self.max_level = level
        event = Event.__new__(Event)
        event.sim = sim
        event._value = None
        event._exception = None
        event._scheduled = True
        event._callback = None
        event._callbacks = None
        sim._runq_append(event)
        return event

    def push(self, item: Any) -> None:
        """Enqueue ``item`` without an acceptance event (unbounded only).

        The fire-and-forget form of :meth:`put` for callers that would
        discard its event: the getter hand-off and the ``total_puts`` /
        ``max_level`` statistics are identical, but no event is built,
        queued and fired that nothing waits on.  A bounded store can
        refuse an item, so it has no fire-and-forget form.
        """
        if self.capacity is not None:
            raise SimulationError(
                f"push() on bounded store {self.name!r}; use put() and wait"
            )
        self.total_puts += 1
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            items = self._items
            items.append(item)
            level = len(items)
            if level > self.max_level:
                self.max_level = level

    def get(self) -> Event:
        """Take the oldest item; the returned event fires with it."""
        sim = self.sim
        items = self._items
        if items:
            item = items.popleft()
            if self._putters:
                self._admit_blocked_putter()
            # Inlined construction + succeed(item); see put().
            event = Event.__new__(Event)
            event.sim = sim
            event._value = item
            event._exception = None
            event._scheduled = True
            event._callback = None
            event._callbacks = None
            sim._runq_append(event)
        else:
            event = Event(sim)
            self._getters.append(event)
        return event

    def try_get(self) -> tuple[bool, Any]:
        """Take the oldest item if one is present, without waiting.

        Returns ``(True, item)`` or ``(False, None)``.
        """
        if self._items:
            item = self._items.popleft()
            if self._putters:
                self._admit_blocked_putter()
            return True, item
        return False, None

    def _admit_blocked_putter(self) -> None:
        if self._putters:
            putter, item = self._putters.popleft()
            self._items.append(item)
            self.max_level = max(self.max_level, len(self._items))
            putter.succeed(None)

    def __len__(self) -> int:
        return len(self._items)

    def drain(self) -> Generator[Event, Any, Any]:
        """Generator helper: ``item = yield from store.drain()``."""
        item = yield self.get()
        return item

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else self.capacity
        return f"<Store {self.name or id(self)} {len(self._items)}/{cap}>"
