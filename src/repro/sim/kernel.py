"""A minimal, deterministic discrete-event simulation kernel.

The kernel follows the classic process-interaction style (as in SimPy):
model behaviour is written as Python generators that ``yield`` events;
the scheduler resumes a process when the event it waits on fires.

Design points:

* Time is an integer tick count (picoseconds by convention, see
  :mod:`repro.units`).  Events scheduled for the same tick fire in
  schedule order, which makes every run bit-for-bit deterministic.
* Zero-delay scheduling -- ``succeed()``, satisfied resource grants,
  store hand-offs, process bootstraps -- dominates every workload, so
  it bypasses the timed tier entirely: a same-tick FIFO run queue holds
  those events, drained in batches.
* The timed tier is a **calendar queue**, not a binary heap: a sliding
  window of power-of-two-width buckets (auto-sized from the observed
  delay distribution) over the near future, with a heap-backed overflow
  tier for far-future events that is lazily re-bucketed as the window
  advances.  Pushes are O(1) appends; the clock advance skips empty
  buckets in blocks via an occupancy bitmask and fast-forwards straight
  over fully quiescent spans; and all events due at a tick are drained
  as one batch, so the per-event cost of the timed path is an append
  plus a share of one bucket visit -- no per-event heap sift.
* Events are lean: a lazy single-callback slot covers the overwhelmingly
  common case (exactly one waiter -- the resuming process); a second
  waiter spills into a lazily-created list.
* An :class:`Event` may succeed with a value or fail with an exception;
  failures propagate into waiting processes via ``generator.throw``.
* :class:`Process` is itself an event that fires when its generator
  returns, so processes can wait on each other and compose.
* :func:`all_of` / :func:`any_of` build condition events for fork/join
  patterns (used heavily by the MLP batching code).  ``all_of`` joins
  count down a pending counter, so each constituent fire is O(1).

Ordering contract
-----------------

The observable contract is exactly the old kernel's: **events fire in
(tick, schedule-order)**, where schedule order is the global order of
``_schedule`` calls.  The old ``(tick, seq, event)`` heap tie-breaker is
gone from the hot path; ordering now falls out of FIFO structure:

* Each calendar bucket is an insertion-ordered list of ``(tick, event)``
  pairs.  Appends happen in schedule order, so a *stable* sort by tick
  alone recovers ``(tick, seq)`` order without storing a sequence
  number.
* Overflow-tier events (far future) still carry a sequence number
  inside the heap, but they migrate into buckets *before* any same-tick
  direct push can land there: migration runs at every clock advance,
  against the new clock's window, and direct pushes only happen while
  the clock holds still.  So within any bucket, same-tick entries are
  always in schedule order (proved impossible to interleave -- see
  ``_advance``), and migrated entries arrive in ``(tick, seq)`` heap
  order.
* Once the clock sits at tick ``T``, every timed entry with tick ``T``
  was pushed *before* the clock reached ``T`` (a push at time ``T``
  either has ``delay == 0``, which goes to the run queue, or ``delay >
  0``, which lands strictly after ``T``).  Run-queue entries are only
  appended at time ``T``, hence always *younger* than every tick-``T``
  timed entry.  So the loop drains the due batch first, then the run
  queue FIFO, then advances the clock -- identical to a single heap
  ordered by ``(tick, seq)``.

The frozen pre-fast-path kernel lives in :mod:`repro.sim._reference`
and the property suite replays randomized process graphs (including
randomized delay distributions that stress bucket boundaries and the
overflow tier) on both to keep this honest.

Observability
-------------

Each :class:`Simulator` counts events fired, timed pushes/pops,
run-queue bypasses, process resumes, and the calendar's structural
behaviour -- overflow spills, re-bucketing migrations, empty-bucket
skip spans, due-batch size distribution (:meth:`Simulator.kernel_stats`).
:func:`collect_kernel_stats` aggregates the counters of every simulator
built inside a ``with`` block; the ``repro profile`` CLI subcommand
wraps any figure or microbench in it (plus cProfile) and reports an
events/sec summary.  :meth:`Simulator.attach_tracer` additionally emits
a sampled ``kernel`` counter track (scheduler occupancy gauges) into a
Chrome trace without perturbing the event schedule.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable, Generator, Iterable, Iterator, Optional

from repro.errors import SimulationError

__all__ = [
    "Continuation",
    "Event",
    "Process",
    "Simulator",
    "KernelStatsCollector",
    "all_of",
    "any_of",
    "collect_kernel_stats",
]

#: Sentinel for "event has no value yet".
_PENDING = object()

#: Sentinel stored in an event's callback slot once its callbacks have
#: been processed ("the event has happened in simulated time").
_FIRED = object()

#: Calendar geometry: the sliding window spans ``_NBUCKETS`` buckets of
#: ``1 << shift`` ticks each; the shift adapts to the delay
#: distribution (see ``Simulator._push_timed``).
_LOG2_BUCKETS = 10
_NBUCKETS = 1 << _LOG2_BUCKETS
_MASK = _NBUCKETS - 1
_FULL = (1 << _NBUCKETS) - 1
#: Bucket-width growth is capped so window arithmetic stays sane even
#: for absurd delays (2**40 ticks per bucket ~= 1.1 s of simulated
#: time; the whole window then spans ~19 minutes).
_MAX_SHIFT = 40
#: Pending-timer hysteresis for the sparse (pure heap) <-> dense
#: (calendar wheel) mode switch.  Below ~a thousand pending timers the
#: C heap wins -- its log-depth is tiny and it has no per-advance scan
#: costs; the wheel's O(1) amortized push/pop only pays for itself at
#: depth.  The gap between the two thresholds prevents flapping.
_DENSE_AT = _NBUCKETS
_SPARSE_AT = _NBUCKETS >> 2
_BIT = tuple(1 << i for i in range(_NBUCKETS))
_NBIT = tuple(~(1 << i) for i in range(_NBUCKETS))

#: Stable bucket sort key: tick only.  Sorting the ``(tick, event)``
#: pairs directly would compare events on tick ties; keying on the tick
#: keeps the sort stable in insertion (= schedule) order instead.
_TICK = itemgetter(0)


class _BootstrapOutcome:
    """The outcome a process is resumed with the very first time.

    Shaped like a succeeded event with value ``None`` (the only fields
    :meth:`Process.__call__` reads), shared by every bootstrap so that
    spawning a process allocates nothing beyond the process itself.
    """

    __slots__ = ()
    _value = None
    _exception = None


_BOOT = _BootstrapOutcome()


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling its callbacks to run at the current
    simulation time.  Once triggered an event is immutable; the one
    exception is :class:`Continuation`, which is re-armed to fire again.

    Callback storage is lazy: ``_callback`` holds the first waiter,
    ``_callbacks`` a list for the (rare) second and later waiters, and
    the :data:`_FIRED` sentinel in ``_callback`` marks a fired event.
    """

    __slots__ = ("sim", "_value", "_exception", "_scheduled", "_callback",
                 "_callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._scheduled = False
        self._callback: Any = None
        self._callbacks: Optional[list[Callable[["Event"], None]]] = None

    @property
    def triggered(self) -> bool:
        """True once the event has an outcome (value or exception).

        Note that a :class:`Timeout` is triggered from birth -- its
        outcome is predetermined.  Model code that needs "has this
        already happened?" should use :attr:`fired`.
        """
        return self._value is not _PENDING or self._exception is not None

    @property
    def fired(self) -> bool:
        """True once the event's callbacks have been processed.

        This is the "it has happened in simulated time" predicate model
        code should use (e.g. "is the prefetched line back yet?").
        """
        return self._callback is _FIRED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value; raises if pending or failed."""
        if self._value is _PENDING and self._exception is None:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None."""
        return self._exception

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError("event triggered twice")
        if self._scheduled:
            raise SimulationError("event scheduled twice")
        self._value = value
        self._scheduled = True
        self.sim._runq_append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure ``exception``."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._scheduled:
            raise SimulationError("event scheduled twice")
        self._exception = exception
        self._value = None
        self._scheduled = True
        self.sim._runq_append(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event already fired and its callbacks were processed, the
        callback runs immediately (still at the firing's logical time or
        later -- the simulator clock only moves forward).
        """
        slot = self._callback
        if slot is _FIRED:
            callback(self)
        elif slot is None:
            self._callback = callback
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)


class Timeout(Event):
    """An event that fires a fixed delay after its creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self._value = value
        sim._schedule(self, delay=delay)


class Process(Event):
    """A running generator; fires (with its return value) on completion.

    The generator must yield :class:`Event` instances.  When a yielded
    event succeeds, the generator is resumed with the event's value; if
    it fails, the exception is thrown into the generator.

    A new process needs no bootstrap events: it is appended to the run
    queue *untriggered*, which the event loop recognizes as "start this
    generator now" -- zero throwaway allocations per spawn.  A process
    instance is also its own resume callback (:meth:`__call__`), so
    waiting on an event costs no bound-method or lambda allocation.
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: queue the first resumption "now".  The loop spots
        # the untriggered entry and starts the generator instead of
        # firing completion callbacks.
        sim._runq_append(self)
        sim.processes_spawned += 1

    def __call__(self, event: Event) -> None:
        """Resume callback: advance the generator with ``event``'s outcome.

        ``event`` is the fired event the process waited on (or the
        shared :data:`_BOOT` outcome for a freshly spawned process).
        """
        sim = self.sim
        sim.process_resumes += 1
        generator = self._generator
        value = event._value
        exception = event._exception
        while True:
            try:
                if exception is not None:
                    target = generator.throw(exception)
                else:
                    target = generator.send(value)
            except StopIteration as stop:
                if self._value is _PENDING and self._exception is None:
                    self.succeed(stop.value)
                return
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                if self._callback is None and self._callbacks is None:
                    # Nobody is waiting on this process: escalate rather
                    # than swallow the failure (a crashed model process
                    # must crash the simulation).
                    raise _annotate(exc, self.name)
                self.fail(_annotate(exc, self.name))
                return
            if not isinstance(target, Event):
                self.fail(
                    SimulationError(
                        f"process {self.name!r} yielded non-event: {target!r}"
                    )
                )
                return
            if target.sim is not sim:
                self.fail(
                    SimulationError(
                        f"process {self.name!r} yielded an event of another simulator"
                    )
                )
                return
            slot = target._callback
            if slot is _FIRED:
                # Already fired and processed: loop and resume inline, at
                # the current time, without a scheduler round-trip.
                value = target._value
                exception = target._exception
                continue
            if slot is None:
                target._callback = self
            elif target._callbacks is None:
                target._callbacks = [self]
            else:
                target._callbacks.append(self)
            return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} at t={self.sim.now}>"


def _annotate(exc: BaseException, name: str) -> BaseException:
    """Tag an escaping exception with the process it escaped from."""
    note = f"(escaped from simulation process {name!r})"
    try:
        exc.add_note(note)
    except AttributeError:  # pragma: no cover - pre-3.11 fallback
        pass
    return exc


class _ConditionEvent(Event):
    """Shared machinery for :func:`all_of` / :func:`any_of`.

    An ``all_of`` join counts down ``_pending`` (the number of
    constituents that had not fired at construction), so every
    constituent fire is O(1) -- no rescan of the whole list, which was
    quadratic for the MLP-batching fan-ins.  The condition is its own
    callback (:meth:`__call__`): subscribing allocates nothing.
    """

    __slots__ = ("_pending", "_events", "_need_all")

    def __init__(self, sim: "Simulator", events: list[Event], need_all: bool) -> None:
        super().__init__(sim)
        self._events = events
        self._need_all = need_all
        self._pending = 0
        for ev in events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events of different simulators")
        if not events:
            self.succeed([])
            return
        if need_all:
            # One interleaved pass, mirroring the old kernel's
            # construction exactly: each already-fired constituent is
            # checked in list order -- the first one carrying an
            # exception fails the join NOW; one with a fully-fired
            # prefix succeeds the join NOW if every constituent is at
            # least *triggered* (an unfired-but-triggered constituent
            # counts, and its predetermined value is read early).
            pending = 0
            for ev in events:
                if ev._callback is _FIRED:
                    if self._value is _PENDING and self._exception is None:
                        if ev._exception is not None:
                            self.fail(ev._exception)
                        elif pending == 0 and all(
                            e.triggered for e in events
                        ):
                            self.succeed([e.value for e in events])
                else:
                    pending += 1
            if self._value is not _PENDING or self._exception is not None:
                return
            if pending == 0:
                self.succeed([ev.value for ev in events])
                return
            self._pending = pending
            for ev in events:
                if ev._callback is not _FIRED:
                    ev.add_callback(self)
        else:
            for ev in events:
                if ev._callback is _FIRED:
                    # The first already-fired constituent decides.
                    if ev._exception is not None:
                        self.fail(ev._exception)
                    else:
                        self.succeed(ev._value)
                    return
            for ev in events:
                ev.add_callback(self)

    def __call__(self, event: Event) -> None:
        """One constituent fired."""
        if self._value is not _PENDING or self._exception is not None:
            return  # already decided (failed early, or any_of satisfied)
        exc = event._exception
        if exc is not None:
            self.fail(exc)
            return
        if self._need_all:
            self._pending -= 1
            if self._pending == 0:
                self.succeed([ev._value for ev in self._events])
        else:
            self.succeed(event._value)


class _DelayedEvent(Event):
    """The event :meth:`Simulator.delayed` returns.

    Like :class:`_ConditionEvent`, it is its own upstream callback
    (:meth:`__call__`), so chaining a fixed latency behind an event
    allocates one slotted object and no closure.
    """

    __slots__ = ("_delay",)

    def __init__(self, sim: "Simulator", delay: int) -> None:
        super().__init__(sim)
        self._delay = delay

    def __call__(self, event: Event) -> None:
        """The upstream event fired: fail now, or fire ``_delay`` later."""
        if event._exception is not None:
            self.fail(event._exception)
        elif self._delay == 0:
            self.succeed(event._value)
        else:
            self._value = event._value
            self.sim._schedule(self, self._delay)


class Continuation(Event):
    """A reusable zero-delay callback: a process-free loop body.

    It replaces a process that alternates ``yield store.get()`` with
    ``yield done``, and it keeps that process's firing order:

    * :meth:`schedule` queues one call of ``fn(self)`` on the run queue
      at the current tick.  This is where an immediately granted
      ``get()`` event would sit.
    * :meth:`wait` calls ``fn(event)`` when ``event`` fires, from the
      same callback-list position a process yielding ``event`` would
      take.  If ``event`` fails, the failure escapes the run and is
      annotated with ``name``, like a crash in a process nobody waits
      on.

    It is the one event that fires more than once: each
    :meth:`schedule` re-arms it, so a chain of steps allocates nothing.
    At most one firing may be pending at a time.
    """

    __slots__ = ("_fn", "name")

    def __init__(
        self, sim: "Simulator", fn: Callable[[Event], None], name: str
    ) -> None:
        super().__init__(sim)
        self._fn = fn
        self.name = name
        self._value = None
        self._scheduled = True

    def schedule(self) -> None:
        """Queue one call of ``fn(self)`` at the current tick."""
        fn = self._fn
        if self._callback is fn:
            raise SimulationError(f"continuation {self.name!r} scheduled twice")
        self._callback = fn
        self.sim._runq_append(self)

    def wait(self, event: Event) -> None:
        """Call ``fn(event)`` when ``event`` fires; a failure crashes
        the run."""
        event.add_callback(self)

    def __call__(self, event: Event) -> None:
        """The awaited ``event`` fired."""
        if event._exception is not None:
            raise _annotate(event._exception, self.name)
        self._fn(event)


def all_of(sim: "Simulator", events: Iterable[Event]) -> Event:
    """An event firing when *all* of ``events`` succeed.

    Its value is the list of individual event values (in input order).
    Fails as soon as any constituent fails.
    """
    return _ConditionEvent(sim, list(events), need_all=True)


def any_of(sim: "Simulator", events: Iterable[Event]) -> Event:
    """An event firing when *any* of ``events`` succeeds.

    Its value is the value of the first event to fire.  An empty input
    succeeds immediately (vacuously) with ``[]``.
    """
    events = list(events)
    if not events:
        return _ConditionEvent(sim, [], need_all=True)
    return _ConditionEvent(sim, events, need_all=False)


class Simulator:
    """The event loop: a clock, a same-tick run queue, and a calendar.

    Three tiers, cheapest first:

    * ``_runq`` -- a deque of events due *now* (zero-delay schedules
      and process bootstraps), drained in FIFO order.
    * the calendar window -- ``_NBUCKETS`` buckets of ``1 << _shift``
      ticks each, covering the near future.  ``_occ`` is an occupancy
      bitmask over buckets, so the clock advance finds the next
      non-empty bucket with one big-int rotation instead of probing
      empties one by one.
    * ``_overflow`` -- a ``(tick, seq, event)`` heap for events beyond
      the window, lazily migrated into buckets as the window advances.

    ``_due`` stages the batch of events at the current tick between
    :meth:`_advance` and the drain loops (and carries the unprocessed
    remainder across an early-stopped ``run(until=event)``).

    See the module docstring for why this preserves the
    ``(tick, schedule-order)`` firing contract bit-for-bit.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._runq: deque[Event] = deque()
        self._runq_append = self._runq.append  # bound once: hottest call
        # -- calendar-queue timed tier -------------------------------------
        self._wheel: list[list[tuple[int, Event]]] = [
            [] for _ in range(_NBUCKETS)
        ]
        self._occ = 0  # occupancy bitmask over wheel buckets
        self._needsort = bytearray(_NBUCKETS)  # per-bucket dirty flags
        self._cursor = -1  # bucket the last due batch came from, or -1
        self._shift = 0  # log2 bucket width in ticks (adaptive)
        self._dense = False  # wheel engaged?  starts sparse (pure heap)
        self._overflow: list[tuple[int, int, Event]] = []
        self._overflow_seq = 0
        self._max_spill_delay = 0
        self._spills_at_resize = 0
        self._due: list[Event] = []  # staged batch at the current tick
        # -- observability counters (see kernel_stats()) -------------------
        self.events_fired = 0
        #: Timed schedules / timed fires.  The names predate the
        #: calendar queue (they counted binary-heap operations) and are
        #: kept stable for baselines, sweep payloads, and the ledger.
        self.heap_pushes = 0
        self.heap_pops = 0
        self.process_resumes = 0
        self.processes_spawned = 0
        self.overflow_spills = 0
        self.overflow_migrations = 0
        self.window_advances = 0
        self.bucket_skip_spans = 0
        self.buckets_skipped = 0
        self.bucket_resizes = 0
        self.mode_switches = 0
        self.due_batch_max = 0
        self.due_batch_1 = 0
        self.due_batch_2_7 = 0
        self.due_batch_8_63 = 0
        self.due_batch_64_plus = 0
        # -- optional tracer hook (zero-cost when detached) ----------------
        self._tracer = None
        self._trace_pid = 0
        self._trace_interval = 0
        self._trace_last = 0
        if _collectors:
            for collector in _collectors:
                collector.register(self)

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event firing ``delay`` ticks from now.

        The hottest timed-path constructor: the event is built by hand
        (``__new__`` plus slot assignments, mirroring ``Timeout.__init__``)
        and scheduled inline, skipping two Python-level calls per timer.
        """
        event = Timeout.__new__(Timeout)
        event.sim = self
        event._value = value
        event._exception = None
        event._callback = None
        event._callbacks = None
        event._scheduled = True
        if delay == 0:
            self._runq_append(event)
        elif delay > 0:
            # Inlined _push_timed (kept in lock-step with it): one less
            # Python call on the single hottest timed operation.
            self.heap_pushes += 1
            if self._dense:
                shift = self._shift
                tick = self.now + delay
                index = tick >> shift
                if index - (self.now >> shift) < _NBUCKETS:
                    index &= _MASK
                    bucket = self._wheel[index]
                    if bucket:
                        self._needsort[index] = 1
                    else:
                        self._occ |= _BIT[index]
                    bucket.append((tick, event))
                else:
                    self._spill(event, tick, delay)
            else:
                if delay > self._max_spill_delay:
                    self._max_spill_delay = delay
                seq = self._overflow_seq = self._overflow_seq + 1
                heappush(self._overflow, (self.now + delay, seq, event))
        else:
            raise SimulationError(f"negative timeout delay: {delay}")
        return event

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a process running ``generator``; returns its completion event."""
        return Process(self, generator, name=name)

    def delayed(self, after: Event, delay: int) -> Event:
        """An event firing ``delay`` ticks after ``after`` succeeds.

        Used to model fixed-latency stages downstream of a variable-time
        event (e.g. "execute for N cycles once the load data arrives").
        """
        result = _DelayedEvent(self, delay)
        after.add_callback(result)
        return result

    # -- scheduling internals ----------------------------------------------

    def _schedule(self, event: Event, delay: int) -> None:
        if event._scheduled:
            raise SimulationError("event scheduled twice")
        event._scheduled = True
        if delay == 0:
            self._runq_append(event)
        elif delay > 0:
            self._push_timed(event, delay)
        else:
            raise SimulationError(f"negative schedule delay: {delay}")

    def _push_timed(self, event: Event, delay: int) -> None:
        """File ``event`` for ``self.now + delay`` in the timed tier.

        Sparse mode (few pending timers): straight onto the ``(tick,
        seq, event)`` heap -- at shallow depth the C heap is as good as
        a queue gets, and the wheel's fixed per-advance costs would be
        pure overhead.  Dense mode: in-window ticks append to their
        calendar bucket (O(1), no sequence number); ticks beyond the
        window spill to the overflow heap and are re-bucketed when the
        window reaches them.  An append to a non-empty bucket marks it
        dirty so :meth:`_advance` re-sorts it lazily -- at most once
        per visit, not once per push.

        ``timeout()`` inlines this body; keep the two in lock-step.
        """
        self.heap_pushes += 1
        if self._dense:
            shift = self._shift
            tick = self.now + delay
            index = tick >> shift
            if index - (self.now >> shift) < _NBUCKETS:
                index &= _MASK
                bucket = self._wheel[index]
                if bucket:
                    self._needsort[index] = 1
                else:
                    self._occ |= _BIT[index]
                bucket.append((tick, event))
            else:
                self._spill(event, tick, delay)
        else:
            if delay > self._max_spill_delay:
                self._max_spill_delay = delay
            seq = self._overflow_seq = self._overflow_seq + 1
            heappush(self._overflow, (self.now + delay, seq, event))

    def _spill(self, event: Event, tick: int, delay: int) -> None:
        """Park an out-of-window event in the overflow heap (dense mode)."""
        self.overflow_spills += 1
        if delay > self._max_spill_delay:
            self._max_spill_delay = delay
        self._overflow_seq += 1
        heappush(self._overflow, (tick, self._overflow_seq, event))

    def _densify(self) -> None:
        """Engage the calendar wheel: sparse -> dense transition.

        Runs at clock-advance time, with no due batch in flight -- never
        from a push, so a callback can never migrate the not-yet-fired
        remainder of the batch being drained.  Sizes the bucket width so
        the largest delay seen so far lands mid-window, then immediately
        migrates every in-window heap entry into its bucket -- *before*
        any direct push can append to the wheel.  That preserves the
        no-coexistence invariant the ordering proof needs: a bucket
        never holds a direct-pushed entry ahead of an older same-tick
        heap entry (module docstring, "Ordering contract").
        """
        self._dense = True
        want = self._max_spill_delay.bit_length() - (_LOG2_BUCKETS - 1)
        if want > self._shift:
            self._shift = want if want < _MAX_SHIFT else _MAX_SHIFT
        shift = self._shift
        overflow = self._overflow
        wheel = self._wheel
        needsort = self._needsort
        occ = self._occ  # always 0 here: the wheel is empty in sparse mode
        window_end = ((self.now >> shift) + _NBUCKETS) << shift
        migrated = 0
        while overflow and overflow[0][0] < window_end:
            tick, _seq, event = heappop(overflow)
            i = (tick >> shift) & _MASK
            target = wheel[i]
            if target:
                needsort[i] = 1
            else:
                occ |= _BIT[i]
            target.append((tick, event))
            migrated += 1
        self._occ = occ
        self.overflow_migrations += migrated
        self._spills_at_resize = self.overflow_spills
        self._cursor = -1
        self.mode_switches += 1

    def _grow(self) -> None:
        """Widen the buckets to cover the observed delay distribution.

        Called from :meth:`_advance` when more than a window's worth of
        pushes spilled to the overflow tier since the last check.  Live
        wheel entries are re-bucketed under the new width; this cannot
        disturb the ordering contract because same-tick entries always
        share a source bucket, so their relative (schedule) order
        survives redistribution.  Width only ever grows -- shrinking
        would be an optimisation for delay distributions that get
        *finer* over time, which no modelled workload exhibits; overly
        wide buckets stay correct (the stable per-bucket sort handles
        multiple distinct ticks per bucket).
        """
        want = self._max_spill_delay.bit_length() - (_LOG2_BUCKETS - 1)
        if want > self._shift:
            shift = want if want < _MAX_SHIFT else _MAX_SHIFT
            wheel = self._wheel
            entries: list[tuple[int, Event]] = []
            if self._occ:
                for bucket in wheel:
                    if bucket:
                        entries.extend(bucket)
                        del bucket[:]
            self._shift = shift
            occ = 0
            needsort = self._needsort
            for pair in entries:
                i = (pair[0] >> shift) & _MASK
                target = wheel[i]
                if target:
                    # Entries from different source buckets interleave
                    # in the wider target: re-sort lazily on visit.
                    needsort[i] = 1
                else:
                    occ |= _BIT[i]
                target.append(pair)
            self._occ = occ
            self._cursor = -1  # bucket indices changed under the cursor
            self.bucket_resizes += 1
        self._spills_at_resize = self.overflow_spills

    def _schedule_value(self, event: Event, delay: int, value: Any) -> None:
        """Trigger ``event`` with ``value`` after ``delay`` ticks."""
        event._value = value
        self._schedule(event, delay)

    def _advance(self, horizon: Optional[int]) -> bool:
        """Advance the clock to the next occupied tick; stage its batch.

        Fills ``self._due`` with *every* event scheduled at the new
        current tick, in schedule order, and returns True -- or returns
        False without touching the clock when no timed event remains
        (or the next one lies beyond ``horizon``).

        Only called when the run queue and ``_due`` are both empty, so
        the clock is free to move.
        """
        if not self._dense:
            # Sparse mode: the heap is the whole timed tier.  Pop the
            # minimum and every same-tick entry after it -- heap order
            # is (tick, seq), so the batch comes out in schedule order.
            # The dense switch is checked here, at advance time, and
            # never from a push: a callback of a firing batch can then
            # never trigger a migration that strands the rest of its
            # own batch in the wheel behind younger run-queue entries.
            overflow = self._overflow
            if not overflow:
                return False
            if len(overflow) > _DENSE_AT:
                self._densify()
                return self._advance(horizon)
            next_tick = overflow[0][0]
            if horizon is not None and next_tick > horizon:
                return False
            self.now = next_tick
            due = self._due
            due.append(heappop(overflow)[2])
            count = 1
            while overflow and overflow[0][0] == next_tick:
                due.append(heappop(overflow)[2])
                count += 1
            # Mirror of the dense tail below (bucket bookkeeping aside).
            self.window_advances += 1
            if count > self.due_batch_max:
                self.due_batch_max = count
            if count == 1:
                self.due_batch_1 += 1
            elif count < 8:
                self.due_batch_2_7 += 1
            elif count < 64:
                self.due_batch_8_63 += 1
            else:
                self.due_batch_64_plus += 1
            tracer = self._tracer
            if (
                tracer is not None
                and next_tick - self._trace_last >= self._trace_interval
            ):
                self._trace_last = next_tick
                tracer.counter(
                    "kernel",
                    self._trace_pid,
                    "kernel.scheduler",
                    next_tick,
                    {
                        "occupied_buckets": 0,
                        "overflow_backlog": len(overflow),
                        "due_batch": count,
                    },
                )
            return True
        wheel = self._wheel
        needsort = self._needsort
        index = self._cursor
        if index >= 0 and wheel[index]:
            # Cursor fast path: the bucket the last batch came from
            # still holds entries.  Its head is the global minimum (all
            # other buckets hold later ticks -- a push landing at an
            # earlier tick than this bucket's range would land in this
            # bucket), and the overflow migration threshold depends only
            # on ``next_tick >> shift``, unchanged while the clock stays
            # inside one bucket, so neither the occupancy-mask scan nor
            # the migration check needs to run.
            bucket = wheel[index]
            if needsort[index]:
                # Stable sort by tick recovers (tick, schedule-order);
                # same-tick entries keep their insertion order.
                bucket.sort(key=_TICK)
                needsort[index] = 0
            next_tick = bucket[0][0]
            if horizon is not None and next_tick > horizon:
                return False
            self.now = next_tick
        else:
            if self.overflow_spills - self._spills_at_resize > _NBUCKETS:
                # The window has been missing a meaningful share of
                # pushes: widen the buckets so the observed delays land
                # in-window.
                self._grow()
            occ = self._occ
            overflow = self._overflow
            shift = self._shift
            if not occ and len(overflow) < _SPARSE_AT:
                # The wheel drained and the backlog is shallow again:
                # revert to the plain heap (every pending timed event
                # already sits in the overflow tier with its sequence
                # number, so sparse order is exact).  Hysteresis --
                # engage at _DENSE_AT, revert at _SPARSE_AT -- keeps a
                # workload hovering near the threshold from thrashing.
                self._dense = False
                self._cursor = -1
                self.mode_switches += 1
                return self._advance(horizon)
            if occ:
                # Find the next occupied bucket: scan the occupancy
                # mask from the current bucket forward (then wrapped).
                # Empty buckets are skipped as a block.
                position = (self.now >> shift) & _MASK
                ahead = occ >> position
                if ahead:
                    skipped = (ahead & -ahead).bit_length() - 1
                else:
                    skipped = (
                        (occ & -occ).bit_length() - 1 + _NBUCKETS - position
                    )
                index = (position + skipped) & _MASK
                bucket = wheel[index]
                if needsort[index]:
                    bucket.sort(key=_TICK)
                    needsort[index] = 0
                next_tick = bucket[0][0]
                # The wheel always holds the earliest timed tick:
                # overflow entries all lie at or beyond the window's
                # aligned end, strictly after every bucketed tick (see
                # _push_timed).
            elif overflow:
                # The whole window is quiescent: fast-forward the clock
                # straight to the overflow tier's earliest tick without
                # probing a single bucket in between.
                next_tick = overflow[0][0]
                bucket = None
                skipped = (next_tick >> shift) - (self.now >> shift)
                index = (next_tick >> shift) & _MASK
            else:
                return False
            if horizon is not None and next_tick > horizon:
                return False
            if skipped:
                self.bucket_skip_spans += 1
                self.buckets_skipped += skipped
            self.now = next_tick
            # Lazy re-bucketing: pull every overflow event that the
            # advanced window now covers into its bucket.  This runs
            # *before* any event at the new tick fires, so no direct
            # push can land in a bucket ahead of an older overflow
            # entry for the same tick -- that ordering argument is what
            # lets buckets drop the sequence number (module docstring,
            # "Ordering contract").
            if overflow:
                window_end = ((next_tick >> shift) + _NBUCKETS) << shift
                if overflow[0][0] < window_end:
                    migrated = 0
                    while overflow and overflow[0][0] < window_end:
                        tick, _seq, event = heappop(overflow)
                        i = (tick >> shift) & _MASK
                        target = wheel[i]
                        if target:
                            needsort[i] = 1
                        else:
                            occ |= _BIT[i]
                        target.append((tick, event))
                        migrated += 1
                    self.overflow_migrations += migrated
                    self._occ = occ
                    if bucket is None:
                        bucket = wheel[index]
                    if needsort[index]:
                        bucket.sort(key=_TICK)
                        needsort[index] = 0
        # Stage the due batch: the sorted prefix at next_tick.  Nothing
        # can join it later -- a delay > 0 push lands strictly in the
        # future and zero-delay schedules go to the run queue.
        due = self._due
        count = 0
        for tick, event in bucket:
            if tick != next_tick:
                break
            due.append(event)
            count += 1
        if count == len(bucket):
            del bucket[:]
            self._occ &= _NBIT[index]
            self._cursor = -1
        else:
            del bucket[:count]
            self._cursor = index
        self.window_advances += 1
        if count > self.due_batch_max:
            self.due_batch_max = count
        if count == 1:
            self.due_batch_1 += 1
        elif count < 8:
            self.due_batch_2_7 += 1
        elif count < 64:
            self.due_batch_8_63 += 1
        else:
            self.due_batch_64_plus += 1
        tracer = self._tracer
        if tracer is not None and next_tick - self._trace_last >= self._trace_interval:
            self._trace_last = next_tick
            tracer.counter(
                "kernel",
                self._trace_pid,
                "kernel.scheduler",
                next_tick,
                {
                    "occupied_buckets": bin(self._occ).count("1"),
                    "overflow_backlog": len(self._overflow),
                    "due_batch": count,
                },
            )
        return True

    # -- firing --------------------------------------------------------------

    def _fire(self, event: Event) -> None:
        """Fire one event: mark it processed, run its callback(s).

        The single canonical fire sequence.  ``step()`` and the cold
        paths call it directly; the drain loops in ``run()`` inline a
        copy for speed (a Python call per event would dominate), and
        the step-vs-run drain-equivalence property test keeps the
        inlined copies honest against this definition.
        """
        self.events_fired += 1
        callback = event._callback
        event._callback = _FIRED
        if callback is not None:
            callback(event)
            callbacks = event._callbacks
            if callbacks is not None:
                event._callbacks = None
                for callback in callbacks:
                    callback(event)

    # -- running -------------------------------------------------------------

    def step(self) -> None:
        """Process the single next entry in the queues.

        The staged due batch (timed events at the current tick) fires
        before the run queue -- its entries are older in schedule order
        (see the module docstring); a run-queue entry may be a process
        bootstrap, which starts the generator rather than firing
        completion callbacks.  With both empty, the clock advances to
        the next timed tick and fires that batch's first event.
        """
        due = self._due
        if due:
            self.heap_pops += 1
            self._fire(due.pop(0))
            return
        runq = self._runq
        if runq:
            event = runq.popleft()
            if not event._scheduled:
                event(_BOOT)  # process bootstrap
                return
            self._fire(event)
            return
        if not self._advance(None):
            raise SimulationError("step() with no pending events")
        self.heap_pops += 1
        self._fire(self._due.pop(0))

    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run the simulation.

        * ``until=None``: run until no events remain.
        * ``until=<int>``: run until the clock reaches that tick.
        * ``until=<Event>``: run until that event fires; returns its
          value (or raises its exception).

        The loops below are deliberately flat and bound to locals: this
        is the hot path under every figure of the paper, and a Python-
        level function call per event would dominate the cost.  Each
        mode drains, in order: the staged due batch, then the run queue
        (appends during the drain land behind, preserving FIFO schedule
        order), then advances the clock for the next batch.  The fire
        sequence inlined in every loop is :meth:`_fire`.
        """
        runq = self._runq
        popleft = runq.popleft
        due = self._due
        advance = self._advance
        fired_mark = _FIRED
        fired = 0  # run-queue events fired
        timed = 0  # due-batch (timed) events fired

        if isinstance(until, Event):
            stop = until
            if stop._callback is fired_mark:
                return stop.value
            try:
                while stop._callback is not fired_mark:
                    if due:
                        done = 0
                        try:
                            for event in due:
                                done += 1
                                callback = event._callback
                                event._callback = fired_mark
                                if callback is not None:
                                    callback(event)
                                    callbacks = event._callbacks
                                    if callbacks is not None:
                                        event._callbacks = None
                                        for callback in callbacks:
                                            callback(event)
                                if stop._callback is fired_mark:
                                    break
                        finally:
                            timed += done
                            del due[:done]
                        continue
                    while runq:
                        event = popleft()
                        if not event._scheduled:
                            event(_BOOT)  # process bootstrap
                            continue
                        fired += 1
                        callback = event._callback
                        event._callback = fired_mark
                        if callback is not None:
                            callback(event)
                            callbacks = event._callbacks
                            if callbacks is not None:
                                event._callbacks = None
                                for callback in callbacks:
                                    callback(event)
                        if stop._callback is fired_mark:
                            break
                    else:
                        if not advance(None):
                            raise SimulationError(
                                "simulation ran out of events before the "
                                "awaited event fired (deadlock?)"
                            )
            finally:
                self.events_fired += fired + timed
                self.heap_pops += timed
            return stop.value

        horizon: Optional[int] = None
        if until is not None:
            horizon = int(until)
            if horizon < self.now:
                return None
        overflow = self._overflow
        pop = heappop
        tracer = self._tracer
        advances = 0  # inline sparse clock advances
        b1 = b2 = b8 = b64 = bmax = 0  # inline due-batch histogram
        try:
            while True:
                if due:
                    done = 0
                    try:
                        for event in due:
                            done += 1
                            callback = event._callback
                            event._callback = fired_mark
                            if callback is not None:
                                callback(event)
                                callbacks = event._callbacks
                                if callbacks is not None:
                                    event._callbacks = None
                                    for callback in callbacks:
                                        callback(event)
                    finally:
                        timed += done
                        del due[:done]
                while runq:
                    event = popleft()
                    if not event._scheduled:
                        event(_BOOT)  # process bootstrap
                        continue
                    fired += 1
                    callback = event._callback
                    event._callback = fired_mark
                    if callback is not None:
                        callback(event)
                        callbacks = event._callbacks
                        if callbacks is not None:
                            event._callbacks = None
                            for callback in callbacks:
                                callback(event)
                if self._dense:
                    if not advance(horizon):
                        break
                    continue
                # Inline sparse advance (lock-step with _advance's
                # sparse arm): at shallow pending depth the whole timed
                # tier is the heap, and staging batches through _due
                # would cost a Python call plus list churn per tick for
                # nothing -- pop and fire straight off the heap.  Safe
                # against mid-batch migration because a push can never
                # densify (the switch is checked only here and in
                # _advance, never with a batch in flight).
                if not overflow:
                    break
                if len(overflow) > _DENSE_AT:
                    self._densify()
                    continue
                tick = overflow[0][0]
                if horizon is not None and tick > horizon:
                    break
                self.now = tick
                start = timed
                while overflow and overflow[0][0] == tick:
                    timed += 1
                    event = pop(overflow)[2]
                    callback = event._callback
                    event._callback = fired_mark
                    if callback is not None:
                        callback(event)
                        callbacks = event._callbacks
                        if callbacks is not None:
                            event._callbacks = None
                            for callback in callbacks:
                                callback(event)
                advances += 1
                count = timed - start
                if count == 1:
                    b1 += 1
                elif count < 8:
                    b2 += 1
                elif count < 64:
                    b8 += 1
                else:
                    b64 += 1
                if count > bmax:
                    bmax = count
                if tracer is not None and tick - self._trace_last >= self._trace_interval:
                    self._trace_last = tick
                    tracer.counter(
                        "kernel",
                        self._trace_pid,
                        "kernel.scheduler",
                        tick,
                        {
                            "occupied_buckets": 0,
                            "overflow_backlog": len(overflow),
                            "due_batch": count,
                        },
                    )
        finally:
            self.events_fired += fired + timed
            self.heap_pops += timed
            if advances:
                self.window_advances += advances
                self.due_batch_1 += b1
                self.due_batch_2_7 += b2
                self.due_batch_8_63 += b8
                self.due_batch_64_plus += b64
                if bmax > self.due_batch_max:
                    self.due_batch_max = bmax
        if horizon is not None and horizon > self.now:
            self.now = horizon
        return None

    @property
    def pending_events(self) -> int:
        """Number of events currently queued (scheduled, not yet fired)."""
        pending = len(self._runq) + len(self._due) + len(self._overflow)
        for bucket in self._wheel:
            if bucket:
                pending += len(bucket)
        return pending

    # -- observability -------------------------------------------------------

    def attach_tracer(self, tracer, pid: int, interval_ticks: int = 0) -> None:
        """Emit a sampled ``kernel`` counter track (scheduler occupancy
        gauges) into ``tracer``.  Sampling is tick-driven -- at most one
        counter event per ``interval_ticks`` of simulated time -- and
        adds no events to the schedule, so attaching a tracer can never
        perturb the simulation."""
        self._tracer = tracer
        self._trace_pid = pid
        self._trace_interval = interval_ticks

    @property
    def runq_bypasses(self) -> int:
        """Schedules that skipped the timed tier (same-tick run-queue
        entries).

        Derived rather than counted so the hot scheduling paths carry no
        extra increment: every run-queue append is either an event later
        fired from the run queue (``events_fired - heap_pops``), a
        process bootstrap (``processes_spawned``), or still queued.
        Exact whenever the run queue holds no un-started bootstraps --
        in particular, always between :meth:`run` calls.
        """
        return (self.events_fired - self.heap_pops + self.processes_spawned
                + len(self._runq))

    def sanity_check(self) -> list[str]:
        """Cheap structural checks of the scheduler's own state (used
        by the invariant monitor; never called on the hot path)."""
        problems: list[str] = []
        if self.now < 0:
            problems.append(f"clock is negative: {self.now}")
        # Strictly-past only: while run() drains a same-tick batch off
        # the sparse heap, a monitor callback can legitimately observe
        # the not-yet-fired remainder at tick == now.
        if self._overflow and self._overflow[0][0] < self.now:
            problems.append(
                f"overflow tier holds tick {self._overflow[0][0]} "
                f"< now {self.now}"
            )
        occ = 0
        earliest: Optional[int] = None
        needsort = self._needsort
        for index, bucket in enumerate(self._wheel):
            if bucket:
                occ |= _BIT[index]
                low = min(bucket, key=_TICK)[0]
                if earliest is None or low < earliest:
                    earliest = low
                if not needsort[index] and any(
                    bucket[j][0] > bucket[j + 1][0]
                    for j in range(len(bucket) - 1)
                ):
                    problems.append(
                        f"bucket {index} unsorted but not marked dirty"
                    )
        if occ != self._occ:
            problems.append(
                "bucket occupancy bitmask out of sync with bucket contents"
            )
        if earliest is not None and earliest < self.now:
            problems.append(
                f"calendar holds a past tick {earliest} < now {self.now}"
            )
        if self.heap_pops > self.heap_pushes:
            problems.append(
                f"more timed pops ({self.heap_pops}) than pushes "
                f"({self.heap_pushes})"
            )
        return problems

    def kernel_stats(self) -> dict[str, int]:
        """Snapshot of the kernel's hot-path counters.

        ``heap_pushes``/``heap_pops`` are the timed tier's schedule/fire
        totals (names kept from the binary-heap era for baseline and
        ledger continuity); the ``due_batch_*`` keys are a log-scale
        histogram of batch sizes per clock advance.
        """
        return {
            "events_fired": self.events_fired,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
            "runq_bypasses": self.runq_bypasses,
            "process_resumes": self.process_resumes,
            "processes_spawned": self.processes_spawned,
            "pending_events": self.pending_events,
            "calendar_pushes": self.heap_pushes - self.overflow_spills,
            "overflow_spills": self.overflow_spills,
            "overflow_migrations": self.overflow_migrations,
            "window_advances": self.window_advances,
            "bucket_skip_spans": self.bucket_skip_spans,
            "buckets_skipped": self.buckets_skipped,
            "bucket_resizes": self.bucket_resizes,
            "mode_switches": self.mode_switches,
            "bucket_width": 1 << self._shift,
            "due_batch_max": self.due_batch_max,
            "due_batch_1": self.due_batch_1,
            "due_batch_2_7": self.due_batch_2_7,
            "due_batch_8_63": self.due_batch_8_63,
            "due_batch_64_plus": self.due_batch_64_plus,
        }


#: Active stats collectors; every Simulator constructed while one is
#: active registers itself (used by ``repro profile``).
_collectors: list["KernelStatsCollector"] = []

#: kernel_stats() keys that are gauges / high-water marks: aggregated
#: with max() across simulators instead of summed.
_GAUGE_STATS = frozenset({"bucket_width", "due_batch_max"})


class KernelStatsCollector:
    """Aggregates kernel counters across every registered simulator."""

    def __init__(self) -> None:
        self.simulators: list[Simulator] = []

    def register(self, sim: Simulator) -> None:
        self.simulators.append(sim)

    def stats(self) -> dict[str, int]:
        """Counters of all registered simulators: summed, except the
        ``_GAUGE_STATS`` high-water marks which take the max."""
        totals: dict[str, int] = {"simulators": len(self.simulators)}
        for sim in self.simulators:
            for stat, value in sim.kernel_stats().items():
                if stat == "pending_events":
                    continue
                if stat in _GAUGE_STATS:
                    if value > totals.get(stat, 0):
                        totals[stat] = value
                else:
                    totals[stat] = totals.get(stat, 0) + value
        if len(totals) == 1:
            # No simulators registered: still present the full schema.
            for stat in Simulator().kernel_stats():
                if stat != "pending_events":
                    totals.setdefault(stat, 0)
            totals["simulators"] = 0
        return totals

    @property
    def bypass_ratio(self) -> float:
        """Fraction of schedules that skipped the timed tier entirely."""
        stats = self.stats()
        scheduled = stats["runq_bypasses"] + stats["heap_pushes"]
        if scheduled == 0:
            return 0.0
        return stats["runq_bypasses"] / scheduled


@contextmanager
def collect_kernel_stats() -> Iterator[KernelStatsCollector]:
    """Collect kernel counters from every simulator built in the block.

    ::

        with collect_kernel_stats() as kernel:
            run_microbench(config, spec, window)
        print(kernel.stats()["events_fired"], kernel.bypass_ratio)
    """
    collector = KernelStatsCollector()
    _collectors.append(collector)
    try:
        yield collector
    finally:
        _collectors.remove(collector)
