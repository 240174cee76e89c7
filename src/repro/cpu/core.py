"""An approximate out-of-order core executing macro-op effects.

The model captures the mechanisms the paper's analysis rests on, and
nothing more:

* a bounded reorder buffer with in-order retirement -- long-latency
  loads at the head stall dispatch (Figure 2's on-demand collapse);
* dispatch-width-limited front end and an IPC-limited "work" pipeline
  (the microbenchmark's dependent arithmetic runs at ~1.4 IPC);
* loads/prefetches that allocate line-fill buffers and travel through
  the shared uncore queues (Figures 3 and 5's plateaus);
* cheap primitives for the software overheads of the runtime: context
  switches, descriptor builds, completion polling, MMIO doorbells.

Work blocks dispatch and retire in chunks so that the instruction
window behaves like a window of instructions rather than a window of
loop iterations; the chunk size is a fidelity knob, not a hardware
parameter.

All methods that consume front-end time are generators and must be
driven from the core's single runtime process (``yield from``).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.config import CpuConfig
from repro.cpu.memsys import CoreMemorySystem
from repro.cpu.rob import ReorderBuffer
from repro.cpu.uncore import AddressSpace
from repro.errors import SimulationError
from repro.sim import Event, Resource, Simulator, all_of
from repro.sim.trace import Counter

__all__ = ["LoadToken", "OutOfOrderCore"]


class LoadToken:
    """Handle to an in-flight (or completed) load.

    ``event`` fires with the full line's bytes; :meth:`word` extracts
    the 64-bit word the access asked for.
    """

    __slots__ = ("event", "addr", "line_addr")

    def __init__(self, event: Event, addr: int, line_addr: int) -> None:
        self.event = event
        self.addr = addr
        self.line_addr = line_addr

    @property
    def done(self) -> bool:
        return self.event.fired

    def word(self) -> int:
        """The loaded 64-bit value (line must have arrived)."""
        from repro.memory import FlatMemory

        return FlatMemory.word_from_line(self.line_addr, self.event.value, self.addr)


class OutOfOrderCore:
    """One core: front end, ROB, and a private memory subsystem."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        config: CpuConfig,
        memsys: CoreMemorySystem,
        work_counter: Counter,
        rob_entries: Optional[int] = None,
        front_end: Optional["Resource"] = None,
    ) -> None:
        self.sim = sim
        self.core_id = core_id
        self.config = config
        self.frequency = config.frequency
        self.memsys = memsys
        entries = rob_entries if rob_entries is not None else config.rob_entries
        self.rob = ReorderBuffer(sim, entries, name=f"rob{core_id}")
        self.work = work_counter
        self.instructions = Counter(f"core{core_id}-instructions")
        #: Shared dispatch bandwidth between SMT contexts: while one
        #: context holds the front end, its sibling waits; a context
        #: stalled on a full ROB releases it, which is exactly SMT's
        #: benefit for on-demand accesses (section III-B).
        self._front_end = front_end
        self._mmio_sink: Optional[Callable[[int, int], None]] = None
        if config.work_chunk_instructions > entries:
            raise SimulationError("work chunk larger than the ROB")

    # -- wiring ---------------------------------------------------------------

    def set_mmio_sink(self, sink: Callable[[int, int], None]) -> None:
        """Attach the posted-MMIO-write path (doorbells)."""
        self._mmio_sink = sink

    def register_metrics(self, registry, prefix: str) -> None:
        """Export this logical core's private probes under ``prefix``
        (e.g. ``core0.rob.max_used``).  The memory subsystem registers
        separately: SMT siblings share it, so the System exports it
        once per *physical* core."""
        registry.register(f"{prefix}.instructions", self.instructions)
        self.rob.register_metrics(registry, f"{prefix}.rob")

    # -- time helpers ---------------------------------------------------------

    def cycles(self, n: float) -> int:
        return self.frequency.cycles(n)

    def _dispatch_ticks(self, instructions: int) -> int:
        return self.frequency.cycles(instructions / self.config.dispatch_width)

    def _execute_ticks(self, instructions: int) -> int:
        return self.frequency.cycles(instructions / self.config.work_ipc)

    def _fired_event(self) -> Event:
        event = Event(self.sim)
        event.succeed(None)
        return event

    def _dispatch(self, ticks: int):
        """Consume front-end time shared with an SMT sibling.

        Only for cores with a shared front end; without one, dispatch
        is a plain ``timeout`` that the callers yield themselves.
        """
        grant = self._front_end.acquire()
        try:
            if not grant.fired:
                yield grant
            yield self.sim.timeout(ticks)
        finally:
            # An exception thrown into the owning process while it sits
            # on the dispatch timeout must not strand the front end --
            # the SMT sibling would deadlock waiting for a slot that is
            # never released.  The slot is ours once the grant has
            # *triggered* (an uncontended acquire grants immediately,
            # before the event fires); an exception while still queued
            # for a contended front end owns nothing to release.
            if grant.triggered:
                self._front_end.release()

    # -- primitives (front-end generators) ------------------------------------

    def dispatch_work(
        self,
        instructions: int,
        deps: Sequence[Event] = (),
        count_as_work: bool = True,
    ):
        """Dispatch a block of arithmetic instructions.

        The block's first chunk starts executing once every event in
        ``deps`` has fired (e.g. the load that produced its input);
        later chunks chain on their predecessor.  Dispatch consumes
        front-end time and ROB slots but does **not** wait for
        execution -- the out-of-order essence.  Returns the completion
        event of the final chunk.
        """
        if instructions < 0:
            raise SimulationError("negative instruction count")
        if instructions == 0:
            return self._fired_event()
        chunk_size = self.config.work_chunk_instructions
        rob = self.rob
        previous: Optional[Event] = None
        remaining = instructions
        first = True
        while remaining > 0:
            chunk = min(chunk_size, remaining)
            remaining -= chunk
            if not rob.try_allocate(chunk):
                yield from rob.allocate(chunk)
            if self._front_end is None:
                yield self.sim.timeout(self._dispatch_ticks(chunk))
            else:
                yield from self._dispatch(self._dispatch_ticks(chunk))
            gates: list[Event] = []
            if previous is not None:
                gates.append(previous)
            if first:
                gates.extend(dep for dep in deps if not dep.fired)
                first = False
            exec_ticks = self._execute_ticks(chunk)
            if not gates:
                completion = self.sim.timeout(exec_ticks)
            elif len(gates) == 1:
                completion = self.sim.delayed(gates[0], exec_ticks)
            else:
                completion = self.sim.delayed(all_of(self.sim, gates), exec_ticks)
            rob.commit(chunk, completion, self._retire_hook(chunk, count_as_work))
            previous = completion
        return previous

    def _retire_hook(self, instructions: int, count_as_work: bool):
        def hook() -> None:
            self.instructions.add(instructions)
            if count_as_work:
                self.work.add(instructions)

        return hook

    def issue_load(self, addr: int, space: AddressSpace):
        """Dispatch one load; returns a :class:`LoadToken` immediately.

        The token's event fires with the line data.  The load occupies
        one ROB slot until it completes (and everything older retires).
        """
        rob = self.rob
        if not rob.try_allocate(1):
            yield from rob.allocate(1)
        if self._front_end is None:
            yield self.sim.timeout(self._dispatch_ticks(1))
        else:
            yield from self._dispatch(self._dispatch_ticks(1))
        data_event = self.memsys.load_line(addr, space)
        rob.commit(1, data_event, self._retire_hook(1, False))
        return LoadToken(data_event, addr, self.memsys.line_of(addr))

    def issue_store(self, addr: int, space: AddressSpace, num_bytes: int = 8):
        """Dispatch one posted store (section VII's future-work path).

        The store retires at dispatch and drains through the store
        buffer in the background; dispatch stalls only while the
        buffer is full.  Functional memory contents are the caller's
        responsibility (program order at the writing thread).
        """
        if self.memsys.store_buffer is None:
            raise SimulationError(
                f"core{self.core_id}: no store buffer attached (writes "
                "need a System-built memory subsystem)"
            )
        rob = self.rob
        if not rob.try_allocate(1):
            yield from rob.allocate(1)
        if self._front_end is None:
            yield self.sim.timeout(self._dispatch_ticks(1))
        else:
            yield from self._dispatch(self._dispatch_ticks(1))
        from repro.cpu.storebuffer import PendingStore

        yield from self.memsys.store_buffer.post(
            PendingStore(addr, space, num_bytes)
        )
        rob.commit(1, self._fired_event(), self._retire_hook(1, False))

    def wait_data(self, token: LoadToken):
        """Block the front end until ``token``'s line has arrived.

        Models a *use* whose result the program needs before it can
        produce any further instructions (pointer chasing).  Returns
        the line bytes.
        """
        if token.event.fired:
            return token.event.value
        data = yield token.event
        return data

    def issue_prefetch(self, addr: int, space: AddressSpace):
        """Dispatch one non-binding ``prefetcht0``.

        The instruction never waits for data.  Under the default
        ``queue`` policy it retires once it obtains a line-fill buffer
        (waiting in the reservation station while all are busy, so
        dispatch continues past it and ROB backpressure throttles the
        core to the fill rate); under the ``drop`` policy it retires
        immediately, discarded if no buffer was free.
        """
        rob = self.rob
        if not rob.try_allocate(1):
            yield from rob.allocate(1)
        if self._front_end is None:
            yield self.sim.timeout(self._dispatch_ticks(1))
        else:
            yield from self._dispatch(self._dispatch_ticks(1))
        issued = self.memsys.prefetch_line(addr, space)
        rob.commit(1, issued, self._retire_hook(1, False))

    def run_instructions(self, instructions: int, count_as_work: bool = False):
        """Dispatch-and-forget an overhead instruction block.

        Shorthand for software costs (descriptor builds, completion
        handling) that are not "work" in the paper's work-IPC sense.
        """
        if instructions > 0:
            yield from self.dispatch_work(
                instructions, deps=(), count_as_work=count_as_work
            )

    def drain(self):
        """Wait until every dispatched instruction has retired.

        Finite workloads call this before reading the clock, so that
        "execution time" includes in-flight work.
        """
        yield self.rob.idle()

    def busy(self, ticks: int):
        """Occupy the front end for a fixed time (context switch cost,
        serializing instructions, ...)."""
        if ticks > 0:
            yield self.sim.timeout(ticks)

    def mmio_write(self, addr: int, num_bytes: int, cost_ticks: int):
        """A posted uncached write (doorbell): the core pays a fixed
        cost; the write travels to the device asynchronously."""
        if self._mmio_sink is None:
            raise SimulationError(f"core{self.core_id}: no MMIO sink attached")
        yield from self.busy(cost_ticks)
        self._mmio_sink(addr, num_bytes)

    # -- introspection ---------------------------------------------------------

    @property
    def lfb(self):
        return self.memsys.lfb

    @property
    def l1(self):
        return self.memsys.l1
