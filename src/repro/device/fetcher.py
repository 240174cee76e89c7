"""The emulator's per-core request fetcher (software-queue interface).

Section IV-A: "After adding a request to the request queue, the host
software triggers the request fetcher by performing an MMIO write to
the corresponding doorbell.  Once triggered, the request fetcher
continuously performs DMA reads of the request queue from host memory
... the request fetcher retrieves descriptors in bursts of eight ...
and continues reading so long as at least one new descriptor is
retrieved during the last burst.  When no new descriptors are
retrieved on a burst, the request fetchers update an in-memory flag to
indicate to the host software that a doorbell is needed."

"Continuously" is implemented by keeping ``fetch_pipeline`` burst DMA
reads in flight, so descriptor throughput is not bottlenecked on one
PCIe round trip per burst.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.config import SwqConfig
from repro.interconnect.packets import Tlp, TlpKind
from repro.interconnect.pcie import PcieLink
from repro.runtime.queuepair import Descriptor, QueuePair
from repro.sim import Event, Simulator, Store

__all__ = ["DmaReadRequest", "DmaWriteRequest", "RequestFetcher"]


class DmaReadRequest:
    """Context of a device-initiated DMA read TLP.

    The host bridge performs the host-DRAM access, then calls
    ``read_fn`` to capture the memory contents *at read time* and
    returns them in a completion of ``reply_bytes`` payload.
    """

    __slots__ = ("reply_bytes", "read_fn")

    def __init__(self, reply_bytes: int, read_fn: Callable[[], object]) -> None:
        self.reply_bytes = reply_bytes
        self.read_fn = read_fn


class DmaWriteRequest:
    """Context of a device-initiated DMA write TLP.

    ``on_commit`` runs when the write lands in host DRAM (this is how
    completion entries become visible to the polling host software).
    """

    __slots__ = ("on_commit",)

    def __init__(self, on_commit: Callable[[], None] | None = None) -> None:
        self.on_commit = on_commit


class RequestFetcher:
    """One core's descriptor-fetch engine inside the device."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        queue_pair: QueuePair,
        link: PcieLink,
        config: SwqConfig,
        ring_addr: int,
        serve: Callable[[Descriptor, int], None],
        name: str = "",
    ) -> None:
        self.sim = sim
        self.core_id = core_id
        self.queue_pair = queue_pair
        self.link = link
        self.config = config
        self.ring_addr = ring_addr
        self.serve = serve
        self.name = name or f"fetcher{core_id}"
        self._wakeup: Event | None = None
        self._doorbell_latched = False
        self._replies: Store = Store(sim, name=f"{self.name}-replies")
        self.doorbells_received = 0
        self.bursts_issued = 0
        self.descriptors_fetched = 0
        self.empty_bursts = 0
        self.flag_writes = 0
        #: Optional observability hooks (None keeps hot paths untouched).
        #: Burst issue ticks pair FIFO with reply receipts (the link and
        #: host DRAM both serve in order), giving each burst's DMA
        #: round-trip duration.
        self.tracer = None
        self._trace_pid = 0
        self._trace_tid = 0
        self._burst_issued_at: deque[int] = deque()
        sim.process(self._run(), name=self.name)

    def attach_tracer(self, tracer, pid: int, tid: int) -> None:
        self.tracer = tracer
        self._trace_pid = pid
        self._trace_tid = tid

    def register_metrics(self, registry, prefix: str) -> None:
        registry.register(
            f"{prefix}.doorbells_received", lambda: self.doorbells_received
        )
        registry.register(f"{prefix}.bursts_issued", lambda: self.bursts_issued)
        registry.register(
            f"{prefix}.descriptors_fetched", lambda: self.descriptors_fetched
        )
        registry.register(f"{prefix}.empty_bursts", lambda: self.empty_bursts)
        registry.register(f"{prefix}.flag_writes", lambda: self.flag_writes)

    # -- host-facing ------------------------------------------------------------

    def ring_doorbell(self) -> None:
        """The doorbell MMIO write arrived (or the post-flag recheck
        found pending work)."""
        self.doorbells_received += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                "swq",
                self._trace_pid,
                self._trace_tid,
                f"{self.name}-doorbell",
                self.sim.now,
            )
        if self._wakeup is not None:
            wakeup, self._wakeup = self._wakeup, None
            wakeup.succeed(None)
        else:
            # Not parked yet (mid-transition to idle, or actively
            # fetching): latch so the wakeup is not lost.
            self._doorbell_latched = True

    def deliver_completion(self, tlp: Tlp) -> None:
        """A descriptor-read completion returned from the host."""
        self._replies.push(tlp.data)

    # -- engine -------------------------------------------------------------------

    def _run(self):
        pipeline = self.config.fetch_pipeline if self.config.burst_reads else 1
        while True:
            # Idle until a doorbell restarts us (unless one already
            # arrived while we were winding down).
            if self._doorbell_latched:
                self._doorbell_latched = False
            else:
                self._wakeup = Event(self.sim)
                yield self._wakeup
            # Active phase: keep up to ``pipeline`` burst reads in
            # flight while descriptors keep coming.
            issuing = True
            outstanding = 0
            while issuing or outstanding > 0:
                while issuing and outstanding < pipeline:
                    self._issue_burst()
                    outstanding += 1
                batch = yield self._replies.get()
                outstanding -= 1
                self.descriptors_fetched += len(batch)
                tracer = self.tracer
                if tracer is not None and self._burst_issued_at:
                    tracer.complete(
                        "swq",
                        self._trace_pid,
                        self._trace_tid,
                        f"{self.name}-burst",
                        self._burst_issued_at.popleft(),
                        self.sim.now,
                        args={"descriptors": len(batch)},
                    )
                    tracer.counter(
                        "swq",
                        self._trace_pid,
                        f"{self.name}.ring",
                        self.sim.now,
                        {"pending": self.queue_pair.requests_pending},
                    )
                for descriptor in batch:
                    self.serve(descriptor, self.sim.now)
                if not batch:
                    self.empty_bursts += 1
                    issuing = False
            if self.config.doorbell_flag:
                # Tell the host to ring next time, then go idle.  The
                # flag write's commit rechecks the ring to close the
                # enqueue/flag race.
                yield from self._write_doorbell_flag()

    def _issue_burst(self) -> None:
        """Send one DMA burst read of the request ring."""
        burst = self.config.fetch_burst if self.config.burst_reads else 1
        context = DmaReadRequest(
            reply_bytes=burst * self.config.descriptor_bytes,
            read_fn=lambda: self.queue_pair.device_fetch(burst),
        )
        self.bursts_issued += 1
        if self.tracer is not None:
            self._burst_issued_at.append(self.sim.now)
        self.link.upstream.send(
            Tlp(
                TlpKind.MEM_READ,
                address=self.ring_addr,
                payload_bytes=0,
                requester=self.name,
                context=context,
            )
        )

    def _write_doorbell_flag(self):
        """Post the in-memory doorbell-request flag."""
        self.flag_writes += 1
        committed = Event(self.sim)

        def on_commit() -> None:
            if self.queue_pair.requests_pending:
                # Work raced in while we were going idle: restart
                # instead of publishing the flag.
                self.ring_doorbell()
            else:
                self.queue_pair.device_set_doorbell_flag()
            committed.succeed(None)

        self.link.upstream.send(
            Tlp(
                TlpKind.MEM_WRITE,
                address=self.ring_addr,
                payload_bytes=8,
                requester=self.name,
                context=DmaWriteRequest(on_commit),
            )
        )
        yield committed
