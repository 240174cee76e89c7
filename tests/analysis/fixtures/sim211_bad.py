"""Bad: a posted send discards the acceptance event of an unbounded
store -- one event built, queued and fired per send that nothing
waits on."""

from repro.sim import Store


class Link:
    def __init__(self, sim):
        self.sim = sim
        self._queue: Store = Store(sim, name="txq")

    def send(self, packet):
        self._queue.put(packet)
