"""Good: push() is the fire-and-forget enqueue; put() stays where its
event is waited on (a bounded store's backpressure), and other queues
with a put() method are not stores."""

from repro.sim import Store


class Link:
    def __init__(self, sim, events):
        self.sim = sim
        self.events = events
        self._queue = Store(sim, name="txq")
        self._slots = Store(sim, capacity=4, name="slots")

    def send(self, packet):
        self._queue.push(packet)

    def post(self, item):
        yield self._slots.put(item)

    def report(self, message):
        self.events.put(message)
