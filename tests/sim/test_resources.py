"""Unit tests for Resource and Store primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulator, Store


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    a = res.acquire()
    b = res.acquire()
    c = res.acquire()
    sim.run()
    assert a.fired and b.fired
    assert not c.fired
    assert res.in_use == 2
    assert res.queued == 1


def test_resource_release_unblocks_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    grants = []

    def user(tag, hold):
        yield res.acquire()
        grants.append((tag, sim.now))
        yield sim.timeout(hold)
        res.release()

    sim.process(user("a", 10))
    sim.process(user("b", 10))
    sim.process(user("c", 10))
    sim.run()
    assert grants == [("a", 0), ("b", 10), ("c", 20)]
    assert res.in_use == 0


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_release_when_idle_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_try_acquire_never_queues():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    assert res.try_acquire()
    assert not res.try_acquire()
    assert res.queued == 0
    res.release()
    assert res.try_acquire()


def test_resource_max_in_use_statistic():
    sim = Simulator()
    res = Resource(sim, capacity=5)

    def user(hold):
        yield res.acquire()
        yield sim.timeout(hold)
        res.release()

    for _ in range(3):
        sim.process(user(10))
    sim.run()
    assert res.max_in_use == 3
    assert res.total_acquires == 3


def test_resource_average_occupancy():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user():
        yield res.acquire()
        yield sim.timeout(50)
        res.release()
        yield sim.timeout(50)

    sim.process(user())
    sim.run()
    # Held for 50 of 100 ticks -> average 0.5.
    assert res.average_occupancy() == pytest.approx(0.5)


def test_resource_handoff_keeps_occupancy_at_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(hold):
        yield res.acquire()
        yield sim.timeout(hold)
        res.release()

    sim.process(user(10))
    sim.process(user(10))
    sim.run()
    assert res.max_in_use == 1
    assert res.in_use == 0


def test_store_put_get_fifo():
    sim = Simulator()
    store = Store(sim)
    received = []

    def producer():
        for item in ("x", "y", "z"):
            yield store.put(item)
            yield sim.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append((sim.now, item))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert [item for _, item in received] == ["x", "y", "z"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    def producer():
        yield sim.timeout(25)
        yield store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [(25, "late")]


def test_bounded_store_blocks_put_at_capacity():
    sim = Simulator()
    store = Store(sim, capacity=1)
    timeline = []

    def producer():
        yield store.put("a")
        timeline.append(("a", sim.now))
        yield store.put("b")
        timeline.append(("b", sim.now))

    def consumer():
        yield sim.timeout(40)
        yield store.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert timeline == [("a", 0), ("b", 40)]


def test_store_direct_handoff_to_waiting_getter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    sim.process(consumer())

    def producer():
        yield sim.timeout(5)
        yield store.put("direct")

    sim.process(producer())
    sim.run()
    assert got == ["direct"]
    assert len(store) == 0


def test_store_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


def test_store_len_and_max_level():
    sim = Simulator()
    store = Store(sim)

    def producer():
        for i in range(4):
            yield store.put(i)

    sim.process(producer())
    sim.run()
    assert len(store) == 4
    assert store.max_level == 4
    assert store.total_puts == 4


def test_store_drain_helper():
    sim = Simulator()
    store = Store(sim)

    def producer():
        yield store.put(11)

    def consumer():
        item = yield from store.drain()
        return item

    sim.process(producer())
    assert sim.run(sim.process(consumer())) == 11


def test_average_occupancy_is_side_effect_free():
    """Regression: the query used to flush ``_account()``, so probing it
    mid-run changed the accounting timeline.  It must be pure: same
    answer on repeated calls, and no effect on later statistics."""
    sim = Simulator()
    probed = Resource(sim, capacity=2, name="probed")
    control = Resource(sim, capacity=2, name="control")

    def worker(resource, probe):
        yield resource.acquire()
        yield sim.timeout(100)
        if probe:
            first = resource.average_occupancy()
            assert resource.average_occupancy() == first
        yield sim.timeout(100)
        resource.release()

    sim.process(worker(probed, probe=True))
    sim.process(worker(control, probe=False))
    sim.run()
    assert probed._occupancy_integral == control._occupancy_integral
    assert probed._last_change == control._last_change
    assert probed.average_occupancy() == control.average_occupancy()


def test_store_push_hands_off_to_getters_in_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item, sim.now))

    for tag in "abc":
        sim.process(consumer(tag))
    sim.run()

    def producer():
        yield sim.timeout(5)
        for item in (1, 2, 3, 4):
            assert store.push(item) is None

    sim.process(producer())
    sim.run()
    assert got == [("a", 1, 5), ("b", 2, 5), ("c", 3, 5)]
    # The fourth item found no getter and waits in the store.
    assert len(store) == 1
    assert store.try_get() == (True, 4)


def test_store_push_statistics_match_put():
    def fill(use_push):
        sim = Simulator()
        store = Store(sim)

        def consumer():
            yield store.get()

        sim.process(consumer())
        sim.run()
        for item in range(5):
            if use_push:
                store.push(item)
            else:
                store.put(item)
        sim.run()
        return store.total_puts, store.max_level, len(store), sim.events_fired

    pushed, put = fill(True), fill(False)
    assert pushed[:3] == put[:3] == (5, 4, 4)
    # Same hand-off and statistics, minus one acceptance event per put.
    assert put[3] - pushed[3] == 5


def test_store_push_rejects_a_bounded_store():
    sim = Simulator()
    store = Store(sim, capacity=2, name="ring")
    with pytest.raises(SimulationError, match="ring"):
        store.push(1)
    assert len(store) == 0
    assert store.total_puts == 0
