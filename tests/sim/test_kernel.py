"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Continuation, Simulator, all_of, any_of


def test_timeout_advances_clock():
    sim = Simulator()
    done = sim.timeout(100)
    sim.run(done)
    assert sim.now == 100


def test_timeout_value_passes_through():
    sim = Simulator()
    done = sim.timeout(5, value="payload")
    assert sim.run(done) == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_zero_timeout_fires_at_current_time():
    sim = Simulator()
    done = sim.timeout(0)
    sim.run(done)
    assert sim.now == 0


def test_process_sequences_timeouts():
    sim = Simulator()
    trace = []

    def body():
        yield sim.timeout(10)
        trace.append(sim.now)
        yield sim.timeout(15)
        trace.append(sim.now)
        return "done"

    proc = sim.process(body())
    assert sim.run(proc) == "done"
    assert trace == [10, 25]


def test_process_return_value_none_by_default():
    sim = Simulator()

    def body():
        yield sim.timeout(1)

    assert sim.run(sim.process(body())) is None


def test_same_tick_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def make(tag):
        def body():
            yield sim.timeout(10)
            order.append(tag)

        return body

    for tag in ("a", "b", "c"):
        sim.process(make(tag)())
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append((sim.now, value))

    def opener():
        yield sim.timeout(42)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert seen == [(42, "open")]


def test_event_succeed_twice_is_an_error():
    sim = Simulator()
    gate = sim.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_event_fail_propagates_into_process():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    gate.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_process_exception_fails_its_completion_event():
    sim = Simulator()

    def body():
        yield sim.timeout(1)
        raise ValueError("inside")

    proc = sim.process(body())
    with pytest.raises(ValueError, match="inside"):
        sim.run(proc)


def test_yield_non_event_fails_process():
    sim = Simulator()

    def body():
        yield 123

    proc = sim.process(body())
    with pytest.raises(SimulationError):
        sim.run(proc)


def test_yield_event_from_other_simulator_fails():
    sim_a = Simulator()
    sim_b = Simulator()
    foreign = sim_b.timeout(1)

    def body():
        yield foreign

    proc = sim_a.process(body())
    with pytest.raises(SimulationError):
        sim_a.run(proc)


def test_waiting_on_already_fired_event_resumes_immediately():
    sim = Simulator()
    gate = sim.event()
    gate.succeed("early")
    sim.run()  # process gate callbacks
    assert gate.fired

    def body():
        value = yield gate
        return (sim.now, value)

    result = sim.run(sim.process(body()))
    assert result == (0, "early")


def test_process_is_awaitable_by_other_process():
    sim = Simulator()

    def inner():
        yield sim.timeout(7)
        return 99

    def outer():
        value = yield sim.process(inner())
        return (sim.now, value)

    assert sim.run(sim.process(outer())) == (7, 99)


def test_all_of_waits_for_slowest_and_collects_values():
    sim = Simulator()
    a = sim.timeout(5, value="a")
    b = sim.timeout(9, value="b")

    def body():
        values = yield all_of(sim, [a, b])
        return (sim.now, values)

    assert sim.run(sim.process(body())) == (9, ["a", "b"])


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()

    def body():
        values = yield all_of(sim, [])
        return values

    assert sim.run(sim.process(body())) == []


def test_any_of_fires_on_first():
    sim = Simulator()
    a = sim.timeout(5, value="fast")
    b = sim.timeout(9, value="slow")

    def body():
        value = yield any_of(sim, [a, b])
        return (sim.now, value)

    assert sim.run(sim.process(body())) == (5, "fast")


def test_all_of_fails_if_any_fails():
    sim = Simulator()
    gate = sim.event()
    ok = sim.timeout(3)

    def body():
        yield all_of(sim, [gate, ok])

    proc = sim.process(body())
    gate.fail(RuntimeError("nope"))
    with pytest.raises(RuntimeError, match="nope"):
        sim.run(proc)


def test_all_of_with_already_fired_events():
    sim = Simulator()
    a = sim.timeout(1, value=1)
    b = sim.timeout(2, value=2)
    sim.run()

    def body():
        values = yield all_of(sim, [a, b])
        return values

    assert sim.run(sim.process(body())) == [1, 2]


def test_delayed_chains_fixed_latency_after_event():
    sim = Simulator()
    base = sim.event()
    chained = sim.delayed(base, 30)
    times = []

    def body():
        value = yield chained
        times.append((sim.now, value))

    def opener():
        yield sim.timeout(12)
        base.succeed("v")

    sim.process(body())
    sim.process(opener())
    sim.run()
    assert times == [(42, "v")]


def test_delayed_zero_latency():
    sim = Simulator()
    base = sim.event()
    chained = sim.delayed(base, 0)

    def opener():
        yield sim.timeout(8)
        base.succeed(5)

    sim.process(opener())
    sim.run(chained)
    assert sim.now == 8 and chained.value == 5


def test_delayed_propagates_failure():
    sim = Simulator()
    base = sim.event()
    chained = sim.delayed(base, 10)
    base.fail(RuntimeError("bad"))
    with pytest.raises(RuntimeError, match="bad"):
        sim.run(chained)


def test_continuation_fires_in_run_queue_order_and_rearms():
    sim = Simulator()
    log = []
    step = Continuation(sim, lambda _ev: log.append(("step", sim.now)), "loop")
    marker = sim.event()
    marker.add_callback(lambda _ev: log.append(("marker", sim.now)))

    step.schedule()
    marker.succeed()
    sim.run()
    # Re-armed after firing: a second run-queue firing, then one driven
    # by an awaited event.
    step.schedule()
    later = sim.timeout(7)
    step.wait(later)
    sim.run()
    assert log == [("step", 0), ("marker", 0), ("step", 0), ("step", 7)]
    assert step.fired


def test_continuation_rejects_a_second_pending_firing():
    sim = Simulator()
    step = Continuation(sim, lambda _ev: None, "loop")
    step.schedule()
    with pytest.raises(SimulationError, match="'loop' scheduled twice"):
        step.schedule()


def test_continuation_awaiting_a_failed_event_crashes_the_run():
    sim = Simulator()
    step = Continuation(sim, lambda _ev: None, "retire-loop")
    done = sim.event()
    step.wait(done)
    done.fail(ValueError("faulted"))
    with pytest.raises(ValueError, match="faulted") as info:
        sim.run()
    assert any("'retire-loop'" in note for note in info.value.__notes__)


def test_run_until_time_stops_clock_at_horizon():
    sim = Simulator()
    sim.timeout(50)
    sim.timeout(200)
    sim.run(until=100)
    assert sim.now == 100
    assert sim.pending_events == 1


def test_run_until_untriggered_event_with_empty_queue_raises():
    sim = Simulator()
    gate = sim.event()
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(gate)


def test_clock_never_goes_backwards():
    sim = Simulator()
    stamps = []

    def body(delay):
        yield sim.timeout(delay)
        stamps.append(sim.now)

    for delay in (30, 10, 20, 10):
        sim.process(body(delay))
    sim.run()
    assert stamps == sorted(stamps)


def test_fired_versus_triggered_semantics():
    sim = Simulator()
    timeout = sim.timeout(10)
    # A timeout's outcome is predetermined (triggered), but it has not
    # yet happened in simulated time (not fired).
    assert timeout.triggered
    assert not timeout.fired
    sim.run()
    assert timeout.fired


def test_fail_requires_exception_instance():
    sim = Simulator()
    gate = sim.event()
    with pytest.raises(SimulationError):
        gate.fail("not an exception")  # type: ignore[arg-type]


def test_nested_processes_compose():
    sim = Simulator()

    def leaf(n):
        yield sim.timeout(n)
        return n

    def branch():
        total = 0
        for n in (3, 4):
            total += yield sim.process(leaf(n))
        return total

    assert sim.run(sim.process(branch())) == 7
    assert sim.now == 7


def test_event_value_before_trigger_raises():
    sim = Simulator()
    gate = sim.event()
    with pytest.raises(SimulationError):
        _ = gate.value
