"""Discrete-event engine behaviour."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import AllOf, Engine, Timeout


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_callbacks_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(5.0, lambda _v: order.append("b"))
        engine.schedule(1.0, lambda _v: order.append("a"))
        engine.schedule(9.0, lambda _v: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 9.0

    def test_ties_run_fifo(self):
        engine = Engine()
        order = []
        for tag in range(5):
            engine.schedule(3.0, lambda _v, t=tag: order.append(t))
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-0.1, lambda _v: None)

    def test_run_until_stops_before_future_events(self):
        engine = Engine()
        fired = []
        engine.schedule(10.0, lambda _v: fired.append(1))
        engine.run(until=5.0)
        assert fired == []
        assert engine.now == 5.0
        engine.run()
        assert fired == [1]

    def test_max_events_guard(self):
        engine = Engine()

        def reschedule(_v):
            engine.schedule(1.0, reschedule)

        engine.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_value_delivery(self):
        engine = Engine()
        seen = []
        engine.schedule(1.0, seen.append, value=42)
        engine.run()
        assert seen == [42]


class TestEvents:
    def test_event_resumes_waiters_with_value(self):
        engine = Engine()
        event = engine.event()
        got = []

        def waiter():
            value = yield event
            got.append(value)

        engine.process(waiter())
        engine.schedule(4.0, lambda _v: event.succeed("payload"))
        engine.run()
        assert got == ["payload"]

    def test_event_cannot_trigger_twice(self):
        engine = Engine()
        event = engine.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_waiting_on_triggered_event_resumes_immediately(self):
        engine = Engine()
        event = engine.event()
        event.succeed(7)
        got = []

        def waiter():
            value = yield event
            got.append((engine.now, value))

        engine.process(waiter())
        engine.run()
        assert got == [(0.0, 7)]

    def test_multiple_waiters(self):
        engine = Engine()
        event = engine.event()
        got = []

        def waiter(tag):
            yield event
            got.append(tag)

        for tag in "xyz":
            engine.process(waiter(tag))
        engine.schedule(1.0, lambda _v: event.succeed())
        engine.run()
        assert sorted(got) == ["x", "y", "z"]


class TestProcesses:
    def test_timeout_advances_clock(self):
        engine = Engine()
        trace = []

        def body():
            yield Timeout(3.0)
            trace.append(engine.now)
            yield Timeout(4.0)
            trace.append(engine.now)

        engine.process(body())
        engine.run()
        assert trace == [3.0, 7.0]

    def test_done_event_carries_return_value(self):
        engine = Engine()

        def body():
            yield Timeout(1.0)
            return "result"

        process = engine.process(body())
        engine.run()
        assert process.done.triggered
        assert process.done.value == "result"

    def test_allof_waits_for_every_event(self):
        engine = Engine()
        events = [engine.event() for _ in range(3)]
        finished = []

        def body():
            yield AllOf(events)
            finished.append(engine.now)

        engine.process(body())
        for delay, event in zip((2.0, 9.0, 5.0), events):
            engine.schedule(delay, lambda _v, e=event: e.succeed())
        engine.run()
        assert finished == [9.0]

    def test_allof_with_already_triggered_events(self):
        engine = Engine()
        events = [engine.event() for _ in range(2)]
        for event in events:
            event.succeed()
        finished = []

        def body():
            yield AllOf(events)
            finished.append(engine.now)

        engine.process(body())
        engine.run()
        assert finished == [0.0]

    def test_allof_empty_resumes(self):
        engine = Engine()
        finished = []

        def body():
            yield AllOf([])
            finished.append(True)

        engine.process(body())
        engine.run()
        assert finished == [True]

    def test_unknown_command_rejected(self):
        engine = Engine()

        def body():
            yield "nonsense"

        engine.process(body(), name="bad")
        with pytest.raises(SimulationError):
            engine.run()

    def test_wait_until(self):
        engine = Engine()
        trace = []

        def body():
            yield engine.wait_until(6.0)
            trace.append(engine.now)
            # waiting for the past (or now) is a zero-delay resume
            yield engine.wait_until(6.0)
            trace.append(engine.now)

        engine.process(body())
        engine.run()
        assert trace == [6.0, 6.0]

    def test_wait_until_past_rejected(self):
        engine = Engine()

        def body():
            yield Timeout(5.0)
            yield engine.wait_until(1.0)

        engine.process(body())
        with pytest.raises(SimulationError):
            engine.run()

    def test_nested_process_spawning(self):
        engine = Engine()
        results = []

        def child(tag):
            yield Timeout(2.0)
            return tag

        def parent():
            processes = [engine.process(child(t)) for t in ("a", "b")]
            yield AllOf([p.done for p in processes])
            results.extend(p.done.value for p in processes)

        engine.process(parent())
        engine.run()
        assert results == ["a", "b"]


class TestDispatchOrdering:
    """The batch-dispatch/now-queue invariants the hot path relies on."""

    def test_same_timestamp_heap_batch_runs_before_now_queue_work(self):
        # Work spawned at time T with zero delay must run after *every* heap
        # entry already scheduled for T — not interleaved per-callback.
        engine = Engine()
        order = []

        def spawn_zero_delay(_v):
            order.append("heap0")
            engine.schedule(0.0, lambda _v: order.append("nowq"))

        engine.schedule(3.0, spawn_zero_delay)
        engine.schedule(3.0, lambda _v: order.append("heap1"))
        engine.run()
        assert order == ["heap0", "heap1", "nowq"]

    def test_zero_delay_chains_run_fifo_at_fixed_time(self):
        engine = Engine()
        order = []

        def chain(tag, depth):
            order.append((tag, depth))
            if depth:
                engine.schedule(0.0, lambda _v: chain(tag, depth - 1))

        engine.schedule(0.0, lambda _v: chain("a", 2))
        engine.schedule(0.0, lambda _v: chain("b", 2))
        engine.run()
        assert order == [
            ("a", 2), ("b", 2), ("a", 1), ("b", 1), ("a", 0), ("b", 0),
        ]
        assert engine.now == 0.0

    def test_succeed_resumes_waiters_in_registration_order(self):
        engine = Engine()
        event = engine.event()
        order = []

        def waiter(tag):
            yield event
            order.append(tag)

        for tag in "abc":
            engine.process(waiter(tag))
        engine.schedule(1.0, lambda _v: event.succeed())
        engine.run()
        assert order == ["a", "b", "c"]

    def test_call_at_takes_the_slot_of_wait_until(self):
        # A chain of call_at stages must interleave with other work exactly
        # as a process yielding wait_until on the same targets does: same
        # order, same clock, same event count.
        targets = [0.0, 5.0, 5.0, 7.5, 7.5 - 1e-12]

        def program(continuation):
            engine = Engine()
            order = []
            for when in (5.0, 7.5):
                engine.schedule(when, lambda _v, w=when: order.append(("other", w)))
            if continuation:
                remaining = list(targets)

                def stage(_v):
                    order.append(("chain", engine.now))
                    if remaining:
                        engine.call_at(remaining.pop(0), stage)

                engine.schedule(0.0, stage)
            else:

                def body():
                    for when in targets:
                        order.append(("chain", engine.now))
                        yield engine.wait_until(when)
                    order.append(("chain", engine.now))

                engine.process(body())
            for when in (5.0, 7.5):
                engine.schedule(when, lambda _v, w=when: order.append(("late", w)))
            engine.run()
            return order, engine.now, engine.events_processed

        assert program(continuation=True) == program(continuation=False)

    def test_call_at_past_rejected(self):
        engine = Engine()
        engine.schedule(5.0, lambda _v: engine.call_at(1.0, lambda _v: None))
        with pytest.raises(SimulationError):
            engine.run()

    def test_events_processed_counts_every_callback(self):
        engine = Engine()
        engine.schedule(1.0, lambda _v: None)
        engine.schedule(1.0, lambda _v: None)
        engine.schedule(0.0, lambda _v: None)
        engine.run()
        assert engine.events_processed == 3

    def test_run_repeats_are_deterministic(self):
        # Two fresh engines running the same program must agree on clock and
        # event count exactly — the bit-identity the golden suite pins.
        def program():
            engine = Engine()
            event = engine.event()

            def producer():
                yield Timeout(2.0)
                event.succeed(7)

            def consumer():
                value = yield event
                yield Timeout(float(value))

            engine.process(producer())
            engine.process(consumer())
            engine.run()
            return engine.now, engine.events_processed

        assert program() == program()


class TestRunBoundaries:
    def test_until_exactly_at_event_time_fires_the_event(self):
        engine = Engine()
        fired = []
        engine.schedule(5.0, lambda _v: fired.append(1))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0

    def test_until_drains_pending_zero_delay_work_first(self):
        engine = Engine()
        fired = []
        engine.schedule(0.0, lambda _v: fired.append("now"))
        engine.schedule(10.0, lambda _v: fired.append("later"))
        engine.run(until=1.0)
        assert fired == ["now"]
        assert engine.now == 1.0
        engine.run()
        assert fired == ["now", "later"]
        assert engine.now == 10.0

    def test_max_events_counts_now_queue_work(self):
        engine = Engine()

        def respawn(_v):
            engine.schedule(0.0, respawn)

        engine.schedule(0.0, respawn)
        with pytest.raises(SimulationError):
            engine.run(max_events=50)

    def test_max_events_spans_run_calls(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1.0, lambda _v: None)
        engine.run()
        assert engine.events_processed == 5
        engine.schedule(1.0, lambda _v: None)
        with pytest.raises(SimulationError):
            engine.run(max_events=5)


class TestAllOfBarrier:
    def test_duplicate_events_in_allof_still_release(self):
        # The counting barrier registers per *listing*, so a duplicated event
        # contributes two pending slots — both released by one succeed().
        engine = Engine()
        event = engine.event()
        finished = []

        def body():
            yield AllOf([event, event])
            finished.append(engine.now)

        engine.process(body())
        engine.schedule(4.0, lambda _v: event.succeed())
        engine.run()
        assert finished == [4.0]

    def test_mixed_triggered_and_pending_events(self):
        engine = Engine()
        done = engine.event()
        done.succeed()
        pending = engine.event()
        finished = []

        def body():
            yield AllOf([done, pending, done])
            finished.append(engine.now)

        engine.process(body())
        engine.schedule(3.0, lambda _v: pending.succeed())
        engine.run()
        assert finished == [3.0]

    def test_allof_of_one_matches_bare_event_wait(self):
        # The warp fast path yields the bare event when a wait has a single
        # element; both forms must resume at the same time.
        def run(single):
            engine = Engine()
            event = engine.event()
            seen = []

            def body():
                yield event if single else AllOf([event])
                seen.append(engine.now)

            engine.process(body())
            engine.schedule(6.0, lambda _v: event.succeed())
            engine.run()
            return seen

        assert run(single=True) == run(single=False) == [6.0]

    def test_barrier_does_not_leak_between_waits(self):
        engine = Engine()
        first = [engine.event() for _ in range(2)]
        second = [engine.event() for _ in range(3)]
        trace = []

        def body():
            yield AllOf(first)
            trace.append(engine.now)
            yield AllOf(second)
            trace.append(engine.now)

        engine.process(body())
        for delay, event in zip((1.0, 2.0), first):
            engine.schedule(delay, lambda _v, e=event: e.succeed())
        for delay, event in zip((3.0, 5.0, 4.0), second):
            engine.schedule(delay, lambda _v, e=event: e.succeed())
        engine.run()
        assert trace == [2.0, 5.0]
