"""A minimal discrete-event engine: generator processes and continuations.

The engine is intentionally small: a binary-heap event queue, a zero-delay
*now queue*, and a monotonically advancing clock measured in core cycles.
Work reaches it in two forms.

*Processes* are Python generators.  A process yields *commands* and is
resumed when the command completes:

``yield Timeout(delay)``
    Resume the process ``delay`` cycles from now.

``yield event``  (an :class:`Event`)
    Resume when the event succeeds.  Multiple processes may wait on one event.

``yield AllOf([event, ...])``
    Resume when every listed event has succeeded.

Resources (see :mod:`repro.sim.resources`) return absolute completion times;
processes convert those into timeouts via :meth:`Engine.wait_until`.  The
workload driver and each GPM's kernel share run as processes.

*Continuations* are slotted :class:`Event` subclasses whose bound-method
stages the engine calls directly: a stage puts its successor on the now
queue, on the heap (:meth:`Engine.call_at`), or on another event's callback
list.  Each stage takes exactly the slot the equivalent ``yield`` would
take, so replacing a process with a continuation keeps the ``(time, seq)``
order and ``events_processed`` while skipping the generator, its ``done``
event and its name.  The per-warp and per-line agents are continuations:
warps (:class:`repro.sm.warp.Warp`), CTA slots
(:class:`repro.sm.scheduler.CtaSlot`) and remote loads and stores
(:mod:`repro.memory.hierarchy`).  Each is itself the event its waiter
waits on.

The design trades generality for speed: there is no process interruption, no
event cancellation, and no priority levels — none of which the GPU model
needs — so the hot path is a heap pop (or deque pop) plus one call: a
continuation's stage, or a process's generator ``send``.  Three structural
optimizations keep the per-event cost low:

* **Now queue.**  Zero-delay work — process starts, ``Event.succeed``
  fan-out, waits on already-triggered events — goes through a plain deque
  instead of the heap.  A large fraction of all events are zero-delay, and a
  deque append/popleft is far cheaper than a heap push/pop.  Ordering is
  preserved: every heap entry at the current timestamp predates (in schedule
  order) every now-queue entry, because a zero delay never reaches the heap.
* **Same-timestamp batch dispatch.**  ``run`` pops every heap entry sharing
  the front timestamp in one inner loop (FIFO by sequence number, exactly as
  before) before draining the now queue, so the ``until``/bookkeeping checks
  run once per distinct time, not once per event.
* **Counting barriers.**  ``AllOf`` waits register one shared bound-method
  callback that decrements a counter on the waiting process — no per-wait
  closure, no materialized waiter list.  Continuations that wait on several
  events (a warp on its remote loads, a CTA slot on its warps) use the same
  scheme.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Generator, Iterable
from typing import Any

from repro.errors import SimulationError


class Timeout:
    """Command object: suspend the yielding process for ``delay`` cycles."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        self.delay = delay

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class Event:
    """A one-shot event processes can wait on.

    Events succeed exactly once, optionally carrying a value that is delivered
    to every waiter.  Waiting on an already-succeeded event resumes the waiter
    immediately (on the next engine step, through the now queue — never via a
    zero-delay heap entry), which makes completion races benign.

    A subclass may add state but must not change this protocol: processes
    wait on a direct subclass through the same fast path as on an Event.
    """

    __slots__ = ("engine", "_callbacks", "triggered", "value")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self._callbacks: list[Any] = []
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> None:
        """Trigger the event, resuming every waiter at the current time."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.value = value
        callbacks = self._callbacks
        if callbacks:
            nowq = self.engine._nowq
            for callback in callbacks:
                nowq.append((callback, value))
            callbacks.clear()


class AllOf:
    """Command object: wait for every event in ``events`` to succeed."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]):
        self.events = list(events)

    def __repr__(self) -> str:
        return f"AllOf(<{len(self.events)} events>)"


class Process:
    """A running generator coroutine bound to an engine.

    The process body is a generator yielding :class:`Timeout`, :class:`Event`,
    or :class:`AllOf` commands.  When the generator returns, the process's
    :attr:`done` event succeeds with the generator's return value.

    ``AllOf`` waits use a *counting barrier*: every pending event gets the
    same bound-method callback (:meth:`_barrier_hit`), which decrements
    :attr:`_pending` and resumes the process at zero.  A process waits on at
    most one command at a time, so one counter per process suffices.
    """

    __slots__ = ("engine", "_generator", "done", "name", "spawned_at", "_pending")

    def __init__(self, engine: "Engine", generator: Generator, name: str = ""):
        self.engine = engine
        self._generator = generator
        self.done = Event(engine)
        self.name = name
        self.spawned_at = engine.now
        self._pending = 0
        engine._nowq.append((self._step, None))

    def _step(self, value: Any) -> None:
        try:
            command = self._generator.send(value)
        except StopIteration as stop:
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.complete(
                    "engine",
                    self.name or "process",
                    self.spawned_at,
                    self.engine.now - self.spawned_at,
                )
            self.done.succeed(stop.value)
            return
        # Inline dispatch of the common commands; `_dispatch` only exists as
        # a seam for the error path and the rare AllOf case.  Exact class
        # checks instead of isinstance: the identity test is the cheapest
        # branch CPython offers on this per-event path.  Event subclasses
        # (the remote memory path's loads) only add state, never behaviour,
        # so a direct subclass takes the Event branch too.
        cls = command.__class__
        if cls is Timeout:
            engine = self.engine
            delay = command.delay
            if delay == 0.0:
                engine._nowq.append((self._step, None))
            else:
                heapq.heappush(
                    engine._heap,
                    (engine.now + delay, engine._seq, self._step, None),
                )
                engine._seq += 1
        elif cls is Event or cls.__base__ is Event:
            if command.triggered:
                self.engine._nowq.append((self._step, command.value))
            else:
                command._callbacks.append(self._step)
        else:
            self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        if isinstance(command, AllOf):
            self._wait_all(command.events)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unknown command {command!r}"
            )

    def _wait_all(self, events: list[Event]) -> None:
        barrier = self._barrier_hit
        pending = 0
        for event in events:
            if not event.triggered:
                event._callbacks.append(barrier)
                pending += 1
        if pending == 0:
            self.engine._nowq.append((self._step, None))
            return
        self._pending = pending

    def _barrier_hit(self, _value: Any) -> None:
        self._pending -= 1
        if self._pending == 0:
            self._step(None)


class Engine:
    """Event heap, zero-delay now queue, and the simulation clock.

    Time is a float measured in cycles.  Events scheduled at identical times
    run in FIFO order: heap ties are broken by a monotonic sequence number,
    and zero-delay work lands in the now queue, which is drained *after* the
    heap's same-timestamp batch — equivalent to the sequence order a pure
    heap would impose, because zero-delay entries are always younger than any
    heap entry at the current time.  Runs are fully deterministic.
    """

    __slots__ = ("_heap", "_nowq", "_seq", "now", "_events_processed", "tracer", "metrics")

    def __init__(self, tracer: Any = None, metrics: Any = None) -> None:
        self._heap: list[tuple[float, int, Any, Any]] = []
        self._nowq: deque[tuple[Any, Any]] = deque()
        self._seq = 0
        self.now = 0.0
        self._events_processed = 0
        # Deferred imports keep this hot, dependency-free module from pulling
        # the observability package at import time (repro.trace.metrics
        # itself imports repro.sim.stats).
        if tracer is None:
            from repro.trace.tracer import NULL_TRACER

            tracer = NULL_TRACER
        self.tracer = tracer
        if metrics is None:
            from repro.trace.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (diagnostic)."""
        return self._events_processed

    def schedule(self, delay: float, callback: Any, value: Any = None) -> None:
        """Run ``callback(value)`` exactly ``delay`` cycles from now.

        Zero-delay work bypasses the heap through the now queue; it still
        runs after everything already scheduled for the current time, in
        FIFO order.
        """
        if delay == 0.0:
            self._nowq.append((callback, value))
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay!r}")
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback, value))
        self._seq += 1

    def call_at(self, when: float, callback: Any) -> None:
        """Run ``callback(None)`` at absolute time ``when`` (>= now).

        Takes exactly the slot a process's ``yield engine.wait_until(when)``
        would: the heap at ``now + delay`` for a positive delay, the now
        queue for a zero one.  Multi-stage continuations (the remote memory
        path) chain their bound-method stages through it.
        """
        now = self.now
        delay = when - now
        if delay > 0.0:
            heapq.heappush(self._heap, (now + delay, self._seq, callback, None))
            self._seq += 1
        elif when < now - 1e-9:
            raise SimulationError(
                f"call_at target {when!r} is before current time {now!r}"
            )
        else:
            self._nowq.append((callback, None))

    def event(self) -> Event:
        """Create a fresh one-shot event bound to this engine."""
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Spawn a process from a generator; it starts on the next step."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float) -> Timeout:
        """Create a timeout command (for symmetry with SimPy-style code)."""
        return Timeout(delay)

    def wait_until(self, when: float) -> Timeout:
        """Timeout command resuming at absolute time ``when`` (>= now)."""
        if when < self.now - 1e-9:
            raise SimulationError(
                f"wait_until target {when!r} is before current time {self.now!r}"
            )
        return Timeout(max(0.0, when - self.now))

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the now queue and the event heap.

        Args:
            until: stop once the clock would pass this time (the event stays
                queued).  ``None`` runs to quiescence.
            max_events: safety valve against runaway simulations; raises
                :class:`SimulationError` when exceeded.

        Returns:
            The final simulation time.

        Each outer iteration is one *epoch*: drain the now queue (work at the
        current time), then batch-dispatch every heap entry sharing the next
        timestamp.  Callbacks that schedule zero-delay work during an epoch
        append to the now queue and run after the heap batch — the same order
        a sequence-numbered heap would produce, without the heap traffic.
        """
        heap = self._heap
        nowq = self._nowq
        pop = heapq.heappop
        popleft = nowq.popleft
        processed = self._events_processed
        try:
            if max_events is None:
                # Fast loop: no per-event limit comparison.  Identical
                # dispatch order to the guarded loop below.
                while True:
                    while nowq:
                        callback, value = popleft()
                        processed += 1
                        callback(value)
                    if not heap:
                        break
                    when = heap[0][0]
                    if until is not None and when > until:
                        self.now = until
                        break
                    self.now = when
                    while True:
                        entry = pop(heap)
                        processed += 1
                        entry[2](entry[3])
                        if not heap or heap[0][0] != when:
                            break
                return self.now
            limit = max_events
            while True:
                while nowq:
                    callback, value = popleft()
                    processed += 1
                    if processed > limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events} at t={self.now}"
                        )
                    callback(value)
                if not heap:
                    break
                when = heap[0][0]
                if until is not None and when > until:
                    self.now = until
                    break
                self.now = when
                while True:
                    entry = pop(heap)
                    processed += 1
                    if processed > limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events} at t={self.now}"
                        )
                    entry[2](entry[3])
                    if not heap or heap[0][0] != when:
                        break
        finally:
            self._events_processed = processed
        return self.now
