"""The discrete-event kernel: clock, timers, futures and processes.

Protocol logic in this library is written as *processes*: Python
generators that ``yield`` either a float (sleep for that many simulated
seconds) or a :class:`Future` (suspend until it settles). The kernel
advances a virtual clock from event to event, so a simulated minute of
network activity costs only as much real time as the callbacks it runs.

Determinism: events scheduled for the same instant fire in scheduling
order (a monotonic sequence number breaks ties), and no wall-clock or
global RNG state is consulted anywhere.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Generator, Iterable
from typing import Any

from repro.errors import SimulationError

#: Recycled event cells kept per simulator (see :meth:`Simulator.schedule`).
_FREE_LIST_CAP = 4096


class Future:
    """A one-shot container for a value or error, settled at most once."""

    __slots__ = ("_state", "_value", "_callbacks")

    _PENDING, _RESOLVED, _FAILED = 0, 1, 2

    def __init__(self) -> None:
        self._state = Future._PENDING
        self._value: Any = None
        # Lazily allocated: most futures get at most one callback, and
        # short-lived ones (pre-resolved fast paths) get none.
        self._callbacks: list[Callable[[Future], None]] | None = None

    @property
    def done(self) -> bool:
        return self._state != Future._PENDING

    @property
    def failed(self) -> bool:
        return self._state == Future._FAILED

    def result(self) -> Any:
        """The settled value; raises the stored exception on failure."""
        if self._state == Future._PENDING:
            raise SimulationError("future not settled")
        if self._state == Future._FAILED:
            raise self._value
        return self._value

    def exception(self) -> BaseException | None:
        return self._value if self._state == Future._FAILED else None

    def resolve(self, value: Any = None) -> None:
        self._settle(Future._RESOLVED, value)

    def fail(self, error: BaseException) -> None:
        self._settle(Future._FAILED, error)

    def _settle(self, state: int, value: Any) -> None:
        if self._state != Future._PENDING:
            return  # late settlement (e.g. a timed-out RPC reply) is ignored
        self._state = state
        self._value = value
        # Release the callback list before dispatch: settled futures
        # must not retain closures (they capture hosts, walks, whole
        # scenarios) for as long as the future object itself lives.
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    def add_callback(self, callback: Callable[["Future"], None]) -> None:
        if self._state != Future._PENDING:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    @classmethod
    def resolved(cls, value: Any = None) -> "Future":
        future = cls()
        future.resolve(value)
        return future

    @classmethod
    def failed_with(cls, error: BaseException) -> "Future":
        future = cls()
        future.fail(error)
        return future


# An event is a plain 3-slot list ``[time, sequence, callback]``. The
# heap orders lists lexicographically: element 0 (time) first, then
# element 1 (the unique monotonic sequence) — the callback at element 2
# is never compared. This is the same (time, sequence) ordering the old
# dataclass encoded, without a generated ``__lt__`` in the hot path.
#
# Cancellation is lazy deletion: the callback slot is set to ``None``
# and the heap entry is skipped (and recycled) when it surfaces. This
# releases the callback closure *immediately* on cancel — important for
# ``with_timeout``, which cancels a timer on every RPC that completes
# in time — instead of pinning it until the heap drains past its slot.


class Timer:
    """Handle for a scheduled callback; ``cancel()`` prevents firing."""

    __slots__ = ("_event", "_sequence", "_cancelled")

    def __init__(self, event: list, sequence: int) -> None:
        self._event = event
        self._sequence = sequence
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        event = self._event
        # The sequence guard makes stale handles harmless: once the
        # event cell has been recycled for a *newer* timer, cancelling
        # this one must not touch the new occupant.
        if event[1] == self._sequence:
            event[2] = None

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class TimeoutError_(Exception):
    """Raised inside processes when :func:`with_timeout` expires.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class Process:
    """A running generator driven by the simulator.

    The generator may yield:

    - ``float | int`` — sleep that many simulated seconds;
    - :class:`Future` — suspend until it settles (failures are thrown
      into the generator as exceptions);
    - ``None`` — yield control and resume immediately (same timestamp).

    The process itself exposes a :attr:`future` that settles with the
    generator's return value (or its uncaught exception).
    """

    __slots__ = ("_sim", "_generator", "future", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        self._sim = sim
        self._generator = generator
        self.future = Future()
        self.name = name

    def _start(self) -> None:
        self._step(None, None)

    def _resume(self) -> None:
        self._step(None, None)

    def _step(self, value: Any, error: BaseException | None) -> None:
        try:
            if error is not None:
                yielded = self._generator.throw(error)
            else:
                yielded = self._generator.send(value)
        except StopIteration as stop:
            self._generator = None  # release the finished frame early
            self.future.resolve(stop.value)
            return
        except Exception as exc:  # noqa: BLE001 - process boundary
            self._generator = None
            self.future.fail(exc)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, Future):
            yielded.add_callback(self._on_future)
        elif yielded is None:
            self._sim.schedule(0.0, self._resume)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                self._step(None, SimulationError(f"negative sleep: {yielded}"))
                return
            self._sim.schedule(float(yielded), self._resume)
        elif isinstance(yielded, Process):
            yielded.future.add_callback(self._on_future)
        else:
            self._step(None, SimulationError(f"process yielded {type(yielded)!r}"))

    def _on_future(self, future: Future) -> None:
        if future.failed:
            self._step(None, future.exception())
        else:
            self._step(future.result(), None)


class Simulator:
    """The event loop: a priority queue of timestamped callbacks."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[list] = []
        self._sequence = 0
        self._processed = 0
        #: free-list of recycled event cells — scheduling is the single
        #: hottest allocation site of the whole simulator, and churny
        #: workloads (with_timeout per RPC) schedule and cancel millions
        #: of timers; reusing the 3-slot lists keeps the allocator and
        #: GC out of the inner loop.
        self._free: list[list] = []

    @property
    def events_processed(self) -> int:
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` ``delay`` simulated seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        sequence = self._sequence
        self._sequence = sequence + 1
        free = self._free
        if free:
            event = free.pop()
            event[0] = self.now + delay
            event[1] = sequence
            event[2] = callback
        else:
            event = [self.now + delay, sequence, callback]
        heapq.heappush(self._queue, event)
        return Timer(event, sequence)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a process immediately (its first step runs inline)."""
        process = Process(self, generator, name)
        process._start()
        return process

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events until the queue drains, ``until`` is reached,
        or ``max_events`` have run (a runaway-loop backstop)."""
        count = 0
        queue = self._queue
        free = self._free
        heappop = heapq.heappop
        while queue:
            event = queue[0]
            if until is not None and event[0] > until:
                self.now = until
                return
            heappop(queue)
            callback = event[2]
            event[2] = None
            if len(free) < _FREE_LIST_CAP:
                free.append(event)
            if callback is None:
                continue  # cancelled: lazy deletion
            self.now = event[0]
            self._processed += 1
            callback()
            count += 1
            if max_events is not None and count >= max_events:
                raise SimulationError(f"exceeded {max_events} events")
        if until is not None:
            self.now = max(self.now, until)

    def run_process(self, generator: Generator, timeout: float | None = None) -> Any:
        """Spawn a process, run the simulation until it finishes, and
        return its result.

        Stops as soon as the process settles, even if perpetual
        background processes (churn, republishers) keep the event queue
        populated. Raises the process's exception if it failed, and
        :class:`SimulationError` if the queue drained (deadlock) or
        ``timeout`` simulated seconds elapsed first.
        """
        deadline = None if timeout is None else self.now + timeout
        process = self.spawn(generator)
        future = process.future
        queue = self._queue
        free = self._free
        heappop = heapq.heappop
        while future._state == Future._PENDING:
            if not queue:
                raise SimulationError("process did not complete (deadlock)")
            event = queue[0]
            if deadline is not None and event[0] > deadline:
                raise SimulationError("process did not complete (timeout)")
            heappop(queue)
            callback = event[2]
            event[2] = None
            if len(free) < _FREE_LIST_CAP:
                free.append(event)
            if callback is None:
                continue  # cancelled: lazy deletion
            self.now = event[0]
            self._processed += 1
            callback()
        return future.result()


def sleep(seconds: float) -> Generator:
    """A sub-process that just waits (``yield from sleep(2)``)."""
    yield seconds


def any_of(futures: Iterable[Future]) -> Future:
    """Settle when the first input future settles (value or error).

    The result is ``(index, value)`` of the winner. Used for racing
    Bitswap against the 1 s DHT-fallback timer.
    """
    futures = list(futures)
    combined = Future()
    if not futures:
        raise SimulationError("any_of of no futures")

    def make_callback(index: int) -> Callable[[Future], None]:
        def on_done(future: Future) -> None:
            if combined.done:
                return
            if future.failed:
                combined.fail(future.exception())  # type: ignore[arg-type]
            else:
                combined.resolve((index, future.result()))

        return on_done

    for index, future in enumerate(futures):
        future.add_callback(make_callback(index))
    return combined


def all_of(futures: Iterable[Future]) -> Future:
    """Settle with a list of results once every input settles.

    Failures do not abort the batch: failed slots carry the exception
    object. This mirrors the "fire and forget" provider-record RPCs of
    Section 3.1, where the publisher does not abort on individual peer
    failures.
    """
    futures = list(futures)
    combined = Future()
    if not futures:
        combined.resolve([])
        return combined
    results: list[Any] = [None] * len(futures)
    remaining = len(futures)

    def make_callback(index: int) -> Callable[[Future], None]:
        def on_done(future: Future) -> None:
            nonlocal remaining
            results[index] = future.exception() if future.failed else future.result()
            remaining -= 1
            if remaining == 0:
                combined.resolve(results)

        return on_done

    for index, future in enumerate(futures):
        future.add_callback(make_callback(index))
    return combined


class _Deadline:
    """One :func:`with_timeout` wrapper: the timer's callback
    (:meth:`expire`) and the inner future's (:meth:`settled`) are bound
    methods of this one slotted object rather than two closures."""

    __slots__ = ("inner", "wrapped", "seconds", "timer")

    def __init__(self, sim: Simulator, inner: Future, seconds: float) -> None:
        self.inner = inner
        self.wrapped = Future()
        self.seconds = seconds
        self.timer = sim.schedule(seconds, self.expire)

    def expire(self) -> None:
        error = TimeoutError_(f"timed out after {self.seconds}s")
        self.wrapped.fail(error)
        self.inner.fail(error)

    def settled(self, inner: Future) -> None:
        self.timer.cancel()
        if inner.failed:
            self.wrapped.fail(inner.exception())  # type: ignore[arg-type]
        else:
            self.wrapped.resolve(inner.result())


def with_timeout(sim: Simulator, future: Future, seconds: float) -> Future:
    """Wrap ``future`` so it fails with :class:`TimeoutError_` after
    ``seconds`` if it has not settled.

    Expiry also fails the *inner* future: the caller has abandoned the
    operation, so a reply arriving later must not settle it (and must
    not count as a completion in the network stats — this is what keeps
    ``rpcs_completed + rpcs_timed_out <= rpcs_sent`` an invariant).
    """
    deadline = _Deadline(sim, future, seconds)
    future.add_callback(deadline.settled)
    return deadline.wrapped
