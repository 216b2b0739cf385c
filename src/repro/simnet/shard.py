"""Sharded event queues with a deterministic merge.

No world uses this; kept only because ``benchmarks/e2e/seams.py::WRAPS``
resolves its names — delete with ROADMAP 4(b).

The experiment runner already shards work *across* simulations
(``repro.experiments.runner``); this module generalizes the idea to
*within* one world: the kernel's single event heap becomes one heap per
shard (a region, a peer partition — any stable assignment), executed
through a k-way merge on the global ``(time, sequence)`` order.

Determinism argument (pinned by ``tests/simnet/test_sharded_queue.py``):

- every ``schedule`` call still draws one globally monotonic sequence
  number, exactly like :class:`~repro.simnet.sim.Simulator`;
- each shard's heap orders its own events by ``(time, sequence)``;
- the merge always pops the minimum over all shard heads, so the
  executed order is the global ``(time, sequence)`` order — *identical
  to the single-queue order for any shard count and any assignment of
  events to shards*, same-instant ties included.

Conservative lookahead (the PDES window rule): with ``lookahead=L``
set, execution is partitioned into windows ``[W, W + L)`` and an event
executing in shard ``r`` may only schedule into a different shard ``s``
with ``delay >= L``. Cross-shard messages therefore always land in a
window *after* the sender's, which makes the events of one window
mutually independent across shards — the invariant that would let each
shard's slice of a window run on its own core. (Execution here is the
sequential merge either way, so results are byte-identical with the
windows on or off; the property suite checks the invariant itself.)
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.errors import SimulationError
from repro.simnet.sim import _FREE_LIST_CAP, Future, Simulator, Timer


class ShardedSimulator(Simulator):
    """Drop-in :class:`Simulator` with per-shard heaps and a k-way merge.

    ``schedule`` routes events to the *current* shard (the shard of the
    event being executed) unless an explicit ``shard=`` is given; the
    build phase can pre-partition long-lived state (e.g. churn timers
    per region) and protocol callbacks inherit their shard ambiently.
    """

    def __init__(self, shards: int = 1, lookahead: float | None = None) -> None:
        super().__init__()
        if shards < 1:
            raise SimulationError(f"need at least one shard, got {shards}")
        self.n_shards = shards
        self._shard_queues: list[list[list]] = [[] for _ in range(shards)]
        #: merge heap of ``(time, sequence, shard)`` shard-head entries;
        #: entries go stale when a shard's head changes and are lazily
        #: discarded (the sequence check against the live head).
        self._heads: list[tuple[float, int, int]] = []
        #: the shard whose event is currently executing (events
        #: scheduled without an explicit shard inherit it).
        self.current_shard = 0
        self.lookahead = lookahead
        #: cross-shard sends observed while ``lookahead`` is set:
        #: ``(send_time, deliver_time, from_shard, to_shard,
        #: window_end_at_send)`` — the property tests assert delivery
        #: never precedes the send time or the sender's window.
        self.cross_sends: list[tuple[float, float, int, int, float]] = []
        self.windows_run = 0
        self._window_end: float | None = None
        self._executing = False

    # -- scheduling ------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        shard: int | None = None,
    ) -> Timer:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        target = self.current_shard if shard is None else shard
        if not 0 <= target < self.n_shards:
            raise SimulationError(f"no such shard: {target}")
        if (
            self.lookahead is not None
            and self._executing
            and target != self.current_shard
        ):
            if delay < self.lookahead:
                raise SimulationError(
                    f"cross-shard send needs delay >= lookahead "
                    f"({self.lookahead}), got {delay}"
                )
            self.cross_sends.append((
                self.now, self.now + delay, self.current_shard, target,
                self._window_end if self._window_end is not None else self.now,
            ))
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
        queue = self._shard_queues[target]
        heapq.heappush(queue, event)
        if queue[0] is event:
            # New head: register it with the merge heap. A previous
            # head's entry (if any) stays behind and is discarded as
            # stale when it surfaces.
            heapq.heappush(self._heads, (event[0], sequence, target))
        return Timer(event, sequence)

    # -- the deterministic merge ----------------------------------------

    def _peek(self) -> tuple[float, int, int] | None:
        """The (time, sequence, shard) of the next event, else None."""
        heads = self._heads
        queues = self._shard_queues
        while heads:
            time, sequence, shard = heads[0]
            queue = queues[shard]
            if not queue or queue[0][1] != sequence:
                heapq.heappop(heads)  # stale: that head already moved on
                continue
            return time, sequence, shard
        return None

    def _pop(self, shard: int) -> list:
        """Pop ``shard``'s head (it was just validated by :meth:`_peek`)."""
        heapq.heappop(self._heads)
        queue = self._shard_queues[shard]
        event = heapq.heappop(queue)
        if queue:
            head = queue[0]
            heapq.heappush(self._heads, (head[0], head[1], shard))
        return event

    def _execute(self, event: list, shard: int) -> bool:
        """Run one popped event; returns False for cancelled cells."""
        callback = event[2]
        event[2] = None
        if len(self._free) < _FREE_LIST_CAP:
            self._free.append(event)
        if callback is None:
            return False  # cancelled: lazy deletion, same as the base kernel
        self.now = event[0]
        if self.lookahead is not None and (
            self._window_end is None or event[0] >= self._window_end
        ):
            self._window_end = event[0] + self.lookahead
            self.windows_run += 1
        self._processed += 1
        self.current_shard = shard
        self._executing = True
        try:
            callback()
        finally:
            self._executing = False
        return True

    # -- run loops (same contracts as the base kernel) -------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        count = 0
        while True:
            head = self._peek()
            if head is None:
                break
            time, _sequence, shard = head
            if until is not None and time > until:
                self.now = until
                return
            if self._execute(self._pop(shard), shard):
                count += 1
                if max_events is not None and count >= max_events:
                    raise SimulationError(f"exceeded {max_events} events")
        if until is not None:
            self.now = max(self.now, until)

    def run_process(self, generator, timeout: float | None = None):
        deadline = None if timeout is None else self.now + timeout
        process = self.spawn(generator)
        future = process.future
        while future._state == Future._PENDING:
            head = self._peek()
            if head is None:
                raise SimulationError("process did not complete (deadlock)")
            time, _sequence, shard = head
            if deadline is not None and time > deadline:
                raise SimulationError("process did not complete (timeout)")
            self._execute(self._pop(shard), shard)
        return future.result()
