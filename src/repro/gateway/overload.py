"""Gateway overload control: coalescing, admission, queueing, shedding.

The paper's ipfs.io deployment absorbs 7.1 M requests/day through a
single nginx + DHT-server pair (§3.4) — a choke point with no
back-pressure story. This module gives the simulated bridge one: four
mechanisms that switch on together.

- **single-flight coalescing** — concurrent misses for one CID join
  one in-flight upstream retrieval instead of each walking the DHT;
- a bounded **in-flight miss semaphore** (``max_inflight_misses``) —
  only that many upstream retrievals run concurrently;
- a **byte-bounded request queue** with deterministic deadline-based
  shedding — a miss that cannot be admitted waits in FIFO order up to
  ``queue_deadline_s`` simulated seconds; requests that would push the
  queue past ``queue_capacity_bytes`` (sized by the caller's
  ``size_hint``) or that time out waiting are *shed* with a
  503-equivalent :class:`~repro.errors.OverloadError`;
- a **brownout signal**: when the queued bytes reach
  ``brownout_threshold`` of the queue capacity the bridge stops doing
  optional upstream work (stale revalidation, recursive path
  resolution) and serves node-store/stale content first.

Everything runs on the simulated clock via :class:`Simulator` timers —
no wall-clock, no randomness — so shedding decisions are deterministic
and replay byte-identically. The stock bridge (``overload=None``) runs
none of this code; an :class:`OverloadConfig` turns all of it on.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.errors import OverloadError, ReproError
from repro.multiformats.cid import Cid
from repro.multiformats.peerid import PeerId
from repro.simnet.sim import Future, Simulator, Timer


#: Bytes a request is assumed to cost when the caller has no hint (the
#: gateway only learns Content-Length after the fetch).
DEFAULT_SIZE_HINT = 256 * 1024


@dataclass(frozen=True)
class OverloadConfig:
    """Sizes of the hardened bridge's overload machinery.

    A bridge holding one coalesces same-CID misses, bounds in-flight
    upstream retrievals, queues the overflow and browns out when the
    queue saturates — all four at once (see the module docstring).
    """

    #: concurrent upstream retrievals allowed.
    max_inflight_misses: int = 8
    #: byte budget of the miss queue.
    queue_capacity_bytes: int = 64 * 1024 * 1024
    #: how long a queued miss may wait before it is shed.
    queue_deadline_s: float = 10.0
    #: queue saturation (queued/capacity) at which brownout begins.
    brownout_threshold: float = 0.9

    def __post_init__(self) -> None:
        if self.max_inflight_misses < 1:
            raise ReproError(
                f"max_inflight_misses must be >= 1, got {self.max_inflight_misses}"
            )
        if self.queue_capacity_bytes <= 0:
            raise ReproError(
                f"queue_capacity_bytes must be positive, got "
                f"{self.queue_capacity_bytes}"
            )
        if self.queue_deadline_s <= 0:
            raise ReproError(
                f"queue_deadline_s must be positive, got {self.queue_deadline_s}"
            )
        if not 0.0 < self.brownout_threshold <= 1.0:
            raise ReproError(
                f"brownout_threshold must be in (0, 1], got "
                f"{self.brownout_threshold}"
            )


@dataclass
class OverloadStats:
    """What the overload machinery actually did on one bridge."""

    #: misses that joined an already-in-flight retrieval.
    coalesced_joins: int = 0
    #: single-flight upstream retrievals launched.
    single_flights: int = 0
    #: misses admitted straight through the semaphore.
    admitted_immediately: int = 0
    #: misses that waited in the queue before admission.
    queued: int = 0
    #: requests turned away (503): queue overflow + deadline expiry.
    shed_overflow: int = 0
    shed_deadline: int = 0
    #: stale entries served without revalidation during brownout.
    brownout_stale_served: int = 0
    #: path resolutions refused during brownout.
    brownout_paths_dropped: int = 0
    #: upstream fetches satisfied via a shared provider hint (no walk).
    hint_fetches: int = 0
    #: hint fetches that failed and fell back to the full path.
    hint_fallbacks: int = 0

    @property
    def shed(self) -> int:
        return self.shed_overflow + self.shed_deadline


class ProviderHintCache:
    """Bounded LRU map of CID -> last provider that served it.

    Shared across a fleet: when one gateway completes a full retrieval
    (DHT walks and all), every sibling learns who the provider was. A
    gateway taking over a failed peer's hash range can then dial the
    provider directly and skip the cold DHT walk entirely — the hint
    fetch in :meth:`GatewayBridge._retrieve_upstream_hinted`.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ReproError(f"hint cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Cid, PeerId] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, cid: Cid) -> PeerId | None:
        provider = self._entries.get(cid)
        if provider is None:
            self.misses += 1
            return None
        self._entries.move_to_end(cid)
        self.hits += 1
        return provider

    def put(self, cid: Cid, provider: PeerId) -> None:
        if cid in self._entries:
            self._entries.move_to_end(cid)
        self._entries[cid] = provider
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate(self, cid: Cid) -> None:
        self._entries.pop(cid, None)


class _Waiter:
    """One queued miss: a future plus its byte cost and shed timer."""

    __slots__ = ("future", "size_hint", "timer", "done")

    def __init__(self, future: Future, size_hint: int, timer: Timer) -> None:
        self.future = future
        self.size_hint = size_hint
        self.timer = timer
        self.done = False


class MissGate:
    """Bounded in-flight misses plus the byte-bounded deadline queue.

    ``acquire(size_hint)`` either admits the caller immediately
    (returns ``None``), returns a :class:`Future` to wait on (resolved
    when a slot frees up; failed with :class:`OverloadError` when the
    deadline passes first), or raises :class:`OverloadError` right away
    when the queue has no room. Callers must pair every successful
    acquisition with exactly one ``release()``.
    """

    def __init__(
        self, sim: Simulator, config: OverloadConfig, stats: OverloadStats
    ) -> None:
        self.sim = sim
        self.config = config
        self.stats = stats
        self.inflight = 0
        self.queued_bytes = 0
        self._waiters: deque[_Waiter] = deque()

    @property
    def saturation(self) -> float:
        """Queue fullness in [0, 1]."""
        return min(1.0, self.queued_bytes / self.config.queue_capacity_bytes)

    @property
    def in_brownout(self) -> bool:
        return self.saturation >= self.config.brownout_threshold

    def acquire(self, size_hint: int) -> Future | None:
        """Admit, enqueue, or shed one miss (see class docstring)."""
        if self.inflight < self.config.max_inflight_misses:
            self.inflight += 1
            self.stats.admitted_immediately += 1
            return None
        capacity = self.config.queue_capacity_bytes
        if self.queued_bytes + size_hint > capacity:
            self.stats.shed_overflow += 1
            raise OverloadError(
                f"miss queue full ({self.queued_bytes}/{capacity} bytes)"
            )
        future: Future = Future()
        waiter = _Waiter(future, size_hint, None)
        waiter.timer = self.sim.schedule(
            self.config.queue_deadline_s, lambda: self._expire(waiter)
        )
        self._waiters.append(waiter)
        self.queued_bytes += size_hint
        self.stats.queued += 1
        return future

    def _expire(self, waiter: _Waiter) -> None:
        """Deadline fired while the waiter was still queued: shed it."""
        if waiter.done:
            return
        waiter.done = True
        self.queued_bytes -= waiter.size_hint
        self.stats.shed_deadline += 1
        waiter.future.fail(
            OverloadError(
                f"shed after {self.config.queue_deadline_s}s in the miss queue"
            )
        )

    def release(self) -> None:
        """One upstream retrieval finished; hand its slot to the queue."""
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.done:
                continue  # already shed by its deadline timer
            waiter.done = True
            waiter.timer.cancel()
            self.queued_bytes -= waiter.size_hint
            # The slot transfers: inflight count is unchanged.
            waiter.future.resolve(None)
            return
        self.inflight -= 1
