"""Property tests for kernel determinism under the fast-path
optimizations (lazy cancellation, event-cell recycling, slotted
futures), plus the memory-retention audit: settled futures and
cancelled timers must not pin their callbacks, and an RPC's in-flight
object and ``with_timeout``'s deadline object must not pin its request
or response once the simulation has run.

The determinism contract, as stated in the module docstring of
:mod:`repro.simnet.sim`: events scheduled for the same instant fire in
scheduling order, and cancelled timers never fire. Both are checked at
N >= 10_000 events so the free-list actually recycles (its cap is
4096) and heap tie-breaking is exercised at depth.
"""

from __future__ import annotations

import gc
import random
import weakref

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.multiformats.peerid import PeerId
from repro.simnet.network import SimHost, SimNetwork
from repro.simnet.sim import _FREE_LIST_CAP, Future, Simulator, TimeoutError_, with_timeout

N_EVENTS = 10_000


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_instants=st.integers(min_value=1, max_value=12),
)
def test_same_instant_events_fire_in_scheduling_order(seed, n_instants):
    """With many events packed onto few instants, firing order is
    exactly (time, scheduling order) — the sequence tie-break survives
    heap reordering and cell recycling."""
    rng = random.Random(seed)
    instants = sorted(rng.uniform(0.0, 100.0) for _ in range(n_instants))
    sim = Simulator()
    fired: list[tuple[float, int]] = []
    delays = []
    for i in range(N_EVENTS):
        delay = rng.choice(instants)
        delays.append(delay)
        sim.schedule(delay, lambda d=delay, i=i: fired.append((d, i)))
    sim.run()
    assert len(fired) == N_EVENTS
    # Global order: by instant, and by scheduling index within one.
    assert fired == sorted(fired)
    # Nothing fired at the wrong time.
    assert sorted(d for d, _ in fired) == sorted(delays)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cancel_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_cancelled_timers_never_fire(seed, cancel_fraction):
    """Cancel an arbitrary subset (including cancellations issued by
    running callbacks mid-drain): exactly the survivors fire, in
    order."""
    rng = random.Random(seed)
    sim = Simulator()
    fired: list[int] = []
    timers = {}
    delays: list[float] = []
    cancelled_upfront = set()
    cancel_during_run: dict[int, int] = {}
    for i in range(N_EVENTS):
        delay = rng.uniform(0.0, 50.0)
        delays.append(delay)

        def callback(i=i):
            fired.append(i)
            victim = cancel_during_run.get(i)
            if victim is not None:
                timers[victim].cancel()

        timers[i] = sim.schedule(delay, callback)
    indices = list(range(N_EVENTS))
    for i in rng.sample(indices, int(N_EVENTS * cancel_fraction)):
        timers[i].cancel()
        cancelled_upfront.add(i)
    # A few early callbacks cancel *later* timers while the queue
    # drains, exercising cancellation of in-flight heap entries.
    survivors = [i for i in indices if i not in cancelled_upfront]
    order = sorted(survivors, key=lambda i: (delays[i], i))
    half = len(order) // 2
    for a, b in zip(order[:half:7], order[: half - 1 : -7]):
        cancel_during_run[a] = b
    sim.run()
    expected_not_fired = cancelled_upfront | set(cancel_during_run.values())
    assert set(fired) == set(indices) - expected_not_fired
    # Whoever fired did so in (time, scheduling order).
    assert fired == sorted(fired, key=lambda i: (delays[i], i))


def test_double_cancel_and_stale_handles_are_harmless():
    """Recycled event cells: cancelling a stale handle (its cell now
    occupied by a newer timer) must not disturb the new occupant."""
    sim = Simulator()
    fired = []
    old_timers = [sim.schedule(1.0, lambda: fired.append("old")) for _ in range(100)]
    for timer in old_timers:
        timer.cancel()
        timer.cancel()  # double cancel: no effect
    sim.run()  # drains the cancelled cells into the free list
    assert fired == []
    new_timers = [sim.schedule(1.0, lambda i=i: fired.append(i)) for i in range(100)]
    for timer in old_timers:
        timer.cancel()  # stale: cells now belong to new_timers
    sim.run()
    assert fired == list(range(100))
    assert all(t.cancelled for t in old_timers)
    assert not any(t.cancelled for t in new_timers)


def test_free_list_is_bounded():
    sim = Simulator()
    for i in range(3 * _FREE_LIST_CAP):
        sim.schedule(float(i % 7), lambda: None)
    sim.run()
    assert len(sim._free) <= _FREE_LIST_CAP


# -- memory-retention audit --------------------------------------------------


class _Payload:
    """A weakref-able stand-in for the hosts/walks closures capture."""


def test_settled_future_releases_callbacks():
    future = Future()
    payload = _Payload()
    ref = weakref.ref(payload)
    future.add_callback(lambda f, p=payload: None)
    del payload
    gc.collect()
    assert ref() is not None  # pinned while pending, as expected
    future.resolve(42)
    gc.collect()
    assert ref() is None, "settled future retained its callback closure"
    assert future._callbacks is None


def test_cancelled_timer_releases_callback_immediately():
    """Cancellation must free the closure at cancel time, not when the
    heap eventually drains past the dead cell."""
    sim = Simulator()
    payload = _Payload()
    ref = weakref.ref(payload)
    timer = sim.schedule(1e9, lambda p=payload: None)
    del payload
    gc.collect()
    assert ref() is not None
    timer.cancel()
    gc.collect()
    assert ref() is None, "cancelled timer retained its callback closure"


def test_fired_event_cell_releases_callback():
    """Recycled cells on the free list must not pin the last callback."""
    sim = Simulator()
    payload = _Payload()
    ref = weakref.ref(payload)
    sim.schedule(0.0, lambda p=payload: None)
    del payload
    sim.run()
    gc.collect()
    assert ref() is None, "free-listed event cell retained its callback"


def test_finished_process_releases_generator_frame():
    sim = Simulator()
    payload = _Payload()
    ref = weakref.ref(payload)

    def proc(p):
        yield 1.0
        return "done"

    process = sim.spawn(proc(payload))
    del payload
    result = sim.run_process(sleep_then_join(process))
    gc.collect()
    assert result == "done"
    assert ref() is None, "finished process retained its generator frame"


def sleep_then_join(process):
    yield 0.5
    value = yield process.future
    return value


def _rpc_under_deadline(seconds: float, target_online: bool = True):
    """One RPC from ``a`` to ``b`` under ``with_timeout(seconds)``, run
    to the end. Returns weakrefs to the request payload and to every
    response the handler built, how the caller's future settled, and
    the network's counters."""
    sim = Simulator()
    net = SimNetwork(sim, random.Random(7))
    a = SimHost(PeerId.from_public_key(b"a"))
    b = SimHost(PeerId.from_public_key(b"b"))
    net.register(a)
    net.register(b)
    responses: list[weakref.ref] = []

    def handler(sender, request):
        response = _Payload()
        responses.append(weakref.ref(response))
        return response, 64

    b.register_handler("echo", handler)
    net.dial(a, b.peer_id)
    sim.run()  # connected: the RPC below goes straight onto the wire
    payload = _Payload()
    request = weakref.ref(payload)
    wrapped = with_timeout(sim, net.rpc(a, b.peer_id, "echo", payload), seconds)
    del payload
    if not target_online:
        # the request is on its way when the target churns offline
        sim.schedule(0.0, lambda: b.set_online(False))
    sim.run()
    outcome = "failed" if wrapped.failed else "resolved"
    if wrapped.failed:
        assert isinstance(wrapped.exception(), TimeoutError_)
    del wrapped  # the caller lets go of its future, as a walk does
    gc.collect()
    return request, responses, outcome, net.stats


def test_completed_rpc_releases_request_and_response():
    request, responses, outcome, stats = _rpc_under_deadline(10.0)
    assert outcome == "resolved" and stats.rpcs_completed == 1
    assert len(responses) == 1
    assert request() is None, "completed RPC retained its request"
    assert responses[0]() is None, "completed RPC retained its response"


def test_expired_rpc_releases_request():
    """The deadline fires and no reply ever comes: the target went
    offline with the request on the wire."""
    request, responses, outcome, stats = _rpc_under_deadline(10.0, target_online=False)
    assert outcome == "failed" and stats.rpcs_completed == 0
    assert responses == []
    assert request() is None, "expired RPC retained its request"


def test_late_reply_after_expiry_releases_request_and_response():
    """The deadline fires while the request is on the wire; the target
    still answers, and the answer reaches a caller that has given up."""
    request, responses, outcome, stats = _rpc_under_deadline(1e-6)
    assert outcome == "failed" and stats.rpcs_completed == 0
    assert len(responses) == 1 and stats.bytes_transferred > 0
    assert request() is None, "late-answered RPC retained its request"
    assert responses[0]() is None, "late reply was retained"
