"""Tests for RetryPolicy and the sim-time retry driver."""

import random

import pytest

from repro.errors import ReproError
from repro.simnet.sim import Future, Simulator, TimeoutError_
from repro.utils.retry import JitterStreams, RetryPolicy, retry
from repro.utils.rng import derive_rng


class TestPolicy:
    def test_default_is_disabled(self):
        assert not RetryPolicy().enabled

    def test_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ReproError):
            RetryPolicy(base_delay_s=2.0, max_delay_s=1.0)
        with pytest.raises(ReproError):
            RetryPolicy(jitter="bogus")

    def test_exponential_schedule(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=1.0, max_delay_s=30.0)
        rng = random.Random(0)
        delays = [policy.next_delay(n, 1.0, rng) for n in (1, 2, 3, 4)]
        assert delays == [1.0, 2.0, 4.0, 8.0]

    def test_exponential_capped(self):
        policy = RetryPolicy(max_attempts=10, base_delay_s=1.0, max_delay_s=5.0)
        rng = random.Random(0)
        assert policy.next_delay(8, 1.0, rng) == 5.0

    def test_no_jitter_draws_no_rng(self):
        policy = RetryPolicy(max_attempts=3, base_delay_s=1.0)
        rng = random.Random(0)
        state = rng.getstate()
        policy.next_delay(2, 1.0, rng)
        assert rng.getstate() == state


class TestRetryDriver:
    def run_retry(self, policy, outcomes, seed=1, deadline_s=None):
        """Drive retry() over scripted attempt outcomes.

        ``outcomes`` maps attempt number -> value or exception; returns
        (result-or-exception, attempts made, finish time).
        """
        sim = Simulator()
        attempts = []

        def factory(attempt):
            attempts.append(attempt)
            outcome = outcomes[attempt]
            if isinstance(outcome, Exception):
                return Future.failed_with(outcome)
            return Future.resolved(outcome)

        def proc():
            result = yield from retry(
                sim, derive_rng(seed, "retry"), policy, factory,
                deadline_s=deadline_s,
            )
            return result

        try:
            result = sim.run_process(proc())
        except Exception as exc:  # noqa: BLE001 - inspected by tests
            result = exc
        return result, attempts, sim.now

    def test_success_on_first_attempt_never_sleeps(self):
        policy = RetryPolicy(max_attempts=3, base_delay_s=1.0)
        result, attempts, now = self.run_retry(policy, {1: "ok"})
        assert result == "ok"
        assert attempts == [1]
        assert now == 0.0

    def test_retries_until_success_with_backoff(self):
        policy = RetryPolicy(max_attempts=3, base_delay_s=1.0)
        boom = ReproError("boom")
        result, attempts, now = self.run_retry(policy, {1: boom, 2: boom, 3: "ok"})
        assert result == "ok"
        assert attempts == [1, 2, 3]
        assert now == 3.0  # 1 s + 2 s of backoff

    def test_attempt_budget_exhausted_raises_last_error(self):
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.5)
        first, second = ReproError("first"), ReproError("second")
        result, attempts, _ = self.run_retry(policy, {1: first, 2: second})
        assert result is second
        assert attempts == [1, 2]

    def test_deadline_stops_before_sleeping_across_it(self):
        policy = RetryPolicy(max_attempts=10, base_delay_s=4.0)
        boom = ReproError("boom")
        result, attempts, now = self.run_retry(
            policy, {n: boom for n in range(1, 11)}, deadline_s=10.0
        )
        assert result is boom
        # Backoff 4 s, then 8 s would cross the 10 s deadline.
        assert attempts == [1, 2]
        assert now == 4.0

    def test_zero_delay_schedules_no_sleep(self):
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0)
        boom = ReproError("boom")
        result, attempts, now = self.run_retry(policy, {1: boom, 2: "ok"})
        assert result == "ok"
        assert now == 0.0

    def test_on_retry_called_once_per_reattempt(self):
        sim = Simulator()
        seen = []
        boom = ReproError("boom")
        outcomes = {1: boom, 2: boom, 3: "ok"}

        def factory(attempt):
            outcome = outcomes[attempt]
            if isinstance(outcome, Exception):
                return Future.failed_with(outcome)
            return Future.resolved(outcome)

        def proc():
            return (yield from retry(
                sim, derive_rng(1, "retry"),
                RetryPolicy(max_attempts=3, base_delay_s=0.1),
                factory,
                on_retry=lambda attempt, error: seen.append((attempt, error)),
            ))

        assert sim.run_process(proc()) == "ok"
        assert seen == [(1, boom), (2, boom)]

    def test_caller_budget_truncates_a_hanging_attempt(self):
        sim = Simulator()

        def hang(_attempt):
            return Future()  # never settles

        def proc():
            return (yield from retry(
                sim, derive_rng(1, "retry"), RetryPolicy(), hang,
                deadline_s=2.0,
            ))

        with pytest.raises(TimeoutError_):
            sim.run_process(proc())
        assert sim.now == pytest.approx(2.0)

    def test_last_attempt_is_truncated_to_the_remaining_budget(self):
        sim = Simulator()
        attempts = []

        def factory(attempt):
            attempts.append(attempt)
            if attempt == 1:
                return Future.failed_with(ReproError("boom"))
            return Future()  # the re-attempt hangs

        def proc():
            return (yield from retry(
                sim, derive_rng(1, "retry"),
                RetryPolicy(max_attempts=3, base_delay_s=1.0),
                factory,
                deadline_s=2.5,
            ))

        with pytest.raises(TimeoutError_):
            sim.run_process(proc())
        # Fail at 0 s, back off 1 s, then the hanging attempt gets only
        # the remaining 1.5 s — the whole operation lands on the budget.
        assert attempts == [1, 2]
        assert sim.now == pytest.approx(2.5)

    def test_budget_exhausted_before_first_attempt(self):
        sim = Simulator()
        called = []

        def proc():
            return (yield from retry(
                sim, derive_rng(1, "retry"), RetryPolicy(),
                lambda attempt: called.append(attempt) or Future.resolved("ok"),
                deadline_s=0.0,
            ))

        with pytest.raises(TimeoutError_, match="before first attempt"):
            sim.run_process(proc())
        assert called == []

    def test_success_under_budget_is_unaffected(self):
        sim = Simulator()
        future = Future()
        sim.schedule(1.0, lambda: future.resolve("ok"))

        def proc():
            return (yield from retry(
                sim, derive_rng(1, "retry"), RetryPolicy(),
                lambda _attempt: future,
                deadline_s=5.0,
            ))

        assert sim.run_process(proc()) == "ok"
        assert sim.now == pytest.approx(1.0)

    def test_decorrelated_delays_stay_within_bounds(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay_s=0.5, max_delay_s=3.0,
            jitter="decorrelated",
        )
        boom = ReproError("boom")
        result, attempts, now = self.run_retry(
            policy, {n: boom for n in range(1, 9)}, seed=5
        )
        assert result is boom
        assert attempts == list(range(1, 9))
        # 7 sleeps, each within [base, cap].
        assert 7 * 0.5 <= now <= 7 * 3.0


class TestJitterStreams:
    def test_same_owner_and_peer_reproduce_the_stream(self):
        a = JitterStreams("owner").for_peer("peer-1")
        b = JitterStreams("owner").for_peer("peer-1")
        assert [a.random() for _ in range(8)] == [b.random() for _ in range(8)]

    def test_streams_are_cached_per_peer(self):
        streams = JitterStreams("owner")
        assert streams.for_peer("peer-1") is streams.for_peer("peer-1")

    def test_different_peers_get_decorrelated_streams(self):
        streams = JitterStreams("owner")
        first = [streams.for_peer("peer-1").random() for _ in range(8)]
        second = [streams.for_peer("peer-2").random() for _ in range(8)]
        assert first != second

    def test_different_owners_get_decorrelated_streams(self):
        first = [JitterStreams("a").for_peer("p").random() for _ in range(8)]
        second = [JitterStreams("b").for_peer("p").random() for _ in range(8)]
        assert first != second

    def test_no_lockstep_backoff_across_peers(self):
        """The failure mode the per-peer streams exist to prevent: many
        retries jittering off one shared stream would re-fire with
        identical (or phase-shifted but correlated) schedules."""
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.5, max_delay_s=30.0,
            jitter="decorrelated",
        )
        streams = JitterStreams("retrier")
        schedules = []
        for peer in ("peer-1", "peer-2", "peer-3"):
            rng = streams.for_peer(peer)
            previous = policy.base_delay_s
            delays = []
            for attempt in range(1, 4):
                delay = policy.next_delay(attempt, previous, rng)
                previous = delay
                delays.append(delay)
            schedules.append(delays)
        assert len({tuple(s) for s in schedules}) == len(schedules)

    def test_labels_partition_the_namespace(self):
        plain = JitterStreams("owner").for_peer("p")
        labelled = JitterStreams("owner", "bitswap-jitter").for_peer("p")
        assert [plain.random() for _ in range(4)] != [
            labelled.random() for _ in range(4)
        ]

    def test_owner_is_stringified_on_first_use_only(self):
        """The owner label is part of the lazy work: building the
        streams costs no ``str(owner)`` (a base58 encode for a PeerId),
        and the stream is still ``derive_rng(str(owner), label, str(p))``
        draw for draw."""

        class Owner:
            calls = 0

            def __str__(self):
                Owner.calls += 1
                return "QmOwner"

        streams = JitterStreams(Owner())
        assert Owner.calls == 0
        lazy = streams.for_peer(17)
        assert Owner.calls == 1
        pinned = derive_rng("QmOwner", "retry-jitter", "17")
        assert [lazy.random() for _ in range(16)] == [
            pinned.random() for _ in range(16)
        ]
        assert lazy.getstate() == pinned.getstate()
