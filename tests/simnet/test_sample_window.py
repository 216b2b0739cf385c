"""Property test: the table fill's sample kernel is ``random.sample``.

:func:`repro.dht.bootstrap.sample_table_positions` draws every bucket
through :func:`repro.dht.bootstrap._sample_window`, which spells out
what ``random.Random.sample`` consumes instead of calling it (the
default quota's single stale pick is written inline as the one
``_randbelow`` both branches reduce to at ``k = 1``; the stdlib-calling
reference loop in ``tests/dht/test_bootstrap.py`` holds that). The
tables it fills match the pinned ones (and the stdlib-calling reference
in ``tests/dht/test_bootstrap.py``) only while that spelling matches
the running interpreter's stdlib, so the kernel is held to the real
``sample`` here: same picks in the same order *and* the same generator
state afterwards. A CPython change to ``sample`` (thresholds, branch
choice, draw order) fails this test loudly instead of silently building
a different world.

Population lengths 0..200 cross both of ``sample``'s pool/set
thresholds (21 for ``k <= 5``, 85 for the fill's ``k = 19``).
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.dht.bootstrap import _sample_window


@st.composite
def windows(draw):
    """``(base, lo, hi, k)``: a window inside a longer ascending base."""
    length = draw(st.integers(0, 200))
    lo = draw(st.integers(0, 50))
    tail = draw(st.integers(0, 50))
    k = draw(st.integers(0, min(length, 20)))
    # Ascending but not contiguous, like the live/stale position lists.
    base = list(range(3, 3 + 7 * (lo + length + tail), 7))
    return base, lo, lo + length, k


def assert_same_as_stdlib(seed: int, base: list[int], lo: int, hi: int, k: int) -> None:
    want_rng = random.Random(seed)
    want = want_rng.sample(base[lo:hi], k)
    got_rng = random.Random(seed)
    got = _sample_window(got_rng.getrandbits, base, lo, hi, k)
    assert got == want
    assert got_rng.getstate() == want_rng.getstate()


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), window=windows())
def test_kernel_equals_stdlib_sample(seed, window):
    base, lo, hi, k = window
    untouched = list(base)
    assert_same_as_stdlib(seed, base, lo, hi, k)
    assert base == untouched  # the pool path copies, never swaps in place


def test_both_branches_at_the_fill_sizes():
    """The thresholds the fill actually straddles: k = 19 live picks
    switch at 85, the single stale pick at 21."""
    base = list(range(1000))
    for k, threshold in ((19, 85), (1, 21)):
        for length in (threshold - 1, threshold, threshold + 1, 4 * threshold):
            for seed in range(20):
                assert_same_as_stdlib(seed, base, 10, 10 + length, k)
