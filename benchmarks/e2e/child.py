"""One repetition of one workload, in a fresh process.

``run.py`` starts this file once per repetition (never two at a time)
with a JSON spec as its only argument and reads one JSON object from
the last line of its standard output. Nothing is cached between
repetitions: the interpreter, the imports, input generation and the
world build are paid every time, as a user of the library pays them.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time

#: CPU seconds one tick takes on the reference box when nothing else
#: contends for the core; ``host_speed`` 1.0 means "as fast as that".
TICK_REFERENCE_S = 0.00075
TICK_INTERVAL_S = 0.05


class SpeedTicks:
    """How fast the host runs Python *right now*, sampled 20 times a second.

    The reference box is a 2-vCPU VM whose effective speed moves
    between two plateaus ~1.4x apart for seconds to minutes at a time
    (a busy sibling hyperthread; invisible in ``/proc/stat``), which
    put a 10-15 % quartile spread on identical repetitions. An interval
    timer interrupts the pipeline every 50 ms of wall time to run a
    fixed ~0.75 ms kernel of interpreter work (integer arithmetic, then
    dict and list traffic) and notes the CPU time it took. Sampling at
    regular wall intervals makes ``mean(reference / tick)`` the share
    of the repetition's wall time a box running at reference speed
    would have needed, so ``host time x host_speed`` is the time at
    reference speed. Each tick is stamped, so a stage is scaled by the
    speed the host had *during that stage*. The ticks cost ~1.5 % and
    touch no program state.
    """

    #: a window with fewer ticks than this falls back to the whole run
    MIN_TICKS = 5

    def __init__(self) -> None:
        self.stamps: list[float] = []  # perf_counter at each tick
        self.ticks: list[float] = []   # CPU seconds each tick took
        self._table = {index: index for index in range(1024)}

    def _tick(self, _signum, _frame) -> None:
        clock = time.process_time  # CPU clock: a stolen slice is not speed
        started = clock()
        total = 0
        for index in range(6000):
            total += index * index % 7
        table, seen = self._table, []
        for index in range(2500):
            table[index & 1023] = index
            seen.append(table.get((index >> 1) & 1023, 0))
        took = clock() - started
        if took > 0.0:
            self.stamps.append(time.perf_counter())
            self.ticks.append(took)

    def start(self) -> None:
        if hasattr(signal, "setitimer"):
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)

    def stop(self) -> None:
        if hasattr(signal, "setitimer"):
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float | None = None, end: float | None = None) -> float:
        """Host speed over the ticks stamped in ``[start, end]``
        (``perf_counter`` readings; open ends mean the whole run)."""
        ticks = [
            tick for stamp, tick in zip(self.stamps, self.ticks)
            if (start is None or stamp >= start) and (end is None or stamp <= end)
        ]
        if len(ticks) < self.MIN_TICKS:
            ticks = self.ticks
        if not ticks:
            return 1.0  # no timer on this platform, or a run under 50 ms
        return sum(TICK_REFERENCE_S / tick for tick in ticks) / len(ticks)


def main(argv: list[str]) -> int:
    ticks = SpeedTicks()
    ticks.start()
    spec = json.loads(argv[0])
    # perf_counter is CLOCK_MONOTONIC: the parent's reading at spawn
    # is on the same axis, so interpreter start-up is inside the times
    origin = spec["spawned_at"]

    import seams

    try:
        names = seams.resolve()
    except seams.SeamError as error:
        print(error, file=sys.stderr)
        return 2
    import_s = time.perf_counter() - origin

    import workloads

    tracer = None
    if spec["trace"]:
        import trace

        tracer = trace.Tracer(sample_every=spec["sample_every"])
        tracer.install()
        names = seams.resolve()  # the same names, now bound to the shims
        tracer.start()

    clock = workloads.StageClock(origin)
    size = workloads.SIZES[spec["profile"]][spec["workload"]]
    try:
        outcome = workloads.PIPELINES[spec["workload"]](
            names, size, spec["seed"], clock, tracer
        )
    finally:
        if tracer is not None:
            tracer.stop()
            tracer.uninstall()

    ticks.stop()
    setup_end = origin + clock.setup_end_s
    # every host time is scaled by the host speed during its own window
    stages = {
        "interp.import_s": import_s * ticks.speed(end=origin + import_s),
        **{
            name: (end - start) * ticks.speed(start, end)
            for name, (start, end) in clock.windows.items()
        },
    }
    result = {
        "raw_setup_s": clock.setup_end_s,
        "host_speed": ticks.speed(),
        "setup_speed": ticks.speed(end=setup_end),
        "run_speed": ticks.speed(start=setup_end),
        "stages": stages,
        "counts": outcome.counts,
        "ops": outcome.ops,
        "items": outcome.items,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "sim_digest": outcome.sim_digest,
        # ru_maxrss is KiB on Linux
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = {**tracer.report(), "open_spans_at_exit": tracer.depth}
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w") as handle:
                json.dump(
                    {
                        "workload": spec["workload"],
                        "seed": spec["seed"],
                        "profile": spec["profile"],
                        "sample_every": tracer.sample_every,
                        "spans_dropped": tracer.spans_dropped,
                        "spans": tracer.span_records(),
                    },
                    handle,
                )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
