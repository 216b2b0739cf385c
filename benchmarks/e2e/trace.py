"""Host-time attribution by layer, measured from outside the program.

:class:`Tracer` installs timing shims around the public entry points
listed in :data:`seams.WRAPS` — at run time, from this file only — and
removes them again. Nothing in the program changes and the shims read
the clock and nothing else, so a traced run produces the same simulated
outputs as an untraced one (the benchmark compares their digests).

**Self time.** There is one notion of "current layer". Entering a shim
charges the time since the last transition to the layer that was
current, pushes it, and makes the shim's layer current; leaving does
the reverse. Every instant between :meth:`Tracer.start` and
:meth:`Tracer.stop` is therefore charged to exactly one layer (or to
``unattributed`` when no shim is open), so the layers' self times plus
``unattributed`` add up to the traced window by construction.

**Simulated concurrency.** Protocol code is generators driven by the
event kernel, so a call stack does not say who asked for what:

- a generator returned by a shimmed entry point is replaced by a
  *stepping* generator that opens a span around every ``send`` /
  ``throw`` — a process suspended in sim time accrues no host time;
- a callback handed to ``Simulator.schedule`` and a generator handed
  to ``Simulator.spawn`` inherit the layer (and root operation) that
  was current when they were handed over, so deliveries, timers and
  helper processes are charged to the layer that asked for them, and
  what remains of ``Simulator.run`` is the kernel's own dispatch cost;
- RPC handlers registered on a ``SimHost`` are charged to the protocol
  named by the method (``dht/FIND_NODE`` -> ``dht``).

**Root operations.** Entry points of kind ``op`` (a publish, a
retrieve, a pipeline stage) start a new operation id that everything
they cause inherits; inside a ``fanout`` entry point (one crawl, the
prober's watch list) every spawned process is an operation of its own.
Layer totals are kept for everything; full span records are kept only
for operations whose id is a multiple of ``sample_every`` (ids are
handed out in program order, so the sample is deterministic per seed)
and never more than ``max_spans`` of them.
"""

from __future__ import annotations

import sys
import time
from types import FunctionType, GeneratorType
from typing import Any

import seams

#: The program's layers (its packages), in report order.
LAYERS = (
    "simnet.sim", "simnet.network", "simnet.compact", "dht", "bitswap",
    "merkledag", "node", "crawler", "gateway", "workloads", "grading",
    "experiments",
)

# indexes into Tracer._state
_LAYER, _SINCE, _OP, _SAMPLED = 0, 1, 2, 3


class Tracer:
    """Span stack, layer counters and the shims that feed them."""

    def __init__(self, sample_every: int = 100, max_spans: int = 50_000) -> None:
        self.sample_every = sample_every
        self.max_spans = max_spans
        self._index = {name: i for i, name in enumerate(LAYERS)}
        self._unattributed = len(LAYERS)
        self._self_s = [0.0] * (len(LAYERS) + 1)
        self._calls = [0] * (len(LAYERS) + 1)
        #: [current layer, time of last transition, current op, sampled?]
        self._state: list[Any] = [self._unattributed, 0.0, 0, False]
        self._stack: list[int] = []
        self._open: list[int] = []  # indexes of open *recorded* spans
        #: [name, layer index, start, end, parent span, op] per record
        self.spans: list[list[Any]] = []
        self.spans_dropped = 0
        self._ops = 0
        self._fanout_ops: set[int] = set()
        self._patches: list[tuple[Any, str, Any]] = []
        self._started_at: float | None = None
        self.window_s = 0.0
        self._build_primitives()

    # -- the hot path ---------------------------------------------------

    def _build_primitives(self) -> None:
        """Closures over plain lists: no attribute lookups per span."""
        clock = time.perf_counter
        state, stack, self_s, calls = (
            self._state, self._stack, self._self_s, self._calls
        )
        spans, open_spans = self.spans, self._open
        max_spans = self.max_spans

        def enter(layer: int, name: str) -> None:
            now = clock()
            self_s[state[_LAYER]] += now - state[_SINCE]
            stack.append(state[_LAYER])
            state[_LAYER] = layer
            state[_SINCE] = now
            calls[layer] += 1
            if state[_SAMPLED]:
                if len(spans) < max_spans:
                    parent = open_spans[-1] if open_spans else -1
                    open_spans.append(len(spans))
                    spans.append([name, layer, now, None, parent, state[_OP]])
                else:
                    open_spans.append(-1)
                    self.spans_dropped += 1

        def leave() -> None:
            now = clock()
            self_s[state[_LAYER]] += now - state[_SINCE]
            state[_LAYER] = stack.pop()
            state[_SINCE] = now
            if state[_SAMPLED]:
                index = open_spans.pop()
                if index >= 0:
                    spans[index][3] = now

        def stepping(generator, layer: int, name: str, op: int, sampled: bool):
            """Drive ``generator`` one span per step, under its own op."""
            send, throw = generator.send, generator.throw
            value: Any = None
            error: BaseException | None = None
            while True:
                saved_op, saved_sampled = state[_OP], state[_SAMPLED]
                state[_OP], state[_SAMPLED] = op, sampled
                enter(layer, name)
                try:
                    if error is None:
                        yielded = send(value)
                    else:
                        yielded = throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    leave()
                    state[_OP], state[_SAMPLED] = saved_op, saved_sampled
                error = None
                try:
                    value = yield yielded
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded by throw()
                    error = exc

        self._enter, self._leave, self._stepping = enter, leave, stepping
        self._stepping_code = stepping.__code__

    def _new_op(self, fanout: bool = False) -> tuple[int, bool]:
        self._ops += 1
        op = self._ops
        if fanout:
            self._fanout_ops.add(op)
        return op, op % self.sample_every == 0

    # -- shims ----------------------------------------------------------

    def wrap(self, fn, layer: str, name: str, kind: str = "call"):
        """A timing shim around ``fn`` charged to ``layer``.

        A generator result is handed back as a stepping generator. With
        ``kind`` ``op`` / ``fanout`` the call starts a new root
        operation.
        """
        index = self._index[layer]
        enter, leave, stepping, state = (
            self._enter, self._leave, self._stepping, self._state
        )
        if kind == "call":
            def shim(*args, **kwargs):
                enter(index, name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave()
                if type(result) is GeneratorType:
                    return stepping(
                        result, index, name, state[_OP], state[_SAMPLED]
                    )
                return result
        else:
            new_op, fanout = self._new_op, kind == "fanout"

            def shim(*args, **kwargs):
                saved_op, saved_sampled = state[_OP], state[_SAMPLED]
                op, sampled = new_op(fanout)
                state[_OP], state[_SAMPLED] = op, sampled
                enter(index, name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave()
                    state[_OP], state[_SAMPLED] = saved_op, saved_sampled
                if type(result) is GeneratorType:
                    return stepping(result, index, name, op, sampled)
                return result

        shim.__wrapped__ = fn
        return shim

    def _wrap_schedule(self, fn, index: int):
        enter, leave, state = self._enter, self._leave, self._state

        def schedule(sim, delay, callback, *args, **kwargs):
            layer, op, sampled = state[_LAYER], state[_OP], state[_SAMPLED]

            def fire() -> None:
                saved_op, saved_sampled = state[_OP], state[_SAMPLED]
                state[_OP], state[_SAMPLED] = op, sampled
                enter(layer, "callback")
                try:
                    callback()
                finally:
                    leave()
                    state[_OP], state[_SAMPLED] = saved_op, saved_sampled

            enter(index, "Simulator.schedule")
            try:
                return fn(sim, delay, fire, *args, **kwargs)
            finally:
                leave()

        return schedule

    def _adopt(self, generator):
        """Charge a bare generator to whoever is handing it over."""
        if (
            type(generator) is not GeneratorType
            or generator.gi_code is self._stepping_code
        ):
            return generator
        state = self._state
        op, sampled = state[_OP], state[_SAMPLED]
        if op in self._fanout_ops:
            op, sampled = self._new_op()
        return self._stepping(
            generator, state[_LAYER], generator.__qualname__, op, sampled
        )

    def _wrap_spawn(self, fn, index: int, name: str):
        enter, leave, adopt = self._enter, self._leave, self._adopt

        def spawn(sim, generator, *args, **kwargs):
            generator = adopt(generator)
            enter(index, name)
            try:
                return fn(sim, generator, *args, **kwargs)
            finally:
                leave()

        return spawn

    def _wrap_register_handler(self, fn):
        index_of, fallback = self._index, self._index["simnet.network"]
        enter, leave = self._enter, self._leave

        def register_handler(host, method, handler):
            layer = index_of.get(method.partition("/")[0], fallback)

            def handle(sender, payload):
                enter(layer, method)
                try:
                    return handler(sender, payload)
                finally:
                    leave()

            return fn(host, method, handle)

        return register_handler

    def _wrap_cell_run(self, fn):
        enter, leave = self._enter, self._leave
        index_of, fallback = self._index, self._index["experiments"]

        def run(cell):
            # repro.gateway.replay -> "gateway": a cell is charged to
            # the package that owns its body, not to the runner.
            package = getattr(cell.fn, "__module__", "").split(".")
            layer = index_of.get(package[1] if len(package) > 1 else "", fallback)
            enter(layer, getattr(cell.fn, "__qualname__", "cell"))
            try:
                return fn(cell)
            finally:
                leave()

        return run

    def _shim_for(self, layer: str, name: str, kind: str, fn):
        index = self._index[layer]
        if kind == "schedule":
            return self._wrap_schedule(fn, index)
        if kind in ("spawn", "run_process"):
            # run_process spawns internally (through the spawn shim),
            # but by then the kernel's own span is on top: adopt first.
            return self._wrap_spawn(fn, index, name)
        if kind == "handler":
            return self._wrap_register_handler(fn)
        if kind == "cell":
            return self._wrap_cell_run(fn)
        return self.wrap(fn, layer, name, kind)

    # -- install / remove -----------------------------------------------

    def install(self) -> None:
        """Patch every seam in :data:`seams.WRAPS`.

        A method is replaced on the class that defines it. A module
        level function is replaced under every name it was imported as
        (``from x import f`` copies the binding), in ``repro`` modules
        only.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer, path, kind in seams.WRAPS:
            owner, attribute, original = seams.lookup(path)
            name = path.partition(":")[2]
            shim = self._shim_for(layer, name, kind, original)
            if isinstance(owner, type):
                self._patch(owner, attribute, original, shim)
                continue
            for module_name, module in list(sys.modules.items()):
                if module is None or not module_name.startswith("repro"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original and isinstance(value, FunctionType):
                        self._patch(module, alias, original, shim)

    def _patch(self, owner, attribute: str, original, shim) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, shim)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- the traced window ----------------------------------------------

    def start(self) -> None:
        self._started_at = time.perf_counter()
        self._state[_LAYER] = self._unattributed
        self._state[_SINCE] = self._started_at

    def stop(self) -> None:
        if self._started_at is None:
            raise RuntimeError("tracer was not started")
        now = time.perf_counter()
        self._self_s[self._state[_LAYER]] += now - self._state[_SINCE]
        self._state[_SINCE] = now
        self.window_s = now - self._started_at

    @property
    def depth(self) -> int:
        """Open spans right now (0 whenever no shim is executing)."""
        return len(self._stack)

    def report(self) -> dict[str, Any]:
        """Layer totals for the traced window."""
        layers = {
            name: {"self_s": self._self_s[i], "calls": self._calls[i]}
            for i, name in enumerate(LAYERS)
        }
        return {
            "window_s": self.window_s,
            "layers": layers,
            "unattributed_s": self._self_s[self._unattributed],
            "ops": self._ops,
            "spans_recorded": len(self.spans),
            "spans_dropped": self.spans_dropped,
            "sample_every": self.sample_every,
        }

    def span_records(self) -> list[dict[str, Any]]:
        """The sampled spans, times relative to :meth:`start`."""
        origin = self._started_at or 0.0
        return [
            {
                "id": index,
                "name": name,
                "layer": LAYERS[layer],
                "start_s": start - origin,
                "end_s": None if end is None else end - origin,
                "parent": parent,
                "op": op,
            }
            for index, (name, layer, start, end, parent, op)
            in enumerate(self.spans)
        ]
