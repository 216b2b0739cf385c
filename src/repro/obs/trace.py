"""Sim-time tracing: spans and events over the discrete-event kernel.

A :class:`Tracer` records *spans* (named intervals of simulated time
with key/value attributes, e.g. ``dht.walk``) and *events* (named
points in time). Spans nest: the tracer keeps an ambient context of
open spans, and a span started while another is open becomes its
child. Because protocol code runs as interleaved generator processes,
the context is maintained by identity — closing a span removes *that*
span from the context wherever it sits, so an operation suspended at a
``yield`` cannot corrupt the parentage of its siblings.

Attribution caveat (documented in DESIGN.md): spans started from event
callbacks (timer fires, RPC replies) are parented to the innermost
span still open at that moment. For the sequential experiment drivers
(one publish or retrieval in flight at a time) this is exact; for
overlapping workloads it is a heuristic.

Determinism: the tracer reads only ``sim.now`` and mutates only its own
lists. It never draws randomness and never schedules events, so a
traced run produces byte-identical experiment results to an untraced
run, and two traced runs produce byte-identical trace streams.

Zero overhead when disabled: the module-level :data:`NULL_TRACER`
accepts the full API and does nothing; hot paths additionally guard on
``tracer.enabled`` so no attribute dicts are built for discarded spans.
"""

from __future__ import annotations

from typing import Any, Callable

#: Span/event attribute values: JSON-representable scalars.
AttrValue = Any


class Span:
    """One named interval of simulated time.

    ``end_time`` is ``None`` while open; a span that is never closed
    (e.g. an RPC whose reply was lost) is exported as *unfinished* —
    those open intervals are the losses and abandonments themselves,
    so the exporter keeps them.
    """

    __slots__ = ("tracer", "span_id", "parent_id", "name", "start_time",
                 "end_time", "attrs", "status")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int | None,
        name: str,
        start_time: float,
        attrs: dict[str, AttrValue],
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_time = start_time
        self.end_time: float | None = None
        self.attrs = attrs
        self.status = "ok"

    @property
    def duration(self) -> float | None:
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    def set_attrs(self, **attrs: AttrValue) -> None:
        self.attrs.update(attrs)

    def end(self, status: str = "ok", **attrs: AttrValue) -> None:
        """Close the span at the current simulated time (idempotent)."""
        if self.end_time is not None:
            return
        if attrs:
            self.attrs.update(attrs)
        self.status = status
        self.end_time = self.tracer.now()
        self.tracer._on_span_closed(self)

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        self.tracer._leave(self)
        if exc_type is not None:
            self.end(status="error", error=exc_type.__name__)
        else:
            self.end()


class TraceEvent:
    """One named instant of simulated time."""

    __slots__ = ("event_id", "parent_id", "name", "time", "attrs")

    def __init__(
        self,
        event_id: int,
        parent_id: int | None,
        name: str,
        time: float,
        attrs: dict[str, AttrValue],
    ) -> None:
        self.event_id = event_id
        self.parent_id = parent_id
        self.name = name
        self.time = time
        self.attrs = attrs


class Tracer:
    """Collects spans and events against a simulated clock.

    Construct, then :meth:`bind_clock` to the simulator (installing the
    tracer on a :class:`~repro.simnet.network.SimNetwork` does this for
    you). Spans are kept in start order; ids are a single monotonically
    increasing sequence shared by spans and events, so the interleaved
    record stream is totally ordered and deterministic.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._sequence = 0
        #: innermost-last list of open span ids (the ambient context).
        self._context: list[Span] = []
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        self.spans_closed = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at a time source (usually ``lambda: sim.now``)."""
        self._clock = clock

    def now(self) -> float:
        return self._clock()

    # -- recording -------------------------------------------------------

    def start_span(self, name: str, /, **attrs: AttrValue) -> Span:
        """Open a span parented to the current context *without*
        entering it (use for intervals closed from callbacks, like
        in-flight RPCs)."""
        parent = self._context[-1].span_id if self._context else None
        span = Span(self, self._next_id(), parent, name, self.now(), attrs)
        self.spans.append(span)
        return span

    def span(self, name: str, /, **attrs: AttrValue) -> Span:
        """Open a span and enter it as the ambient context; use as a
        context manager (``with tracer.span("dht.walk"):``)."""
        span = self.start_span(name, **attrs)
        self._context.append(span)
        return span

    def event(self, name: str, /, **attrs: AttrValue) -> TraceEvent:
        """Record a point-in-time event under the current context."""
        parent = self._context[-1].span_id if self._context else None
        record = TraceEvent(self._next_id(), parent, name, self.now(), attrs)
        self.events.append(record)
        return record

    # -- bookkeeping -----------------------------------------------------

    def _next_id(self) -> int:
        self._sequence += 1
        return self._sequence

    def _leave(self, span: Span) -> None:
        """Remove ``span`` from the ambient context by identity.

        Interleaved processes may close out of stack order; removing by
        identity keeps the siblings' parentage intact.
        """
        for index in range(len(self._context) - 1, -1, -1):
            if self._context[index] is span:
                del self._context[index]
                return

    def _on_span_closed(self, _span: Span) -> None:
        self.spans_closed += 1

    # -- reading ---------------------------------------------------------

    def open_spans(self) -> list[Span]:
        return [span for span in self.spans if span.end_time is None]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]


class _NullSpan(Span):
    """A shared, inert span: every mutator is a no-op."""

    __slots__ = ()

    def set_attrs(self, **attrs: AttrValue) -> None:  # noqa: D102
        pass

    def end(self, status: str = "ok", **attrs: AttrValue) -> None:  # noqa: D102
        pass

    def __exit__(self, exc_type, exc, _tb) -> None:
        pass


class NullTracer(Tracer):
    """The disabled tracer: records nothing, allocates nothing.

    All call sites can hold a tracer unconditionally; with this one
    installed a traced code path costs one method call and the
    caller-side ``**attrs`` packing at most (hot paths also guard on
    :attr:`enabled` to skip even that).
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_span = _NullSpan(self, 0, None, "", 0.0, {})

    def start_span(self, name: str, /, **attrs: AttrValue) -> Span:
        return self._null_span

    def span(self, name: str, /, **attrs: AttrValue) -> Span:
        return self._null_span

    def event(self, name: str, /, **attrs: AttrValue) -> TraceEvent | None:
        return None


#: The process-wide disabled tracer; networks start with this installed.
NULL_TRACER = NullTracer()
