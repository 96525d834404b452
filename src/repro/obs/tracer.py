"""The tracer core: nested spans, a metrics registry, a JSONL sink.

Everything in this module is **digest-inert by construction**: spans and
counters observe the campaign engines from the outside, timing comes from
the blessed monotonic ``time.perf_counter`` (see the DET001 rule notes in
:mod:`repro.lint.rules.determinism`), and nothing a :class:`Tracer`
records is ever read back by digest-producing code — the determinism
linter's DET003 rule flags any telemetry call that strays into a
``digest()``/``to_json()``/``describe()`` scope.  Traced and untraced
runs of the same experiment therefore produce byte-identical scenario,
run, and frontier digests; ``tests/test_obs.py`` proves it across the
serial, pooled, and kernel backends.

Three layers:

- :class:`MetricsSnapshot` — an immutable, picklable bag of counters and
  timing aggregates.  ``merge`` is associative and order-independent
  (key-wise integer/float sums, min/max folds), which is what lets
  forked workers ship per-worker samples back across the process
  boundary and the parent fold them in any arrival order.
- :class:`MetricsRegistry` — the mutable in-process accumulator behind a
  tracer: ``inc`` for counters, ``observe`` for timing distributions,
  ``merge_snapshot`` to absorb worker samples.
- :class:`Tracer` — nested spans via the :meth:`Tracer.span` context
  manager (monotonic ``perf_counter`` timing, depth and parent tracked),
  point :meth:`Tracer.event` marks, and an optional :class:`TraceWriter`
  JSONL sink.  Span times are *offsets from the tracer's epoch*, never
  wall-clock timestamps, so a trace file is reproducible-shaped even
  though its durations are not.

``maybe_span(tracer, name)`` is the no-op guard instrumented code uses so
that ``tracer=None`` (the default everywhere) costs one ``if``.
:func:`gc_pauses` adds the cycle collector's pauses to a tracer, which
no span can show: a pause is charged to whatever code was allocating.
"""

from __future__ import annotations

import gc
import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TextIO

#: stamped into the leading ``meta`` event of every trace file; bump when
#: the event shapes in ``trace-schema.json`` change incompatibly.
TRACE_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# metrics: snapshots (immutable, picklable) and the registry (mutable)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TimingStat:
    """One timing distribution, condensed to mergeable aggregates."""

    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None

    @classmethod
    def single(cls, value: float) -> "TimingStat":
        return cls(count=1, total=value, min=value, max=value)

    def merge(self, other: "TimingStat") -> "TimingStat":
        """Associative, commutative fold of two aggregates."""
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        return TimingStat(
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable, picklable bag of counters and timing aggregates.

    Keys are sorted, so two snapshots built from the same observations —
    in any order — compare equal, and ``merge`` is associative and
    order-independent: ``a.merge(b).merge(c) == c.merge(a.merge(b))``
    for integer-valued counters (float counters merge commutatively up
    to IEEE-754 addition).  That is the contract that makes per-worker
    samples safe to fold into the parent tracer in arrival order.
    """

    counters: tuple[tuple[str, float], ...] = ()
    timings: tuple[tuple[str, TimingStat], ...] = ()

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        counters = dict(self.counters)
        for name, value in other.counters:
            counters[name] = counters.get(name, 0) + value
        timings = dict(self.timings)
        for name, stat in other.timings:
            timings[name] = timings[name].merge(stat) if name in timings else stat
        return MetricsSnapshot(
            counters=tuple(sorted(counters.items())),
            timings=tuple(sorted(timings.items())),
        )

    @classmethod
    def merge_all(cls, snapshots: Iterable["MetricsSnapshot"]) -> "MetricsSnapshot":
        merged = cls()
        for snapshot in snapshots:
            merged = merged.merge(snapshot)
        return merged

    def counter(self, name: str, default: float = 0) -> float:
        for key, value in self.counters:
            if key == name:
                return value
        return default

    def timing(self, name: str) -> TimingStat:
        for key, stat in self.timings:
            if key == name:
                return stat
        return TimingStat()


def worker_sample(scenarios: int, busy_seconds: float) -> MetricsSnapshot:
    """One worker-side sample: scenario count + busy time, keyed by pid.

    Returned from metered pool tasks and merged into the parent tracer;
    the pid keys telemetry aggregation only — it never reaches a digest,
    a label, or a report payload.
    """
    pid = os.getpid()
    return MetricsSnapshot(
        counters=((f"worker.{pid}.scenarios", scenarios),),
        timings=((f"worker.{pid}.busy_seconds", TimingStat.single(busy_seconds)),),
    )


class MetricsRegistry:
    """The mutable in-process accumulator behind a :class:`Tracer`."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._timings: dict[str, TimingStat] = {}

    def inc(self, name: str, amount: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        stat = self._timings.get(name)
        single = TimingStat.single(value)
        self._timings[name] = single if stat is None else stat.merge(single)

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        for name, value in snapshot.counters:
            self.inc(name, value)
        for name, stat in snapshot.timings:
            existing = self._timings.get(name)
            self._timings[name] = stat if existing is None else existing.merge(stat)

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters=tuple(sorted(self._counters.items())),
            timings=tuple(sorted(self._timings.items())),
        )

    def counter(self, name: str, default: float = 0) -> float:
        return self._counters.get(name, default)


def phase_fragments(snapshot: MetricsSnapshot) -> dict[str, dict[str, float]]:
    """Span timings as a JSON-ready ``{phase: {count, total_seconds}}``.

    The fragment :func:`benchmarks.tables.write_bench_json` embeds into
    ``BENCH_*.json`` so committed baselines carry phase-level breakdowns
    next to their headline throughput numbers.
    """
    fragments: dict[str, dict[str, float]] = {}
    for name, stat in snapshot.timings:
        if not name.startswith("span."):
            continue
        fragments[name[len("span."):]] = {
            "count": stat.count,
            "total_seconds": stat.total,
        }
    return fragments


# ----------------------------------------------------------------------
# the JSONL sink
# ----------------------------------------------------------------------
class TraceWriter:
    """Append trace events to a JSONL file, one object per line.

    Every line validates against the committed ``trace-schema.json``
    (see :mod:`repro.obs.schema`); the first line is always the ``meta``
    event naming the format version.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = path
        self._handle: TextIO | None = open(path, "w", encoding="utf-8")
        self.write(
            {
                "type": "meta",
                "name": "repro-trace",
                "version": TRACE_FORMAT_VERSION,
            }
        )

    def write(self, event: dict) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None


def _attr_value(value: object) -> object:
    """Coerce a span/event attribute to a JSON-primitive value."""
    if isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


# ----------------------------------------------------------------------
# the tracer
# ----------------------------------------------------------------------
class Tracer:
    """Nested spans + counters + an optional JSONL event sink.

    A tracer without a sink still accumulates metrics (the benchmarks
    use this to collect phase fragments without writing a trace file).
    All timing uses the monotonic ``time.perf_counter`` — the blessed
    elapsed-time clock — and span starts are recorded as offsets from
    the tracer's construction epoch, so no wall-clock value ever enters
    a trace event.
    """

    def __init__(self, sink: TraceWriter | None = None) -> None:
        self.metrics = MetricsRegistry()
        self._sink = sink
        self._epoch = time.perf_counter()
        self._stack: list[str] = []
        self._closed = False

    # -- spans and events ----------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[None]:
        """Time a named phase; nests, and emits one ``span`` event."""
        start = time.perf_counter()
        depth = len(self._stack)
        parent = self._stack[-1] if self._stack else ""
        self._stack.append(name)
        try:
            yield
        finally:
            self._stack.pop()
            duration = time.perf_counter() - start
            self.metrics.observe(f"span.{name}", duration)
            if self._sink is not None:
                event = {
                    "type": "span",
                    "name": name,
                    "start": start - self._epoch,
                    "dur": duration,
                    "depth": depth,
                    "parent": parent,
                }
                if attrs:
                    event["attrs"] = {
                        key: _attr_value(value) for key, value in attrs.items()
                    }
                self._sink.write(event)

    def event(self, name: str, **attrs: object) -> None:
        """Emit one point-in-time mark (offset from the tracer epoch)."""
        if self._sink is None:
            return
        event = {
            "type": "event",
            "name": name,
            "at": time.perf_counter() - self._epoch,
        }
        if attrs:
            event["attrs"] = {key: _attr_value(value) for key, value in attrs.items()}
        self._sink.write(event)

    def progress(self, done: int, total: int, eta: float | None = None) -> None:
        """Emit one throttled progress mark (the meter calls this)."""
        if self._sink is None:
            return
        event = {
            "type": "progress",
            "done": done,
            "total": total,
            "at": time.perf_counter() - self._epoch,
        }
        if eta is not None:
            event["eta"] = eta
        self._sink.write(event)

    # -- counters ------------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        self.metrics.inc(name, amount)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a worker-side sample into this tracer's registry."""
        self.metrics.merge_snapshot(snapshot)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Dump final counter/timing values to the sink and close it."""
        if self._closed:
            return
        self._closed = True
        if self._sink is None:
            return
        snapshot = self.metrics.snapshot()
        for name, value in snapshot.counters:
            self._sink.write({"type": "counter", "name": name, "value": value})
        for name, stat in snapshot.timings:
            event = {
                "type": "timing",
                "name": name,
                "count": stat.count,
                "total": stat.total,
            }
            if stat.min is not None:
                event["min"] = stat.min
                event["max"] = stat.max
            self._sink.write(event)
        self._sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_NULL_SPAN = nullcontext()  # reusable and reentrant: one serves every no-op span


def maybe_span(tracer: Tracer | None, name: str, **attrs: object):
    """``tracer.span(...)`` when tracing, a no-op context otherwise.

    The one-``if`` guard that keeps every instrumented hot path free when
    ``tracer=None`` (the default throughout the campaign stack).
    """
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def maybe_laps(tracer: Tracer | None) -> Callable[[str], None]:
    """``lap(name)`` observes the seconds since the previous lap (or this
    call) as timing ``name``; without a tracer, a no-op reading no clock."""
    if tracer is None:
        return _no_lap
    last = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal last
        now = time.perf_counter()
        tracer.metrics.observe(name, now - last)
        last = now

    return lap


_no_lap = lambda name: None


def maybe_inc(tracer: Tracer | None, name: str, amount: float = 1) -> None:
    """Counter increment that tolerates ``tracer=None``."""
    if tracer is not None:
        tracer.metrics.inc(name, amount)


@contextmanager
def gc_pauses(tracer: Tracer) -> Iterator[None]:
    """Record the cycle collector's pauses on ``tracer`` while open.

    Hooks :data:`gc.callbacks` and, on exit, removes the hook and adds a
    ``gc.collections`` counter and a ``gc.pause`` timing to the tracer.
    Pauses are aggregated in the hook until then, so a collection that
    fires while the registry is mid-update never touches it.  Only the
    opening process records: a forked worker inherits the hook, but its
    copy of the tracer never reaches the parent.
    """
    owner = os.getpid()
    started = 0.0
    pauses = TimingStat()

    def on_gc(phase: str, info: dict) -> None:
        nonlocal started, pauses
        if os.getpid() != owner:
            return
        if phase == "start":
            started = time.perf_counter()
        else:
            pauses = pauses.merge(TimingStat.single(time.perf_counter() - started))

    gc.callbacks.append(on_gc)
    try:
        yield
    finally:
        gc.callbacks.remove(on_gc)
        tracer.merge_snapshot(
            MetricsSnapshot(
                counters=(("gc.collections", pauses.count),),
                timings=(("gc.pause", pauses),) if pauses.count else (),
            )
        )


Callback = Callable[["ProgressUpdate"], None]


@dataclass(frozen=True)
class ProgressUpdate:
    """One throttled progress emission: coverage, rate, and an ETA."""

    done: int
    total: int
    elapsed: float

    @property
    def rate(self) -> float:
        return self.done / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def eta(self) -> float | None:
        if self.done <= 0 or self.total <= self.done:
            return None
        return self.elapsed * (self.total - self.done) / self.done

    @property
    def fraction(self) -> float:
        return self.done / self.total if self.total else 1.0


@dataclass
class ProgressMeter:
    """Throttled scenarios-done/total progress over a run.

    ``advance`` is cheap enough to call per scenario: emissions (to the
    callback and the tracer's progress events) are rate-limited to one
    per ``min_interval`` seconds, plus a guaranteed first and final
    emission.  Timing is monotonic ``perf_counter``; nothing here can
    reach a digest.
    """

    total: int
    callback: Callback | None = None
    tracer: Tracer | None = None
    min_interval: float = 0.2
    done: int = 0
    _start: float = field(default=0.0, repr=False)
    _last_emit: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._start = time.perf_counter()

    def _emit(self, now: float) -> None:
        self._last_emit = now
        update = ProgressUpdate(
            done=self.done, total=self.total, elapsed=now - self._start
        )
        if self.callback is not None:
            self.callback(update)
        if self.tracer is not None:
            self.tracer.progress(update.done, update.total, eta=update.eta)

    def advance(self, count: int = 1) -> None:
        self.done += count
        now = time.perf_counter()
        if self._last_emit is None or now - self._last_emit >= self.min_interval:
            self._emit(now)

    def finish(self) -> None:
        """Force the final emission (done may be short on early exit)."""
        self._emit(time.perf_counter())
