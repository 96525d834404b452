"""Digest-inert observability for the campaign stack.

``repro.obs`` watches the engines from the outside: nested spans around
runner phases, counters inside the cache and kernel engine, per-worker
samples carried back across the fork boundary, and a throttled progress
meter — all timed with the blessed monotonic ``time.perf_counter`` and
provably inert to every scenario/run/frontier digest (traced and
untraced runs are byte-identical; the determinism linter's DET003 rule
polices the boundary from the other side).

Entry points: ``Tracer``/``TraceWriter`` for instrumented runs,
``--trace``/``--progress`` on the CLI, and
``python -m repro.obs summarize TRACE.jsonl`` for the offline report.
"""

from .tracer import (
    TRACE_FORMAT_VERSION,
    MetricsRegistry,
    MetricsSnapshot,
    ProgressMeter,
    ProgressUpdate,
    TimingStat,
    TraceWriter,
    Tracer,
    gc_pauses,
    maybe_inc,
    maybe_laps,
    maybe_span,
    phase_fragments,
    worker_sample,
)
from .schema import validate_trace_event, validate_trace_file
from .summarize import TraceSummary, summarize_trace

__all__ = [
    "TRACE_FORMAT_VERSION",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ProgressMeter",
    "ProgressUpdate",
    "TimingStat",
    "TraceWriter",
    "Tracer",
    "TraceSummary",
    "gc_pauses",
    "maybe_inc",
    "maybe_laps",
    "maybe_span",
    "phase_fragments",
    "summarize_trace",
    "validate_trace_event",
    "validate_trace_file",
    "worker_sample",
]
