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

from repro import lazy_exports

lazy_exports(globals(), {
    "TRACE_FORMAT_VERSION": "repro.obs.tracer",
    "MetricsRegistry": "repro.obs.tracer",
    "MetricsSnapshot": "repro.obs.tracer",
    "ProgressMeter": "repro.obs.tracer",
    "ProgressUpdate": "repro.obs.tracer",
    "TimingStat": "repro.obs.tracer",
    "TraceWriter": "repro.obs.tracer",
    "Tracer": "repro.obs.tracer",
    "gc_pauses": "repro.obs.tracer",
    "maybe_inc": "repro.obs.tracer",
    "maybe_laps": "repro.obs.tracer",
    "maybe_span": "repro.obs.tracer",
    "phase_fragments": "repro.obs.tracer",
    "worker_sample": "repro.obs.tracer",
    "validate_trace_event": "repro.obs.schema",
    "validate_trace_file": "repro.obs.schema",
    "TraceSummary": "repro.obs.summarize",
    "summarize_trace": "repro.obs.summarize",
})
