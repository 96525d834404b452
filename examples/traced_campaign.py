"""Observability without observer effect: tracing a campaign run.

The :mod:`repro.obs` layer instruments the whole campaign stack — nested
phase spans, cache and kernel counters, per-worker samples, streaming
progress — while staying provably digest-inert: a traced run produces
byte-identical scenario/run/frontier digests to an untraced one.  This
example shows the full loop:

- run an ablation experiment untraced and record its frontier digest,
- re-run it with a ``Tracer`` writing a JSONL trace file and a progress
  callback streaming done/total/ETA, and check the digests match,
- validate the trace against the committed ``trace-schema.json`` and
  summarize it: phase breakdown (with the ≥95% wall-clock coverage the
  layer guarantees), slowest blocks, kernel calibration/replay counts,
- pull ``phase_fragments`` off the tracer's metrics — the same structure
  ``benchmarks.tables.write_bench_json`` embeds into BENCH baselines.

The CLI exposes the same switches: ``python -m repro.cli ablate
--trace trace.jsonl --progress`` then ``python -m repro.obs summarize
trace.jsonl``.

Run with:  python examples/traced_campaign.py
"""

import tempfile
from pathlib import Path

from repro.campaign import Experiment, ablate_spec
from repro.obs import (
    Tracer,
    TraceWriter,
    phase_fragments,
    summarize_trace,
    validate_trace_file,
)

GRID = dict(
    families=("two-party", "broker"),
    premium_fractions=(0.0, 0.02, 0.05),
    shock_fractions=(0.015, 0.045),
    stages=("staked",),
)


def main() -> None:
    spec = ablate_spec(**GRID)

    print("=== untraced reference run ===")
    reference = Experiment(spec).run()
    print(f"frontier digest: {reference.frontier.digest[:16]}…")

    print()
    print("=== the same spec, traced + progress-streamed ===")
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.jsonl"
        tracer = Tracer(TraceWriter(trace_path))
        progress_marks = []

        def on_progress(update):
            progress_marks.append(update)

        traced = Experiment(spec, tracer=tracer, progress=on_progress).run()
        tracer.close()

        match = traced.frontier.digest == reference.frontier.digest
        print(f"frontier digest: {traced.frontier.digest[:16]}… "
              f"(identical to untraced: {match})")
        assert match, "telemetry must never perturb a digest"
        final = progress_marks[-1]
        print(f"progress stream: {len(progress_marks)} throttled updates, "
              f"final {final.done}/{final.total}")

        events = validate_trace_file(trace_path)
        print(f"trace validates against trace-schema.json: {events} events")

        print()
        print("=== python -m repro.obs summarize, as a library call ===")
        summary = summarize_trace(trace_path)
        print(summary.render(top_blocks=3))
        assert summary.coverage >= 0.95

        print()
        print("=== phase fragments (what BENCH baselines embed) ===")
        for phase, stats in sorted(phase_fragments(
            tracer.metrics.snapshot()
        ).items()):
            print(f"  {phase:<24} x{int(stats['count'])}  "
                  f"{stats['total_seconds']:.4f}s")


if __name__ == "__main__":
    main()
