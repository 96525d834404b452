"""The observability layer (ISSUE 8): digest-inert by construction.

Pins the contracts the telemetry layer makes:

- **digest invariance** (acceptance criterion): a traced run with a
  progress callback produces byte-identical scenario/run/frontier
  digests to the untraced run — across the serial simulator, the pooled
  simulator (worker samples over the fork boundary), and the
  kernel engine;
- **MetricsSnapshot merge laws**: associative, commutative, identity,
  and order-independent ``merge_all`` — the properties that make
  per-worker samples safe to fold in arrival order (exercised over
  dyadic floats so equality is exact);
- **trace validity**: every emitted trace validates against the
  committed ``trace-schema.json``, the validator rejects malformed
  events, and ``summarize`` accounts ≥95% of wall-clock in named phases;
- **wall vs compute split** (satellites): ``wall_seconds`` rides beside
  ``elapsed_seconds`` (serialized, never digested, summed-compute vs
  merge-wall after ``merge_reports``), and fully-cache-warm runs report
  an honest "all N cached" instead of a nonsense scenarios/second.
"""

import gc
import itertools
import json
import os
import re

import pytest

from repro.campaign import (
    CampaignReport,
    CampaignRunner,
    Experiment,
    ResultCache,
    ablate_spec,
    ablation_matrix,
    default_matrix,
    merge_reports,
    refine_spec,
)
from repro.obs import (
    TRACE_FORMAT_VERSION,
    MetricsRegistry,
    MetricsSnapshot,
    ProgressMeter,
    ProgressUpdate,
    TimingStat,
    Tracer,
    TraceWriter,
    gc_pauses,
    maybe_inc,
    maybe_span,
    phase_fragments,
    summarize_trace,
    validate_trace_event,
    validate_trace_file,
    worker_sample,
)
from repro.obs.schema import TraceSchemaError

GRID = dict(
    families=("two-party",),
    premium_fractions=(0.0, 0.02, 0.05),
    shock_fractions=(0.045,),
    stages=("staked",),
)


def grid_matrix():
    return ablation_matrix(**GRID)


def traced_run(spec, tmp_path, name):
    trace_path = tmp_path / f"{name}.jsonl"
    tracer = Tracer(TraceWriter(trace_path))
    updates = []
    result = Experiment(spec, tracer=tracer, progress=updates.append).run()
    tracer.close()
    return result, trace_path, updates


# ----------------------------------------------------------------------
# digest invariance: traced == untraced, per engine/backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,spec_kwargs",
    [
        ("kernel", dict(engine="kernel")),
        ("serial", dict(engine="simulator", backend="serial")),
        ("pooled", dict(engine="simulator", backend="pooled", workers=2)),
    ],
)
def test_traced_and_untraced_digests_identical(tmp_path, name, spec_kwargs):
    spec = ablate_spec(**spec_kwargs, **GRID)
    untraced = Experiment(spec).run()
    traced, trace_path, updates = traced_run(spec, tmp_path, name)

    assert traced.frontier.digest == untraced.frontier.digest
    assert traced.campaign.run_digest == untraced.campaign.run_digest
    assert [r.digest for r in traced.campaign.results] == [
        r.digest for r in untraced.campaign.results
    ]
    # The trace actually recorded the run and validates against the
    # committed schema.
    assert validate_trace_file(trace_path) > 0
    # The progress callback saw the whole run land.
    assert updates and updates[-1].done == updates[-1].total


def test_pooled_trace_carries_worker_samples(tmp_path):
    spec = ablate_spec(engine="simulator", backend="pooled", workers=2, **GRID)
    _, trace_path, _ = traced_run(spec, tmp_path, "pooled-workers")
    summary = summarize_trace(trace_path)
    assert summary.workers, "no worker samples crossed the fork boundary"
    assert sum(row.scenarios for row in summary.workers) == 6
    assert all(row.busy_seconds > 0 for row in summary.workers)
    assert summary.worker_skew >= 1.0


def test_process_trace_summary_reports_efficiency_and_busy_skew(tmp_path):
    trace_path = tmp_path / "process.jsonl"
    with Tracer(TraceWriter(trace_path)) as tracer:
        report = CampaignRunner(
            default_matrix(families=["broker", "bootstrap"]),
            backend="process",
            workers=2,
            tracer=tracer,
        ).run()
    assert report.backend == "process"
    summary = summarize_trace(trace_path)
    busy = [row.busy_seconds for row in summary.workers]
    assert 1 <= len(busy) <= 2 and sum(busy) > 0
    assert summary.busy_skew == pytest.approx(max(busy) / (sum(busy) / len(busy)))
    assert summary.busy_skew >= 1.0
    # capacity is workers × the dispatch span's wall time
    dispatch = [
        event
        for event in map(json.loads, trace_path.read_text().splitlines())
        if event.get("name") == "campaign.dispatch"
    ]
    assert [event["attrs"]["workers"] for event in dispatch] == [2]
    assert summary.dispatch_capacity == pytest.approx(2 * dispatch[0]["dur"])
    assert summary.parallel_efficiency == pytest.approx(
        sum(busy) / summary.dispatch_capacity
    )
    assert 0 < summary.parallel_efficiency <= 1.0
    rendered = summary.render()
    assert f"{summary.busy_skew:.2f} busy" in rendered
    assert f"parallel efficiency: {summary.parallel_efficiency:.1%}" in rendered


def test_serial_trace_summary_has_no_parallel_efficiency(tmp_path):
    trace_path = tmp_path / "serial.jsonl"
    with Tracer(TraceWriter(trace_path)) as tracer:
        CampaignRunner(grid_matrix(), tracer=tracer).run()
    summary = summarize_trace(trace_path)
    assert summary.dispatch_capacity == 0.0
    assert summary.parallel_efficiency == 0.0
    assert "parallel efficiency" not in summary.render()


# ----------------------------------------------------------------------
# summarize: phase coverage, cache hit-rate, kernel counters
# ----------------------------------------------------------------------
def test_kernel_trace_summary_meets_coverage_contract(tmp_path):
    # The full default lattice, so spans have real durations to cover.
    result, trace_path, _ = traced_run(ablate_spec(), tmp_path, "lattice")
    summary = summarize_trace(trace_path)

    assert summary.root_name == "experiment"
    assert summary.coverage >= 0.95, (
        f"named phases cover only {summary.coverage:.1%} of wall-clock"
    )
    phase_names = {row.name for row in summary.phases}
    assert "campaign.run" in phase_names
    assert "experiment.reduce" in phase_names
    assert summary.counters["kernel.scenarios"] == result.campaign.scenarios
    assert summary.counters["kernel.calibrations"] >= 1
    assert summary.counters["kernel.replays"] >= 1
    # The default lattice's premiums: 0 (a fallback in every context) and
    # integer premiums above 2, evaluated on each named context's lines.
    assert summary.counters["kernel.derived"] >= 1
    assert summary.counters["kernel.fallbacks"] >= 1
    assert summary.blocks, "kernel cell groups should emit block spans"
    assert summary.progress_done == summary.progress_total > 0
    rendered = summary.render()
    assert "covered by named phases" in rendered
    assert "kernel:" in rendered
    kernel_line = next(l for l in rendered.splitlines() if l.startswith("kernel:"))
    assert f"{int(summary.counters['kernel.derived'])} derived" in kernel_line
    assert f"{int(summary.counters['kernel.fallbacks'])} fallbacks" in kernel_line


def test_refine_trace_counts_probes_beside_the_kernel_line(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = refine_spec(**GRID, tol=0.00390625)
    untraced = Experiment(spec).run()
    probes = untraced.refined.probes
    assert probes > 1
    rendered = {}
    for name in ("cold", "warm"):
        trace_path = tmp_path / f"{name}.jsonl"
        with Tracer(TraceWriter(trace_path)) as tracer:
            result = Experiment(spec, cache=cache, tracer=tracer).run()
        # Digest-inert: traced and cached runs refine byte-identically.
        assert result.refined.digest == untraced.refined.digest
        summary = summarize_trace(trace_path)
        assert summary.counters["refine.probes"] == probes
        # one build, dispatch and pairing lap per probe
        for lap in ("build", "dispatch", "pairing"):
            stat = tracer.metrics.snapshot().timing(f"refine.probe_{lap}")
            assert stat.count == probes
            assert summary.timings[f"refine.probe_{lap}"] == stat.total > 0
        rendered[name] = summary.render().splitlines()
    # Cold: the refine line sits beside the kernel line; each probe is a
    # two-scenario block the cache stores.  The probe laps follow it.
    cold = rendered["cold"]
    kernel_at = next(i for i, line in enumerate(cold) if line.startswith("kernel:"))
    assert cold[kernel_at + 1] == (
        f"refine: {probes} probes, 0 probe scenarios from the cache"
    )
    assert re.fullmatch(
        r"probe time: build \d+\.\d{3}s \(\d+ us/probe\), "
        r"dispatch \d+\.\d{3}s \(\d+ us/probe\), "
        r"pairing \d+\.\d{3}s \(\d+ us/probe\)",
        cold[kernel_at + 2],
    )
    # Warm: the cache serves every probe, so the kernel never runs.
    warm = rendered["warm"]
    assert not any(line.startswith("kernel:") for line in warm)
    refine_at = warm.index(
        f"refine: {probes} probes, {2 * probes} probe scenarios from the cache"
    )
    assert warm[refine_at + 1].startswith("probe time: build ")


def test_warm_cache_trace_reports_hit_rate(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    CampaignRunner(grid_matrix(), cache=cache).run()  # warm it

    trace_path = tmp_path / "warm.jsonl"
    with Tracer(TraceWriter(trace_path)) as tracer:
        report = CampaignRunner(
            grid_matrix(), cache=cache, tracer=tracer
        ).run()
    assert report.cache_hits == report.scenarios
    summary = summarize_trace(trace_path)
    # The cache stores whole matrix blocks, so trace counters are
    # block-granular (3 blocks here) while the report counts scenarios.
    assert summary.cache_hits == 3
    assert summary.cache_misses == 0
    assert summary.cache_hit_rate == 1.0
    assert "hits (100.0%)" in summary.render()


def test_summarize_keeps_largest_progress_stream(tmp_path):
    trace_path = tmp_path / "nested.jsonl"
    writer = TraceWriter(trace_path)
    writer.write({"type": "span", "name": "experiment", "start": 0.0,
                  "dur": 2.0, "depth": 0, "parent": ""})
    writer.write({"type": "progress", "done": 10, "total": 10, "at": 1.0})
    # A nested probe's tiny stream must not clobber the main run's.
    writer.write({"type": "progress", "done": 2, "total": 2, "at": 1.5})
    writer.close()
    summary = summarize_trace(trace_path)
    assert (summary.progress_done, summary.progress_total) == (10, 10)


# ----------------------------------------------------------------------
# MetricsSnapshot merge laws (property-style, dyadic floats → exact eq)
# ----------------------------------------------------------------------
def _dyadic_snapshots():
    """A deterministic family of snapshots with exactly-mergeable floats."""
    names = ("cache.hit", "kernel.replays", "worker.7.scenarios")
    spans = ("span.dispatch", "span.fold")
    snapshots = []
    for salt in range(6):
        registry = MetricsRegistry()
        for i, name in enumerate(names):
            if (salt + i) % 2 == 0:
                registry.inc(name, (salt * 4 + i) * 0.25)
        for i, name in enumerate(spans):
            if (salt + i) % 3 != 0:
                registry.observe(name, (salt + 1) * 0.125 * (i + 1))
        snapshots.append(registry.snapshot())
    return snapshots


def test_snapshot_merge_is_commutative_and_associative():
    snaps = _dyadic_snapshots()
    for a, b in itertools.combinations(snaps, 2):
        assert a.merge(b) == b.merge(a)
    for a, b, c in itertools.combinations(snaps, 3):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))


def test_snapshot_merge_identity_and_order_independence():
    snaps = _dyadic_snapshots()[:4]
    empty = MetricsSnapshot()
    for snap in snaps:
        assert empty.merge(snap) == snap
        assert snap.merge(empty) == snap
    reference = MetricsSnapshot.merge_all(snaps)
    for perm in itertools.permutations(snaps):
        assert MetricsSnapshot.merge_all(perm) == reference


def test_timing_stat_merge_folds_count_total_min_max():
    stat = TimingStat.single(0.5).merge(TimingStat.single(2.0))
    assert stat == TimingStat(count=2, total=2.5, min=0.5, max=2.0)
    assert stat.mean == 1.25
    assert stat.merge(TimingStat()) == stat
    assert TimingStat().merge(stat) == stat


def test_worker_sample_keys_by_pid_and_merges():
    sample = worker_sample(3, 0.5)
    pid = os.getpid()
    assert sample.counter(f"worker.{pid}.scenarios") == 3
    doubled = sample.merge(sample)
    assert doubled.counter(f"worker.{pid}.scenarios") == 6
    stat = doubled.timing(f"worker.{pid}.busy_seconds")
    assert (stat.count, stat.total) == (2, 1.0)


# ----------------------------------------------------------------------
# tracer primitives
# ----------------------------------------------------------------------
def test_tracer_without_sink_accumulates_phase_fragments():
    tracer = Tracer()
    with tracer.span("dispatch"):
        with tracer.span("block"):
            pass
    with tracer.span("dispatch"):
        pass
    fragments = phase_fragments(tracer.metrics.snapshot())
    assert fragments["dispatch"]["count"] == 2
    assert fragments["dispatch"]["total_seconds"] > 0
    assert "block" in fragments


def test_gc_pauses_records_collections_and_unhooks():
    tracer = Tracer()
    hooks = len(gc.callbacks)
    with gc_pauses(tracer):
        assert len(gc.callbacks) == hooks + 1
        gc.collect()
        gc.collect()
    assert len(gc.callbacks) == hooks
    gc.collect()  # after the hook is gone: not recorded
    snap = tracer.metrics.snapshot()
    assert snap.counter("gc.collections") >= 2
    pause = snap.timing("gc.pause")
    assert pause.count == snap.counter("gc.collections") and pause.total >= 0


def test_cli_trace_summary_reports_gc_pauses(tmp_path, capsys):
    from repro.cli import main
    from repro.obs.__main__ import main as obs_main

    def run_digest(*extra):
        main(["campaign", "--families", "bootstrap", *extra])
        out = capsys.readouterr().out
        return re.search(r"run digest: (\w+)", out).group(1)

    trace_path = tmp_path / "campaign.jsonl"
    assert run_digest("--trace", str(trace_path)) == run_digest()
    assert validate_trace_file(trace_path) > 0
    assert obs_main(["summarize", str(trace_path)]) == 0
    gc_lines = [
        line for line in capsys.readouterr().out.splitlines() if line.startswith("gc: ")
    ]
    assert len(gc_lines) == 1
    assert re.fullmatch(
        r"gc: \d+ collections, \d+\.\d{3}s paused \(\d+\.\d% of wall\)", gc_lines[0]
    )


def test_maybe_helpers_tolerate_none_tracer():
    with maybe_span(None, "anything", label="x"):
        pass
    maybe_inc(None, "counter")
    tracer = Tracer()
    with maybe_span(tracer, "named"):
        pass
    maybe_inc(tracer, "counter", 2)
    snap = tracer.metrics.snapshot()
    assert snap.counter("counter") == 2
    assert snap.timing("span.named").count == 1


def test_trace_file_shape_meta_first_offsets_not_wallclock(tmp_path):
    trace_path = tmp_path / "shape.jsonl"
    with Tracer(TraceWriter(trace_path)) as tracer:
        with tracer.span("outer", kind="test"):
            with tracer.span("inner"):
                pass
        tracer.event("mark", detail="x")
        tracer.inc("things", 3)
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert lines[0] == {
        "type": "meta", "name": "repro-trace", "version": TRACE_FORMAT_VERSION
    }
    spans = [e for e in lines if e["type"] == "span"]
    # Inner closes first; offsets are from the tracer epoch, not epoch-1970.
    assert [s["name"] for s in spans] == ["inner", "outer"]
    assert all(0 <= s["start"] < 60 for s in spans)
    assert spans[0]["depth"] == 1 and spans[0]["parent"] == "outer"
    assert spans[1]["depth"] == 0 and spans[1]["parent"] == ""
    assert {"type": "counter", "name": "things", "value": 3} in lines
    # close() is idempotent and every line validates.
    assert validate_trace_file(trace_path) == len(lines)


def test_progress_update_eta_math():
    update = ProgressUpdate(done=2, total=6, elapsed=1.0)
    assert update.rate == 2.0
    assert update.eta == 2.0
    assert update.fraction == pytest.approx(1 / 3)
    assert ProgressUpdate(done=0, total=6, elapsed=1.0).eta is None
    assert ProgressUpdate(done=6, total=6, elapsed=3.0).eta is None
    assert ProgressUpdate(done=0, total=0, elapsed=0.0).fraction == 1.0


def test_progress_meter_throttles_and_forces_final():
    emitted = []
    meter = ProgressMeter(total=100, callback=emitted.append, min_interval=3600)
    for _ in range(100):
        meter.advance()
    meter.finish()
    # First advance emits, the rest are throttled, finish forces the last.
    assert len(emitted) == 2
    assert (emitted[0].done, emitted[-1].done) == (1, 100)

    eager = []
    meter = ProgressMeter(total=3, callback=eager.append, min_interval=0.0)
    for _ in range(3):
        meter.advance()
    assert [u.done for u in eager] == [1, 2, 3]


# ----------------------------------------------------------------------
# the committed trace schema
# ----------------------------------------------------------------------
def test_validator_accepts_all_emitted_event_shapes():
    for event in (
        {"type": "meta", "name": "repro-trace", "version": 1},
        {"type": "span", "name": "x", "start": 0.0, "dur": 1,
         "depth": 0, "parent": "", "attrs": {"label": "a", "n": 2}},
        {"type": "event", "name": "mark", "at": 0.5},
        {"type": "progress", "done": 1, "total": 2, "at": 0.1, "eta": 0.1},
        {"type": "counter", "name": "cache.hit", "value": 3},
        {"type": "timing", "name": "span.x", "count": 1, "total": 0.1,
         "min": 0.1, "max": 0.1},
    ):
        validate_trace_event(event)


@pytest.mark.parametrize(
    "event,match",
    [
        ({"name": "x"}, "unknown trace event type"),
        ({"type": "warp", "name": "x"}, "unknown trace event type"),
        ({"type": "counter", "name": "x"}, "missing required field"),
        ({"type": "counter", "name": "x", "value": "many"}, "must be number"),
        ({"type": "progress", "done": True, "total": 2, "at": 0.1},
         "must be integer"),
        ({"type": "event", "name": "x", "at": 0.1, "surprise": 1},
         "unknown field"),
    ],
)
def test_validator_rejects_malformed_events(event, match):
    with pytest.raises(TraceSchemaError, match=match):
        validate_trace_event(event)


def test_validate_trace_file_requires_leading_meta(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type":"event","name":"x","at":0.1}\n')
    with pytest.raises(TraceSchemaError, match="meta"):
        validate_trace_file(path)
    path.write_text("")
    with pytest.raises(TraceSchemaError, match="empty"):
        validate_trace_file(path)
    path.write_text(
        '{"type":"meta","name":"repro-trace","version":999}\n'
    )
    with pytest.raises(TraceSchemaError, match="version"):
        validate_trace_file(path)


# ----------------------------------------------------------------------
# wall vs compute split + honest cache-warm rates (satellites 1 and 2)
# ----------------------------------------------------------------------
def test_single_run_wall_equals_compute():
    report = CampaignRunner(grid_matrix()).run()
    assert report.wall_seconds == report.elapsed_seconds
    assert report.fresh_scenarios == report.scenarios
    assert report.scenarios_per_second > 0
    assert report.served_per_second == report.scenarios_per_second
    assert "compute /" not in report.summary()


def test_merged_report_splits_compute_from_wall():
    shards = [
        CampaignRunner(grid_matrix(), shard=(i, 2)).run() for i in (1, 2)
    ]
    merged = merge_reports(shards)
    assert merged.elapsed_seconds == pytest.approx(
        sum(s.elapsed_seconds for s in shards)
    )
    assert merged.wall_seconds > 0
    assert merged.wall_seconds != merged.elapsed_seconds
    assert "compute /" in merged.summary()
    assert "wall" in merged.summary()


def test_fully_warm_run_reports_cached_not_a_rate(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    CampaignRunner(grid_matrix(), cache=cache).run()
    warm = CampaignRunner(grid_matrix(), cache=cache).run()
    assert warm.cache_hits == warm.scenarios == 6
    assert warm.fresh_scenarios == 0
    assert warm.scenarios_per_second == 0.0
    assert warm.served_per_second > 0
    assert "all 6 cached" in warm.summary()
    assert "0/s" not in warm.summary()


def test_wall_seconds_serialized_but_never_digested():
    report = CampaignRunner(grid_matrix()).run()
    payload = json.loads(report.to_json())
    assert payload["wall_seconds"] == report.wall_seconds
    # A different wall_seconds still deserializes and digest-verifies:
    # the field is transport-only, outside the run digest.
    payload["wall_seconds"] = 12345.0
    restored = CampaignReport.from_json(json.dumps(payload))
    assert restored.run_digest == report.run_digest
    assert restored.wall_seconds == 12345.0
    # Pre-split payloads fall back to elapsed_seconds.
    del payload["wall_seconds"]
    legacy = CampaignReport.from_json(json.dumps(payload))
    assert legacy.wall_seconds == legacy.elapsed_seconds
