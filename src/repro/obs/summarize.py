"""Offline trace reports: ``python -m repro.obs summarize TRACE.jsonl``.

Reads a JSONL trace produced by :class:`repro.obs.Tracer` and condenses
it into the questions an operator actually asks of a campaign run:

- **phase breakdown** — where did the wall-clock go (expand, cache
  consult, dispatch, fold, reduce), and what fraction of the root span
  is accounted for by named child spans (the ≥95% coverage contract);
- **slowest blocks** — the per-block spans that dominated dispatch;
- **cache behaviour** — hit-rate with the miss taxonomy (absent,
  corrupt, violating), entry files read (a read-memo hit reads none)
  and store counts;
- **kernel engine** — template calibrations, templates derived from a
  context's p = 1 / p = 2 pair, simulator fallbacks, replays and
  cell-cache hits;
- **refinement** — bisection probes and the probe scenarios the result
  cache served, then where a probe's time went: building its matrix,
  dispatching it, and pairing its arms into a cell;
- **worker skew** — per-worker scenario counts and busy time carried
  back over the fork boundary, condensed to max/mean imbalance ratios;
- **parallel efficiency** — on process runs, Σ worker busy time over
  ``workers × campaign.dispatch`` wall time: the share of the pool's
  capacity that ran scenarios;
- **gc pauses** — the parent process's cycle-collector collections and
  the seconds they paused it, as a share of wall time (CLI traces carry
  them; see :func:`repro.obs.gc_pauses`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .schema import iter_trace_events


@dataclass(frozen=True)
class PhaseRow:
    name: str
    count: int
    total: float
    share: float  # fraction of root wall-clock


@dataclass(frozen=True)
class BlockRow:
    label: str
    duration: float
    scenarios: int


@dataclass(frozen=True)
class WorkerRow:
    pid: int
    scenarios: int
    busy_seconds: float


@dataclass
class TraceSummary:
    """Everything ``summarize`` reports, parsed once from the JSONL."""

    wall_seconds: float = 0.0
    root_name: str = ""
    phases: list[PhaseRow] = field(default_factory=list)
    coverage: float = 0.0
    blocks: list[BlockRow] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    workers: list[WorkerRow] = field(default_factory=list)
    #: Σ workers × wall over the process backends' dispatch spans
    dispatch_capacity: float = 0.0
    progress_done: int = 0
    progress_total: int = 0
    #: Σ seconds of the ``gc.pause`` timing (collections are a counter)
    gc_pause_seconds: float = 0.0
    #: Σ seconds per timing name (the probe laps, gc pauses, ...)
    timings: dict[str, float] = field(default_factory=dict)

    # -- cache ---------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return int(self.counters.get("cache.hit", 0))

    @property
    def cache_misses(self) -> int:
        return int(
            sum(
                value
                for name, value in self.counters.items()
                if name.startswith("cache.miss")
            )
        )

    @property
    def cache_hit_rate(self) -> float:
        consulted = self.cache_hits + self.cache_misses
        return self.cache_hits / consulted if consulted else 0.0

    # -- workers -------------------------------------------------------
    @property
    def worker_skew(self) -> float:
        """max/mean scenarios per worker; 1.0 = perfectly balanced."""
        counts = [row.scenarios for row in self.workers]
        if not counts or sum(counts) == 0:
            return 0.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 0.0

    @property
    def busy_skew(self) -> float:
        """max/mean busy seconds per worker; 1.0 = every worker as busy."""
        busy = [row.busy_seconds for row in self.workers]
        if not busy or sum(busy) == 0:
            return 0.0
        return max(busy) / (sum(busy) / len(busy))

    @property
    def parallel_efficiency(self) -> float:
        """Σ worker busy / (workers × dispatch wall) on process runs."""
        if not self.dispatch_capacity:
            return 0.0
        busy = sum(row.busy_seconds for row in self.workers)
        return busy / self.dispatch_capacity

    def render(self, top_blocks: int = 5) -> str:
        lines = []
        root = self.root_name or "(no root span)"
        lines.append(
            f"trace: {root} — {self.wall_seconds:.3f}s wall, "
            f"{self.coverage:.1%} covered by named phases"
        )
        if self.progress_total:
            lines.append(
                f"progress: {self.progress_done}/{self.progress_total} scenarios"
            )
        if self.phases:
            lines.append("phases:")
            for row in self.phases:
                lines.append(
                    f"  {row.name:<28} {row.total:>9.3f}s  "
                    f"{row.share:>6.1%}  x{row.count}"
                )
        if self.blocks:
            lines.append(f"slowest blocks (top {min(top_blocks, len(self.blocks))}):")
            for row in self.blocks[:top_blocks]:
                lines.append(
                    f"  {row.label:<40} {row.duration:>9.3f}s  "
                    f"{row.scenarios} scenarios"
                )
        consulted = self.cache_hits + self.cache_misses
        if consulted:
            miss_parts = ", ".join(
                f"{name.split('cache.miss.', 1)[1]}={int(value)}"
                for name, value in sorted(self.counters.items())
                if name.startswith("cache.miss.") and value
            )
            detail = f" (miss: {miss_parts})" if miss_parts else ""
            lines.append(
                f"cache: {self.cache_hits}/{consulted} hits "
                f"({self.cache_hit_rate:.1%}), "
                f"{int(self.counters.get('cache.read', 0))} file reads, "
                f"{int(self.counters.get('cache.store', 0))} stores{detail}"
            )
        if any(name.startswith("kernel.") for name in self.counters):
            lines.append(
                "kernel: "
                f"{int(self.counters.get('kernel.calibrations', 0))} calibrations, "
                f"{int(self.counters.get('kernel.derived', 0))} derived, "
                f"{int(self.counters.get('kernel.fallbacks', 0))} fallbacks, "
                f"{int(self.counters.get('kernel.replays', 0))} replays, "
                f"{int(self.counters.get('kernel.cell_hits', 0))} cell-cache hits, "
                f"{int(self.counters.get('kernel.scenarios', 0))} scenarios"
            )
        if "refine.probes" in self.counters:
            probes = int(self.counters["refine.probes"])
            hits = int(self.counters.get("refine.probe_cache_hits", 0))
            lines.append(f"refine: {probes} probes, {hits} probe scenarios from the cache")
            names = ("build", "dispatch", "pairing")  # the prober's laps, in probe order
            laps = [(lap, self.timings.get(f"refine.probe_{lap}")) for lap in names]
            if probes and all(total is not None for _, total in laps):
                lines.append("probe time: " + ", ".join(
                    f"{lap} {total:.3f}s ({total / probes * 1e6:.0f} us/probe)" for lap, total in laps
                ))
        if "gc.collections" in self.counters:
            share = self.gc_pause_seconds / self.wall_seconds if self.wall_seconds else 0.0
            lines.append(
                f"gc: {int(self.counters['gc.collections'])} collections, "
                f"{self.gc_pause_seconds:.3f}s paused ({share:.1%} of wall)"
            )
        if self.workers:
            lines.append(
                f"workers: {len(self.workers)} (skew max/mean = "
                f"{self.worker_skew:.2f} scenarios, {self.busy_skew:.2f} busy)"
            )
            if self.dispatch_capacity:
                lines.append(
                    f"parallel efficiency: {self.parallel_efficiency:.1%} "
                    "(worker busy / workers x dispatch wall)"
                )
            for row in sorted(self.workers, key=lambda r: r.pid):
                lines.append(
                    f"  pid {row.pid:<8} {row.scenarios:>6} scenarios  "
                    f"{row.busy_seconds:>9.3f}s busy"
                )
        return "\n".join(lines)


def summarize_trace(path: str | Path) -> TraceSummary:
    """Parse one trace file into a :class:`TraceSummary`."""
    spans: list[dict] = []
    counters: dict[str, float] = {}
    timings: dict[str, dict] = {}
    progress_done = 0
    progress_total = 0
    for event in iter_trace_events(path):
        kind = event.get("type")
        if kind == "span":
            spans.append(event)
        elif kind == "counter":
            counters[event["name"]] = event["value"]
        elif kind == "timing":
            timings[event["name"]] = event
        elif kind == "progress":
            # Keep the largest-scope progress stream: nested probe runs
            # (refinement cells) emit their own tiny done/total marks.
            if event["total"] >= progress_total:
                progress_done = event["done"]
                progress_total = event["total"]

    summary = TraceSummary(counters=counters)
    summary.progress_done = progress_done
    summary.progress_total = progress_total
    summary.gc_pause_seconds = timings.get("gc.pause", {}).get("total", 0.0)
    summary.timings = {name: event["total"] for name, event in timings.items()}

    roots = [span for span in spans if span["depth"] == 0]
    if roots:
        # A trace normally has one root (the outermost instrumented call);
        # if several appear (e.g. sequential runs into one file), treat
        # their concatenation as the wall-clock budget.
        summary.wall_seconds = sum(span["dur"] for span in roots)
        summary.root_name = roots[-1]["name"]

    root_names = {span["name"] for span in roots}
    children = [
        span
        for span in spans
        if span["depth"] == 1 and span["parent"] in root_names
    ]
    by_name: dict[str, list[float]] = {}
    for span in children:
        by_name.setdefault(span["name"], []).append(span["dur"])
    phases = [
        PhaseRow(
            name=name,
            count=len(durs),
            total=sum(durs),
            share=(sum(durs) / summary.wall_seconds) if summary.wall_seconds else 0.0,
        )
        for name, durs in by_name.items()
    ]
    summary.phases = sorted(phases, key=lambda row: (-row.total, row.name))
    if summary.wall_seconds:
        summary.coverage = sum(span["dur"] for span in children) / summary.wall_seconds

    block_spans = [span for span in spans if span["name"] == "block"]
    blocks = [
        BlockRow(
            label=str(span.get("attrs", {}).get("label", "?")),
            duration=span["dur"],
            scenarios=int(span.get("attrs", {}).get("scenarios", 0)),
        )
        for span in block_spans
    ]
    summary.blocks = sorted(blocks, key=lambda row: -row.duration)
    summary.dispatch_capacity = sum(
        int(span["attrs"].get("workers", 0)) * span["dur"]
        for span in spans
        if span["name"] == "campaign.dispatch"
        and str(span.get("attrs", {}).get("backend", "")).startswith("process")
    )

    workers: dict[int, WorkerRow] = {}
    for name, value in counters.items():
        if name.startswith("worker.") and name.endswith(".scenarios"):
            pid = int(name.split(".")[1])
            busy = timings.get(f"worker.{pid}.busy_seconds", {}).get("total", 0.0)
            workers[pid] = WorkerRow(
                pid=pid, scenarios=int(value), busy_seconds=busy
            )
    summary.workers = sorted(workers.values(), key=lambda row: row.pid)
    return summary
