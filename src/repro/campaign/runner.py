"""Campaign execution: pluggable backends, sharding, and aggregation.

``CampaignRunner`` expands a :class:`repro.campaign.matrix.ScenarioMatrix`
and executes the selected scenarios through one of three backends:

- ``serial`` — :func:`repro.campaign.scenario.run_scenarios` in this
  process, which forks a block's halting scenarios from one compliant
  base run,
- ``kernel`` — the payoff kernels
  (:class:`repro.campaign.ablation.kernels.KernelEngine`), available only
  for matrices built by the ablation factories; produces byte-identical
  results and digests to the simulator backends at a fraction of the cost,
- ``process`` — a fork-based :class:`repro.campaign.pool.WorkerPool`.
  Workers inherit the parent's expanded selection through fork and run it
  *by index*, so builders and strategy transforms never need to be
  picklable; only the primitive :class:`ScenarioResult` objects cross the
  process boundary.  Each task is one fork group from
  :func:`repro.campaign.pool.dispatch_layout`: a block's scenarios, or a
  run of consecutive fork rounds of a block larger than ``1/K`` of the
  selection (``K = workers × 8``).  A task runs its scenarios as the
  serial backend runs a selection, so the halting scenarios in a task
  share one base run, as a block's do in a serial run.
  Replies are put back in index order, so the layout never reaches a
  digest.  A worker that dies mid-run ends it with
  :class:`repro.campaign.pool.WorkerLostError` rather than a hang.

The pool has two lifetimes.  Without ``pool=`` the runner opens one for
the run and closes it afterwards (terminates it on error); below
:data:`MIN_PROCESS_SCENARIOS`, where the fork costs more than the work,
such a run falls back to serial.  A caller-supplied ``pool=`` is the same
object with a longer life: it needs a matrix carrying a rebuild ``spec``,
since workers forked for an earlier run rebuild a matrix they did not
inherit, and it always dispatches — even tiny runs — because its fork
cost amortizes across every run that follows.  Both report
``backend="process"``; on platforms without ``fork`` the runner falls
back to serial, and the report's ``backend`` always records what
actually ran.

Each scenario's result is that of an independent full simulation,
forked or not, so results are identical across backends and process
layouts; the :class:`CampaignReport` proves it
with a ``run_digest`` — a hash over a preamble naming the matrix's
structural digest **and the effective selection** (limit/shard, scenario
count out of the full matrix), then every per-scenario outcome digest in
index order.  A ``--limit`` or ``--shard`` run therefore can never
masquerade as full coverage: its preamble differs.  Conversely,
:func:`merge_reports` recombines shard reports — validating that they
share a matrix, a limit, and non-overlapping indices — into a report whose
``run_digest`` is byte-identical to the unsharded run's, which is what
makes cross-host sharding provable.  :meth:`CampaignReport.to_json` /
:meth:`CampaignReport.from_json` move shard reports between hosts.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from hashlib import sha256
from typing import TYPE_CHECKING, Iterable, NamedTuple

from repro import codec
from repro.campaign.matrix import ScenarioMatrix, validate_shard
from repro.campaign.pool import (
    WorkerPool,
    default_workers,
    fork_available,
    share_rows,
)
from repro.campaign.report import load_payload, parse_report, register_report
from repro.campaign.scenario import (
    Scenario,
    ScenarioJob,
    ScenarioResult,
    fork_keys,
    plan_scenarios,
    run_scenarios,
)
from repro.errors import DecodeError
from repro.obs.tracer import (
    MetricsSnapshot,
    ProgressMeter,
    Tracer,
    maybe_span,
    worker_sample,
)

if TYPE_CHECKING:  # a plain campaign runs without a cache
    from repro.campaign.cache import ResultCache

# Below this many scenarios a requested process backend runs serially:
# forking a pool costs more than the work itself.
MIN_PROCESS_SCENARIOS = 24

#: matrix factories whose scenarios the kernel engine
#: (:mod:`repro.campaign.ablation.kernels`) understands.
KERNEL_FACTORIES = ("ablation", "ablation_cell")


def _run_at_metered(job: ScenarioJob) -> tuple[ScenarioResult, MetricsSnapshot]:
    """One traced scenario in a pool worker: the result of one planned job
    (see :func:`repro.campaign.scenario.plan_scenarios`) plus a per-worker
    telemetry sample (scenario count + busy time, keyed by worker pid).
    The result itself is byte-identical to the untraced path.

    Workers look this up on this module for every metered scenario, so a
    wrapper installed here before the pool forks applies to each one.
    """
    start = time.perf_counter()
    result = job()
    return result, worker_sample(1, time.perf_counter() - start)


def selection_label(limit: int | None, shard: tuple[int, int] | None) -> str:
    """Human-readable selection descriptor, folded into the run digest.

    ("full", "limit=150:stratified shard=1/3").  The ``:stratified``
    marker records the block-stratified subsampling policy
    (:meth:`repro.campaign.matrix.ScenarioMatrix.selection`): the policy
    determines *which* scenarios a limit picks, so it belongs in the
    selection-honest preamble — a report produced under a different policy
    can never silently collide with a stratified one.
    """
    parts = [] if limit is None else [f"limit={limit}:stratified"]
    if shard is not None:
        parts.append(f"shard={shard[0]}/{shard[1]}")
    return " ".join(parts) or "full"


def run_digest(run: CampaignReport | SelectionRun) -> str:
    """The run digest: a header naming the matrix and the effective
    selection, then every result digest in order."""
    label = selection_label(run.limit, run.shard)
    digest = sha256(
        f"{run.matrix_digest}|selection={label}"
        f"|coverage={len(run.results)}/{run.total_scenarios}".encode()
    )
    for result in run.results:
        digest.update(result.digest.encode())
    return digest.hexdigest()


class ScenarioViolation(NamedTuple):
    """One property violation in one scenario.

    ``trace`` carries the violating run's lane diagram (captured by
    :func:`repro.campaign.scenario.run_scenario` at execution time), so a
    frontier/campaign anomaly is debuggable straight from the report.  On
    disk a violation is the array ``[scenario, message, trace]``.
    """

    scenario: str
    message: str
    trace: str = ""


@dataclass
class AxisStats:
    """Per-axis-value aggregate."""

    scenarios: int = 0
    violations: int = 0


@register_report("campaign")
@dataclass
class CampaignReport:
    """Everything a campaign observed, plus its reproducibility digest.

    A registered :class:`~repro.campaign.report.Report`: ``kind`` is
    ``"campaign"`` and ``digest`` aliases ``run_digest`` so provenance
    tooling can treat every report uniformly.
    """

    backend: str
    workers: int
    matrix_digest: str
    #: size of the *full* matrix; ``scenarios`` counts what actually ran.
    total_scenarios: int = 0
    #: the selection this run was asked for (None/None = full coverage).
    limit: int | None = None
    shard: tuple[int, int] | None = None
    #: ``scenarios`` through ``reverted``, ``violations`` and
    #: ``run_digest`` are derived from ``results`` by _fold_results.
    scenarios: int = 0
    transactions: int = 0
    reverted: int = 0
    #: summed per-shard compute time.  Equal to ``wall_seconds`` for a
    #: single run; after :func:`merge_reports` it is the *aggregate*
    #: compute across shards, which can exceed wall clock arbitrarily.
    elapsed_seconds: float = 0.0
    #: wall-clock time observed by whoever produced this report: the run
    #: itself, or the merge step for merged reports.  Never digested.
    wall_seconds: float = 0.0
    #: scenarios served from the incremental result cache (never digested:
    #: a warm run must reproduce the cold run's digest byte-identically).
    cache_hits: int = 0
    violations: list[ScenarioViolation] = field(default_factory=list)
    results: list[ScenarioResult] = field(default_factory=list)
    run_digest: str = ""
    #: per-axis and premium-flow aggregates: derived, never transported.
    by_axis: dict[str, dict[str, AxisStats]] = field(
        default_factory=dict, init=False
    )
    premium_net_hist: Counter = field(default_factory=Counter, init=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def digest(self) -> str:
        """Report-protocol alias for :attr:`run_digest`."""
        return self.run_digest

    @property
    def cache_hit_rate(self) -> float:
        if not self.scenarios:
            return 0.0
        return self.cache_hits / self.scenarios

    @classmethod
    def merge(cls, reports: "Iterable[CampaignReport]") -> "CampaignReport":
        """Report-protocol merge: :func:`merge_reports` on campaign shards."""
        return merge_reports(reports)

    @property
    def selection(self) -> str:
        label = selection_label(self.limit, self.shard)
        if label == "full" and not self.complete:
            # e.g. a merge of fewer shards than the matrix has: no limit or
            # shard was requested, yet coverage fell short — say so.
            return "partial"
        return label

    @property
    def complete(self) -> bool:
        """True iff this report covers the whole matrix."""
        return self.scenarios == self.total_scenarios

    @property
    def fresh_scenarios(self) -> int:
        """Scenarios actually executed (not served from the cache)."""
        return self.scenarios - self.cache_hits

    @property
    def scenarios_per_second(self) -> float:
        """Execution rate over *fresh* scenarios only.

        Cache hits cost microseconds, so folding them into the rate turns
        a fully-warm run into a meaningless divide-by-tiny-elapsed number
        (tens of thousands "per second" of work that never ran).  A
        fully-cached run therefore reports 0.0 here — ``summary()``
        annotates it with the hit count instead — and
        :attr:`served_per_second` keeps the cache-serving throughput for
        anyone who wants it.
        """
        if self.elapsed_seconds <= 0 or self.fresh_scenarios <= 0:
            return 0.0
        return self.fresh_scenarios / self.elapsed_seconds

    @property
    def served_per_second(self) -> float:
        """Delivery rate over *all* scenarios, cache hits included."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.scenarios / self.elapsed_seconds

    def payoff_summary(self) -> dict[str, float]:
        """Distribution of per-(scenario, party) net premium flows."""
        total = sum(self.premium_net_hist.values())
        if not total:
            return {"n": 0, "min": 0, "max": 0, "mean": 0.0, "nonzero": 0}
        weighted = sum(v * c for v, c in self.premium_net_hist.items())
        return {
            "n": total,
            "min": min(self.premium_net_hist),
            "max": max(self.premium_net_hist),
            "mean": weighted / total,
            "nonzero": sum(
                c for v, c in self.premium_net_hist.items() if v != 0
            ),
        }

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        coverage = (
            "" if self.complete
            else f" [{self.selection}: {self.scenarios}/{self.total_scenarios}]"
        )
        cached = (
            f", {self.cache_hits} cached ({self.cache_hit_rate:.0%})"
            if self.cache_hits
            else ""
        )
        if self.scenarios and self.fresh_scenarios == 0:
            # Fully cache-warm: an execution rate would be nonsense (the
            # run executed nothing), so annotate with the hit count.
            rate = f"all {self.cache_hits} cached"
        else:
            rate = f"{self.scenarios_per_second:.0f}/s"
        if self.wall_seconds and abs(self.wall_seconds - self.elapsed_seconds) > 1e-9:
            # Merged shards: summed compute is not wall clock — show both.
            timing = (
                f"{self.elapsed_seconds:.2f}s compute / "
                f"{self.wall_seconds:.2f}s wall"
            )
        else:
            timing = f"{self.elapsed_seconds:.2f}s"
        return (
            f"{self.scenarios} scenarios, {self.transactions} transactions, "
            f"{timing} ({rate}, "
            f"backend={self.backend}{cached}){coverage}: {status}"
        )

    def axis_table(self, axis: str) -> list[tuple[str, int, int]]:
        """(value, scenarios, violations) rows for one axis, sorted."""
        stats = self.by_axis.get(axis, {})
        return [
            (value, s.scenarios, s.violations)
            for value, s in sorted(stats.items())
        ]

    # ------------------------------------------------------------------
    # serialization (cross-host shard transport)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize everything needed to merge or audit this report."""
        return json.dumps(
            {"kind": self.kind, **codec.encode(self)},
            indent=None,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignReport":
        """Rebuild a report from :meth:`to_json` (see :meth:`from_data`)."""
        return cls.from_data(parse_report(text))

    @classmethod
    def from_data(cls, data: dict) -> "CampaignReport":
        """Rebuild a report (with per-axis aggregates) from the parsed
        JSON object of :meth:`to_json`.

        The derived keys are recomputed from ``results``; a file whose
        copies disagree with the recomputation is refused.
        """
        data = load_payload(cls, data)
        if "wall_seconds" not in data and "elapsed_seconds" in data:
            # Older reports predate the compute/wall split, where the
            # single field served both roles.
            data["wall_seconds"] = data["elapsed_seconds"]
        stamped = codec.decode(cls, data)
        report = _fold_results(replace(
            stamped, scenarios=0, transactions=0, reverted=0,
            violations=[], run_digest="",
        ))
        if report.run_digest != stamped.run_digest:
            raise ValueError(
                "report digest mismatch after deserialization: "
                f"{report.run_digest[:16]} != {stamped.run_digest[:16]}"
            )
        for name in ("scenarios", "transactions", "reverted", "violations"):
            if getattr(report, name) != getattr(stamped, name):
                raise DecodeError("does not match the results", name)
        return report


def _fold_results(report: CampaignReport) -> CampaignReport:
    """Derive ``report``'s aggregates and run digest from its results."""
    by_axis = report.by_axis
    for result in report.results:
        report.transactions += result.transactions
        report.reverted += result.reverted
        report.violations.extend(
            ScenarioViolation(result.label, message, result.trace)
            for message in result.violations
        )
        for axis, value in result.axes:
            # Look up before creating: most results hit existing entries.
            values = by_axis.get(axis) or by_axis.setdefault(axis, {})
            stats = values.get(value) or values.setdefault(value, AxisStats())
            stats.scenarios += 1
            stats.violations += len(result.violations)
        for _, net in result.premium_net:
            report.premium_net_hist[net] += 1
    report.scenarios = len(report.results)
    report.run_digest = run_digest(report)
    return report


class SelectionRun(NamedTuple):
    """:meth:`CampaignRunner.run_selection`'s results and report header.
    It holds no wall clock, so no digest taken from it can depend on one."""

    results: list[ScenarioResult]
    cache_hits: int
    backend: str
    workers: int
    matrix_digest: str
    total_scenarios: int
    limit: int | None
    shard: tuple[int, int] | None


class CampaignRunner:
    """Execute a scenario matrix (or one shard of it) through a backend."""

    def __init__(
        self,
        matrix: ScenarioMatrix,
        backend: str = "serial",
        workers: int | None = None,
        limit: int | None = None,
        shard: tuple[int, int] | None = None,
        pool: WorkerPool | None = None,
        cache: ResultCache | None = None,
        kernel: object | None = None,
        tracer: Tracer | None = None,
        progress=None,
    ) -> None:
        if backend not in ("serial", "process", "kernel"):
            raise ValueError(
                f"unknown backend {backend!r}: use serial, process, or kernel"
            )
        if kernel is not None and backend != "kernel":
            raise ValueError("a KernelEngine requires backend='kernel'")
        if backend == "kernel":
            factory = matrix.spec.factory if matrix.spec is not None else None
            if factory not in KERNEL_FACTORIES:
                raise ValueError(
                    "backend='kernel' understands only ablation matrices "
                    f"(factories {KERNEL_FACTORIES}), got "
                    f"{factory or 'an unregistered matrix'}; use the "
                    "simulator backends for everything else"
                )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        if shard is not None:
            shard = validate_shard(shard)
        if pool is not None:
            if backend != "process":
                raise ValueError("a WorkerPool requires backend='process'")
            if workers is not None:
                raise ValueError(
                    "workers= conflicts with pool=: the pool's own worker "
                    f"count ({pool.workers}) governs pooled runs"
                )
            if matrix.spec is None:
                raise ValueError(
                    "pool reuse needs a rebuildable matrix: use a registered "
                    "factory (e.g. default_matrix) that sets matrix.spec"
                )
        if cache is not None and matrix.spec is None:
            raise ValueError(
                "a ResultCache needs a rebuildable matrix: only registered "
                "factories (matrix.spec set) build blocks purely from "
                "primitive arguments, which is what makes block keys sound"
            )
        self.matrix = matrix
        self.backend = backend
        if workers is None and backend == "process" and pool is None:
            # Only a per-run pool forks by this count; serial and kernel
            # runs (every refine probe) never read it.
            workers = default_workers()
        self.workers = workers
        self.limit = limit
        self.shard = shard
        self.pool = pool
        self.cache = cache
        self.kernel = kernel
        #: observability only — spans/counters around the run.  Digest-inert
        #: by contract: traced and untraced runs are byte-identical
        #: (tests/test_obs.py proves it across all backends).
        self.tracer = tracer
        #: optional ``ProgressUpdate -> None`` callback, throttled.
        self.progress = progress

    # ------------------------------------------------------------------
    # backends
    # ------------------------------------------------------------------
    def _block_groups(
        self, scenarios: list[Scenario]
    ) -> list[tuple[str, list[Scenario]]]:
        """Partition an index-ordered scenario list by owning block.

        A traced serial run plans and runs each group on its own, inside
        the group's ``block`` span: every scenario of a block shares its
        builder, so a group keeps all of a block's forks from its base
        run.  Scenario lists arrive in ascending global-index order
        (``matrix.scenarios`` guarantees it), so one pass over the
        matrix's block geometry groups them without reordering.
        """
        ranges = self.matrix.block_ranges()
        groups: list[tuple[str, list[Scenario]]] = []
        position = 0
        for scenario in scenarios:
            while position < len(ranges):
                start, size, block = ranges[position]
                if scenario.index < start + size:
                    break
                position += 1
            if position >= len(ranges):  # pragma: no cover - geometry bug
                label = "?"
            else:
                _, _, block = ranges[position]
                axes = ",".join(f"{a}={v}" for a, v in block.extra_axes)
                label = f"{block.family}:{block.schedule}"
                if axes:
                    label = f"{label}[{axes}]"
            if groups and groups[-1][0] == label:
                groups[-1][1].append(scenario)
            else:
                groups.append((label, [scenario]))
        return groups

    def _run_serial(
        self,
        scenarios: list[Scenario],
        tracer: Tracer | None = None,
        meter: ProgressMeter | None = None,
    ) -> list[ScenarioResult]:
        if tracer is None and meter is None:
            return run_scenarios(scenarios)
        results: list[ScenarioResult] = []
        for label, group in self._block_groups(scenarios):
            with maybe_span(tracer, "block", label=label, scenarios=len(group)):
                done: list[ScenarioResult | None] = [None] * len(group)
                for job in plan_scenarios(group):
                    done[job.position] = job()
                    if meter is not None:
                        meter.advance()
                results.extend(done)
        return results

    def _run_kernel(
        self,
        scenarios: list[Scenario],
        tracer: Tracer | None = None,
        meter: ProgressMeter | None = None,
    ) -> list[ScenarioResult]:
        if self.kernel is None:
            from repro.campaign.ablation.kernels import KernelEngine

            # Kept on the runner so re-runs (e.g. warm-cache sweeps) reuse
            # the calibrated cell templates; callers with longer lifetimes
            # (the refine prober) pass their own shared engine instead.
            self.kernel = KernelEngine()
        if tracer is not None and getattr(self.kernel, "tracer", None) is None:
            self.kernel.tracer = tracer
        return self.kernel.run(scenarios, meter=meter)

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def _resolve_backend(self, selected: int) -> str:
        """The backend that will actually run ``selected`` scenarios."""
        if self.backend != "process":
            return self.backend
        if not fork_available():  # pragma: no cover - platform dependent
            return "serial"
        if self.pool is None and selected < MIN_PROCESS_SCENARIOS:
            # Fork overhead would dominate a pool opened for this run alone.
            # An explicit pool is an opt-in to amortized dispatch: its fork
            # cost is paid once across every run that follows.
            return "serial"
        return "process"

    # ------------------------------------------------------------------
    # incremental result cache
    # ------------------------------------------------------------------
    def _consult_cache(
        self, indices: list[int]
    ) -> tuple[dict[int, ScenarioResult], list[tuple[str, int, int]]]:
        """Partition the selection against the cache.

        Returns ``(hits, pending)``: per-index results served from cache
        (rebased to global indices) and the ``(key, start, size)`` of every
        fully-selected-but-missed block to store after the run.  Only
        fully-selected blocks participate either way — a partial block's
        results would not verify the whole block.
        """
        hits: dict[int, ScenarioResult] = {}
        pending: list[tuple[str, int, int]] = []
        index_set = set(indices)
        for start, size, block in self.matrix.block_ranges():
            if size == 0 or not all(
                start + offset in index_set for offset in range(size)
            ):
                continue
            key = self.cache.block_key(block.describe(), size)
            cached = self.cache.get(key, size)
            if cached is None:
                pending.append((key, start, size))
            else:
                for local, result in enumerate(cached):
                    hits[start + local] = replace(result, index=start + local)
        return hits, pending

    def _store_blocks(
        self,
        pending: list[tuple[str, int, int]],
        ran: dict[int, ScenarioResult],
    ) -> None:
        """Store every pending block's freshly-run (verified) results."""
        for key, start, size in pending:
            block_results = [
                replace(ran[start + offset], index=offset)
                for offset in range(size)
            ]
            self.cache.put(key, block_results)

    def run(self) -> CampaignReport:
        """Run the selection and fold its results into a report."""
        with maybe_span(self.tracer, "campaign.run"):
            start = time.perf_counter()
            ran = self.run_selection()
            elapsed = time.perf_counter() - start
            report = CampaignReport(
                **ran._asdict(), elapsed_seconds=elapsed, wall_seconds=elapsed
            )
            with maybe_span(self.tracer, "campaign.fold", scenarios=len(ran.results)):
                return _fold_results(report)

    def run_selection(self) -> SelectionRun:
        """Expand the selection, serve what the cache holds, dispatch the
        rest and store the fresh blocks — :meth:`run` without the report
        (all a bisection probe needs)."""
        tracer = self.tracer
        total = len(self.matrix)
        # Normalize no-op selections so the digest reflects the *effective*
        # coverage: limit >= total and shard 1/1 are full runs.
        limit = self.limit if self.limit is not None and self.limit < total else None
        shard = self.shard if self.shard is not None and self.shard[1] > 1 else None
        with maybe_span(tracer, "campaign.expand"):
            indices = self.matrix.selection(limit=limit, shard=shard)
            matrix_digest = self.matrix.digest()

        hits: dict[int, ScenarioResult] = {}
        pending: list[tuple[str, int, int]] = []
        if self.cache is not None:
            if tracer is not None:
                self.cache.tracer = tracer
            with maybe_span(tracer, "campaign.cache"):
                hits, pending = self._consult_cache(indices)
        to_run = [i for i in indices if i not in hits] if hits else indices
        backend = self._resolve_backend(len(to_run))
        meter: ProgressMeter | None = None
        if tracer is not None or self.progress is not None:
            meter = ProgressMeter(
                total=len(indices), callback=self.progress, tracer=tracer
            )
            if hits:
                meter.advance(len(hits))
        if backend != "process":
            workers = 1
        elif self.pool is not None:
            workers = self.pool.workers
        else:
            workers = self.workers
        if self.pool is not None and self.matrix.spec is None:
            # add_block after construction cleared the rebuild recipe
            raise ValueError(
                "pool reuse needs a rebuildable matrix: the matrix was "
                "modified after this runner was constructed, clearing "
                "its rebuild spec"
            )
        with maybe_span(
            tracer,
            "campaign.dispatch",
            backend=backend,
            scenarios=len(to_run),
            workers=workers,
        ):
            if not to_run:  # fully cache-warm: nothing to expand or fork for
                fresh = []
            else:
                subset = to_run if len(to_run) < total else None
                scenarios = list(self.matrix.scenarios(indices=subset))
                if backend == "process":
                    # Inherited by the pool's workers if it forks for this run.
                    share_rows(matrix_digest, scenarios)
                    lifetime = (
                        nullcontext(self.pool)
                        if self.pool is not None
                        else WorkerPool(self.workers)
                    )
                    with lifetime as pool:
                        fresh = pool.run_indices(
                            self.matrix.spec,
                            matrix_digest,
                            to_run,
                            fork_keys(scenarios),
                            tracer=tracer,
                            meter=meter,
                        )
                elif backend == "kernel":
                    fresh = self._run_kernel(scenarios, tracer=tracer, meter=meter)
                else:
                    fresh = self._run_serial(scenarios, tracer=tracer, meter=meter)
        if pending or hits:
            ran = {result.index: result for result in fresh}
        if pending:
            with maybe_span(tracer, "campaign.store", blocks=len(pending)):
                self._store_blocks(pending, ran)
        if hits:
            results = [
                hits[index] if index in hits else ran[index]
                for index in indices
            ]
        else:
            results = fresh
        if meter is not None:
            meter.finish()
        return SelectionRun(
            results, len(hits), backend, workers, matrix_digest, total, limit, shard
        )


def merge_reports(reports: Iterable[CampaignReport]) -> CampaignReport:
    """Recombine shard reports into one, with a recomputed run digest.

    The shards must come from the same matrix (equal ``matrix_digest`` and
    ``total_scenarios``) and the same pre-shard ``limit``, and must not
    overlap.  Results are re-sorted into global index order, so when the
    shards cover the whole selection the merged ``run_digest`` is
    byte-identical to the unsharded run's.  A partial merge (missing
    shards) is allowed but self-evident: its coverage count — folded into
    the digest preamble — cannot match any fuller run.

    ``elapsed_seconds`` sums the shards (total compute, not wall clock);
    ``workers`` sums too, as the aggregate parallelism.  ``wall_seconds``
    records the merge step's own wall clock, so the two timings stop
    masquerading as one another in ``summary()``.
    """
    merge_start = time.perf_counter()
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge: empty report list")
    first = reports[0]
    for other in reports[1:]:
        if other.matrix_digest != first.matrix_digest:
            raise ValueError(
                "cannot merge reports from different matrices: "
                f"{first.matrix_digest[:16]} vs {other.matrix_digest[:16]}"
            )
        if other.total_scenarios != first.total_scenarios:
            raise ValueError(
                "cannot merge reports with different matrix sizes: "
                f"{first.total_scenarios} vs {other.total_scenarios}"
            )
        if other.limit != first.limit:
            raise ValueError(
                "cannot merge reports with different limits: "
                f"{first.limit} vs {other.limit}"
            )
    results = sorted(
        (result for report in reports for result in report.results),
        key=lambda result: result.index,
    )
    indices = [result.index for result in results]
    if len(set(indices)) != len(indices):
        raise ValueError("overlapping shards: duplicate scenario indices")

    merged = CampaignReport(
        backend="merged",
        workers=sum(report.workers for report in reports),
        matrix_digest=first.matrix_digest,
        total_scenarios=first.total_scenarios,
        limit=first.limit,
        shard=None,
        elapsed_seconds=sum(report.elapsed_seconds for report in reports),
        cache_hits=sum(report.cache_hits for report in reports),
        results=results,
    )
    merged = _fold_results(merged)
    merged.wall_seconds = time.perf_counter() - merge_start
    return merged
