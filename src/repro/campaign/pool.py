"""The campaign's process pool: one fork pool, two lifetimes.

:class:`WorkerPool` runs a selection of a matrix's scenarios in forked
workers.  ``CampaignRunner(backend="process")`` opens one for a single
run and closes it afterwards; a caller that passes ``pool=`` keeps the
same object alive across runs (benchmarks, multi-matrix campaigns,
sharded sweeps) and pays the fork once.

Workers find scenarios in a worker-side table keyed by the matrix's
structural digest.  Before a pool forks, the parent puts the rows it
expanded into that table (:func:`share_rows`), so workers inherit them
through fork: builders and strategy transforms never need to be
picklable, and a matrix without a rebuild recipe still runs.  A worker
that later meets a matrix or an index it did not inherit rebuilds the
whole matrix from its :class:`MatrixSpec` — a tiny picklable recipe (a
registered factory name plus primitive arguments) — and checks the
rebuilt matrix's structural digest against the one the task names, so
structural drift between parent and worker fails loudly.  The structural
digest cannot see parameters captured inside builder closures (see
:meth:`ScenarioMatrix.digest`), so a registered factory must build its
matrix purely from its arguments — not from mutable module state — for
the check to mean what it says.  Tasks cross the process boundary as
``(spec | None, matrix_digest, indices, metered)`` tuples.

Factories register under a short name — ``default`` is
:func:`repro.campaign.families.default_matrix`, ``ablation`` is
:func:`repro.campaign.ablation.ablation_matrix` — and anything importable
at worker startup can register its own via :func:`register_matrix_factory`
(plain call or decorator).  The *registry audit* in a worker-side rebuild
makes bespoke factories first-class: the worker verifies the named
factory is registered (importing the standard factory modules on demand)
and that the rebuilt matrix reproduces the parent's structural digest;
either failure names the factory and the full registry, so a missing
``import yourmodule`` or a non-deterministic factory fails loudly instead
of silently running the wrong matrix.

Tasks follow :func:`dispatch_layout`, which stripes indices across tasks
instead of cutting contiguous chunks: the matrix lays its blocks out side
by side and per-scenario cost differs by orders of magnitude between them
(a complete:8 multi-party swap against a two-party halt), so a contiguous
chunk can hold most of the campaign's work.  A stripe holds about 1/K of
every block.  :func:`gather` puts replies back in index order, so digests
never see the layout, and it polls worker liveness while it waits: a
worker that dies mid-task ends the run with :class:`WorkerLostError`
instead of the ``multiprocessing.Pool`` hang on a lost task.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import signal
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.campaign.matrix import ScenarioMatrix
from repro.campaign.scenario import (
    Scenario,
    ScenarioResult,
    plan_scenarios,
    run_scenarios,
)
from repro.obs.tracer import MetricsRegistry, MetricsSnapshot

_FACTORIES: dict[str, Callable[..., ScenarioMatrix]] = {}

#: modules whose import populates the registry with the shipped factories;
#: imported lazily to avoid package-level cycles (each of these imports
#: this module back for ``register_matrix_factory``).
_STANDARD_FACTORY_MODULES = (
    "repro.campaign.families",
    "repro.campaign.ablation",
)

# Worker-side scenario tables: matrix structural digest → {global index:
# scenario}.  Bounded LRU: a run's tasks all share one matrix, so a
# handful of entries covers alternating matrices without letting a long
# parameter sweep grow per-worker memory without limit.
_TABLES: dict[str, dict[int, Scenario]] = {}
_MAX_TABLES = 4


def register_matrix_factory(
    name: str, factory: Callable[..., ScenarioMatrix] | None = None
):
    """Register a matrix factory under ``name`` for worker-side rebuilds.

    Usable directly — ``register_matrix_factory("default", default_matrix)``
    — or as a decorator::

        @register_matrix_factory("ablation")
        def ablation_matrix(...): ...

    A registered factory must build its matrix purely from its arguments
    (see the module docstring); the worker-side audit verifies this by
    structural digest on every rebuild.
    """
    if factory is None:

        def decorate(fn: Callable[..., ScenarioMatrix]) -> Callable[..., ScenarioMatrix]:
            _FACTORIES[name] = fn
            return fn

        return decorate
    _FACTORIES[name] = factory
    return factory


def registered_factories() -> tuple[str, ...]:
    """The currently registered factory names (sorted), for audits."""
    return tuple(sorted(_FACTORIES))


def _audit_factory(name: str) -> Callable[..., ScenarioMatrix]:
    """Resolve a factory name, importing the standard modules on demand."""
    if name not in _FACTORIES:
        for module in _STANDARD_FACTORY_MODULES:
            importlib.import_module(module)
    if name not in _FACTORIES:
        raise KeyError(
            f"unknown matrix factory {name!r}; "
            f"registered: {list(registered_factories())} — a bespoke factory "
            "must be registered via register_matrix_factory in a module "
            "imported on the worker side"
        )
    return _FACTORIES[name]


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def default_workers() -> int:
    """The worker count both pool lifetimes use when none is requested:
    the CPUs this process may run on (its affinity set, else
    ``os.cpu_count()`` where the platform has no affinity call), at
    least 2."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platform dependent
        cpus = os.cpu_count() or 1
    return max(2, cpus)


#: dispatch tasks per worker: enough that the last task to finish is a
#: small share of any worker's load.
TASKS_PER_WORKER = 8

#: seconds between worker liveness checks while the parent waits on a reply
LIVENESS_POLL_SECONDS = 0.1


def dispatch_layout(n: int, workers: int) -> list[range]:
    """The task layout of both process paths: positions ``0..n-1`` dealt
    into ``K = workers × TASKS_PER_WORKER`` stripes (fewer when ``n < K``).

    Stripe ``j`` holds positions ``j, j+K, j+2K, …``, so it takes at most
    ``ceil(size / K)`` scenarios of any contiguous block of ``size`` and
    every task carries about 1/K of every block's cost, however unevenly
    the costs fall across blocks.  The layout depends on ``(n, workers)``
    only: no timing feedback, so a run dispatches the same way every time.
    """
    stripes = min(n, workers * TASKS_PER_WORKER)
    return [range(j, n, stripes) for j in range(stripes)]


class WorkerLostError(RuntimeError):
    """A pool worker died mid-dispatch, so the tasks it held never reply."""


def _lost_worker(
    processes: Sequence[multiprocessing.process.BaseProcess],
) -> str | None:
    for process in processes:
        code = process.exitcode
        if code is not None:
            how = (
                f"signal {signal.Signals(-code).name}"
                if code < 0
                else f"exit code {code}"
            )
            return f"pool worker pid {process.pid} died mid-dispatch ({how})"
    return None


def gather(
    pool: "multiprocessing.pool.Pool",
    tasks: list,
    groups: list[range],
    tracer=None,
    meter=None,
) -> list[ScenarioResult]:
    """Run one task per layout group on ``pool``; results in position order.

    Each task's reply (see :func:`_run_task`) is ``(results, sample)``:
    the group's results in group order and, on a metered task, the merged
    worker sample (``None`` otherwise).  Samples merge into ``tracer`` and
    ``meter`` advances by a whole group as each reply lands.

    A worker that dies mid-task takes its task with it, and
    ``multiprocessing.Pool`` would wait for that reply forever.  So the
    wait polls the workers that were alive when dispatch began, and the
    first one found dead ends the run with :class:`WorkerLostError`.
    """
    # Pool keeps its worker processes in ``_pool`` and swaps a dead one
    # for a fresh one; the snapshot keeps the dead one visible.
    processes = list(pool._pool)
    results: list[ScenarioResult | None] = [None] * sum(map(len, groups))
    replies = pool.imap(_run_task, tasks)
    for group in groups:
        while True:
            try:
                reply, sample = replies.next(timeout=LIVENESS_POLL_SECONDS)
                break
            except multiprocessing.TimeoutError:
                lost = _lost_worker(processes)
                if lost is not None:
                    raise WorkerLostError(
                        f"{lost}; the scenarios it held never reply, so "
                        "the run cannot complete"
                    ) from None
        for position, result in zip(group, reply):
            results[position] = result
        if tracer is not None and sample is not None:
            tracer.merge_snapshot(sample)
        if meter is not None:
            meter.advance(len(group))
    return results


@dataclass(frozen=True)
class MatrixSpec:
    """A picklable recipe for rebuilding a :class:`ScenarioMatrix`.

    ``kwargs`` is a sorted tuple of ``(name, value)`` pairs so the spec is
    hashable and deterministic.  Values must be primitives/tuples —
    anything :mod:`pickle` moves cheaply.
    """

    factory: str
    args: tuple = ()
    kwargs: tuple[tuple[str, Any], ...] = ()

    def build(self) -> ScenarioMatrix:
        return _audit_factory(self.factory)(*self.args, **dict(self.kwargs))


def _remember(matrix_digest: str, table: dict[int, Scenario]) -> None:
    _TABLES.pop(matrix_digest, None)
    while len(_TABLES) >= _MAX_TABLES:
        _TABLES.pop(next(iter(_TABLES)))
    _TABLES[matrix_digest] = table  # insert last: dict order is LRU order


def share_rows(matrix_digest: str, scenarios: Iterable[Scenario]) -> None:
    """Hand the parent's expanded rows of one matrix to the workers of the
    next pool that forks; they inherit the table through fork.

    The parent never reads its own table: :meth:`WorkerPool.run_indices`
    drops it once its workers exist.  Workers forked earlier never see
    these rows and rebuild from the task's spec instead.
    """
    _remember(matrix_digest, {scenario.index: scenario for scenario in scenarios})


def _scenario_table(
    spec: MatrixSpec | None, matrix_digest: str, indices: list[int]
) -> dict[int, Scenario]:
    """The worker's rows of one matrix, rebuilt from ``spec`` on a miss."""
    table = _TABLES.get(matrix_digest)
    if table is None or not all(index in table for index in indices):
        if spec is None:
            raise RuntimeError(
                f"worker has no rows of matrix {matrix_digest[:16]} and no "
                "spec to rebuild it from: only rows shared before the pool "
                "forked reach a matrix without a rebuild recipe"
            )
        # build() audits the registry first: a missing registration fails
        # with the factory name and the full registered set.
        matrix = spec.build()
        digest = matrix.digest()
        if digest != matrix_digest:
            raise RuntimeError(
                f"worker rebuilt matrix {digest[:16]} but the campaign expected "
                f"{matrix_digest[:16]}: the factory behind {spec.factory!r} "
                f"(registered: {list(registered_factories())}) is not "
                "deterministic across processes"
            )
        table = {scenario.index: scenario for scenario in matrix.scenarios()}
    _remember(matrix_digest, table)  # refresh recency either way
    return table


def _run_task(
    task: tuple[MatrixSpec | None, str, list[int], bool],
) -> tuple[list[ScenarioResult], MetricsSnapshot | None]:
    """One dispatch task: the given global indices of one matrix.

    The task runs its scenarios the way a serial run does
    (:func:`repro.campaign.scenario.plan_scenarios`), so halting scenarios
    of one block fork from one compliant base run, but only within the
    task's stripe.  A metered task runs each planned job through the
    runner's ``_run_at_metered``, looked up on the runner module per
    scenario so a wrapper installed there before the fork applies to each
    one, and folds the per-scenario samples into one reply for the parent
    tracer.  The scenario outcomes are byte-identical either way.
    """
    spec, matrix_digest, indices, metered = task
    table = _scenario_table(spec, matrix_digest, indices)
    scenarios = [table[index] for index in indices]
    if not metered:
        return run_scenarios(scenarios), None
    from repro.campaign import runner  # imported here: the runner imports us

    results: list[ScenarioResult | None] = [None] * len(scenarios)
    registry = MetricsRegistry()
    for job in plan_scenarios(scenarios):
        results[job.position], sample = runner._run_at_metered(job)
        registry.merge_snapshot(sample)
    return results, registry.snapshot()


class WorkerPool:
    """A fork-based process pool for campaign runs.

    ``CampaignRunner(backend="process")`` opens one per run by itself;
    pass one instance as ``CampaignRunner(..., pool=...)`` across several
    runs (or matrices) to pay the fork cost once.  Usable as a context
    manager; :meth:`close` tears the workers down.
    """

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers if workers is not None else default_workers()
        self._pool: multiprocessing.pool.Pool | None = None

    @property
    def started(self) -> bool:
        return self._pool is not None

    def _ensure_started(self) -> "multiprocessing.pool.Pool":
        if self._pool is None:
            if not fork_available():  # pragma: no cover - platform dependent
                raise RuntimeError("WorkerPool requires the fork start method")
            ctx = multiprocessing.get_context("fork")
            self._pool = ctx.Pool(processes=self.workers)
        return self._pool

    def run_indices(
        self,
        spec: MatrixSpec | None,
        matrix_digest: str,
        indices: list[int],
        tracer=None,
        meter=None,
    ) -> list[ScenarioResult]:
        """Run the given global scenario indices of one matrix.

        Workers take the rows from the table they inherited at fork (see
        :func:`share_rows`) and rebuild the matrix from ``spec`` on a
        miss; ``spec`` may be ``None`` only when every row was shared
        before this pool forked.

        ``tracer``/``meter`` (a :class:`repro.obs.Tracer` and
        :class:`repro.obs.ProgressMeter`) switch dispatch to metered
        tasks: progress ticks as task replies land, and each task's
        per-worker sample merges into the tracer.  Outcomes are
        byte-identical either way.

        The indices go out in :func:`dispatch_layout` stripes and come
        back in the given order.  A worker lost mid-run raises
        :class:`WorkerLostError` and tears the pool down; the next run
        forks a fresh one.
        """
        pool = self._ensure_started()
        # Workers hold their own copy of the shared rows from the fork;
        # drop the parent's rather than pin them for its lifetime.
        _TABLES.clear()
        groups = dispatch_layout(len(indices), self.workers)
        metered = tracer is not None or meter is not None
        tasks = [
            (spec, matrix_digest, [indices[p] for p in group], metered)
            for group in groups
        ]
        try:
            return gather(pool, tasks, groups, tracer, meter)
        except WorkerLostError:
            # The lost task stays pending inside the pool for good.
            self._terminate()
            raise

    def _terminate(self) -> None:
        """Kill the workers now, without waiting for pending tasks."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # close() waits for pending tasks; after an error some may never end.
        if exc_type is None:
            self.close()
        else:
            self._terminate()
