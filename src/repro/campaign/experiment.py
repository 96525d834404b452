"""Declarative experiments: one spec, one entry point, every engine.

PRs 1–4 grew three parallel engines — the adversarial campaign, the
rational-adversary ablation lattice, and the bisected frontier refinement
— each wired to its own CLI flags.  The two remaining ROADMAP scale items
(the incremental result cache, multi-host orchestration) both need the
same missing object: a *serializable, digest-covered description of an
entire experiment* that can key a store, ride over ssh, and replay
byte-identically.  That object is :class:`ExperimentSpec`:

- ``kind`` selects the engine (``campaign`` / ``ablate`` /
  ``ablate-refine``),
- ``matrix`` is a :class:`~repro.campaign.pool.MatrixSpec` — a registered
  factory name plus primitive parameters, the same rebuild recipe worker
  pools already audit by structural digest; every grid knob (premium and
  shock fractions, stages, coalitions, seed, families) lives in it,
- ``limit``/``shard`` carry the selection, ``backend``/``workers`` the
  execution layout, ``tol`` the refinement tolerance,
- ``expect`` carries optional ``(report kind → digest)`` assertions, so a
  spec can state the digests its run must reproduce.

:meth:`ExperimentSpec.digest` hashes only the *result-determining* fields
(kind, matrix, selection, tolerance) — backend, workers, and expectations
are excluded because scenario outcomes are backend-invariant (the
campaign engine's proven contract), so one spec digest names one result
regardless of where or how parallel it ran.

:class:`Experiment` is the facade: ``run()`` builds the matrix through
the audited factory registry, dispatches to the right engine, threads a
persistent :class:`~repro.campaign.pool.WorkerPool` and the incremental
:class:`~repro.campaign.cache.ResultCache` through every stage (lattice
and bisection probes alike), verifies ``expect``, and returns an
:class:`ExperimentResult` holding reports that all conform to the common
:mod:`~repro.campaign.report` protocol.

The CLI's ``campaign``/``ablate``/``ablate-refine`` subcommands are
aliases for ``spec KIND`` + ``run``: they build the spec from the same
flags and run it through this facade and the same output tail, which is
what makes ``spec``-driven and flag-driven runs byte-identical by
construction.  ``ablate-refine --from FRONTIER.json`` skips the lattice
and enters the facade's refine stage (:func:`refine_stage`) directly.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from hashlib import sha256
from typing import Annotated, Iterable

from repro import codec
from repro.campaign.ablation.bounds import DEFAULT_TOL, Tol
from repro.campaign.cache import ResultCache
from repro.campaign.matrix import ScenarioMatrix, validate_shard
from repro.campaign.pool import MatrixSpec, WorkerPool
from repro.codec import Interval, OneOf
from repro.errors import DecodeError

EXPERIMENT_KINDS = ("campaign", "ablate", "ablate-refine")

#: the report kind a given experiment kind's ``--expect`` digest refers to.
PRIMARY_KINDS = {
    "campaign": "campaign",
    "ablate": "frontier",
    "ablate-refine": "refined-frontier",
}

EXPERIMENT_BACKENDS = ("serial", "process", "pooled")

#: ``simulator`` replays every scenario through the full protocol engine;
#: ``kernel`` routes ablation scenarios through the payoff
#: kernels (:mod:`repro.campaign.ablation.kernels`), which produce
#: byte-identical results and digests.  The engine is recorded in the spec
#: digest (only when non-default, so pre-engine stamped specs still
#: verify); ``backend``/``workers`` are ignored under ``kernel`` — the
#: kernel engine is single-process by design.
EXPERIMENT_ENGINES = ("simulator", "kernel")


class ExperimentError(ValueError):
    """A spec could not be honored (bad fields, digest expectation miss)."""


def _matrix_json(matrix: MatrixSpec) -> dict:
    """A matrix recipe's JSON object: ``kwargs`` is an object on disk."""
    data = codec.encode(matrix)
    data["kwargs"] = dict(data["kwargs"])
    return data


def _unpair(data: dict) -> dict:
    """The inverse for a spec's JSON object: its ``expect`` and matrix
    ``kwargs`` objects become the sorted ``[name, value]`` pairs it holds."""
    matrix = data.get("matrix")
    matrix = matrix if isinstance(matrix, dict) else {}
    for parent, key, path in ((data, "expect", "expect"), (matrix, "kwargs", "matrix.kwargs")):
        if key in parent:
            if not isinstance(parent[key], dict):
                raise DecodeError(f"must be a JSON object, got {parent[key]!r:.60}", path)
            parent[key] = sorted([name, value] for name, value in parent[key].items())
    return data


def _malformed(message: str) -> ExperimentError:
    return ExperimentError(f"malformed experiment spec: {message}")


#: a count of workers or of scenarios.
AT_LEAST_ONE = Interval(1, what="at least 1")


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, serializable description of one experiment."""

    kind: Annotated[str, OneOf(EXPERIMENT_KINDS, "experiment kind")]
    matrix: MatrixSpec
    backend: Annotated[str, OneOf(EXPERIMENT_BACKENDS, "backend")] = "serial"
    workers: Annotated[int, AT_LEAST_ONE] | None = None
    limit: Annotated[int, AT_LEAST_ONE] | None = None
    shard: tuple[int, int] | None = None
    #: bisection tolerance; only meaningful (and only set) for ablate-refine.
    tol: Tol | None = None
    #: scenario engine: ``simulator`` or ``kernel`` (ablation kinds only).
    engine: Annotated[str, OneOf(EXPERIMENT_ENGINES, "engine")] = "simulator"
    #: (report kind, digest) assertions the run must reproduce.
    expect: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        codec.check(self, ExperimentError)
        if self.engine == "kernel" and self.kind == "campaign":
            raise ExperimentError(
                "the kernel engine covers only the ablation kinds "
                "(ablate, ablate-refine); campaign specs run the simulator"
            )
        if self.shard is not None:
            validate_shard(self.shard)
        if self.tol is not None and self.kind != "ablate-refine":
            raise ExperimentError("tol applies only to ablate-refine specs")
        if self.kind == "ablate-refine" and (
            self.limit is not None or self.shard is not None
        ):
            raise ExperimentError(
                "ablate-refine needs full lattice coverage: limit/shard "
                "selections cannot refine (shard the ablate lattice, merge, "
                "then refine the merged frontier)"
            )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """The spec's identity: a hash of its result-determining fields.

        ``backend``/``workers`` are excluded (results are
        backend-invariant), and so is ``expect`` (assertions about the
        result are not part of what runs).  Two specs share a digest iff
        they describe the same scenarios, selection, and reduction.
        """
        payload = {
            "kind": self.kind,
            "matrix": _matrix_json(self.matrix),
            "limit": self.limit,
            "shard": list(self.shard) if self.shard else None,
            "tol": self.tol,
        }
        if self.engine != "simulator":
            # Included only when non-default so specs stamped before the
            # engine field existed keep verifying their recorded digest.
            # The engine is nonetheless result-determining *in principle*
            # (it selects the execution path the digests must survive), so
            # a non-default choice is part of the spec's identity.
            payload["engine"] = self.engine
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return sha256(f"experiment-spec|{text}".encode()).hexdigest()

    def expected(self, report_kind: str) -> str | None:
        for kind, digest in self.expect:
            if kind == report_kind:
                return digest
        return None

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        data = codec.encode(self)
        data["matrix"] = _matrix_json(self.matrix)
        data["expect"] = dict(data["expect"])
        data["digest"] = self.digest()
        return json.dumps(data, indent=2, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return codec.load_stamped(cls, text, _malformed, "an experiment spec", _unpair)


# ----------------------------------------------------------------------
# spec builders (behind `spec KIND` and the `KIND` CLI aliases)
# ----------------------------------------------------------------------
def _exec_fields(backend, workers, limit, shard, expect):
    return dict(
        backend=backend,
        workers=workers,
        limit=limit,
        shard=shard,
        expect=tuple(sorted(expect)) if expect else (),
    )


def campaign_spec(
    families: Iterable[str] | None = None,
    seed: int = 0,
    max_adversaries: int | None = None,
    backend: str = "serial",
    workers: int | None = None,
    limit: int | None = None,
    shard: tuple[int, int] | None = None,
    expect: Iterable[tuple[str, str]] = (),
) -> ExperimentSpec:
    """A spec for the standard all-families adversarial campaign.

    The ``matrix`` recipe is the factory's own normalized rebuild recipe
    (:func:`~repro.campaign.families.default_matrix_spec`), computed
    without expanding any blocks — emitting a spec is cheap no matter how
    large the matrix it describes.
    """
    from repro.campaign.families import default_matrix_spec

    return ExperimentSpec(
        kind="campaign",
        matrix=default_matrix_spec(
            families=families, seed=seed, max_adversaries=max_adversaries
        ),
        **_exec_fields(backend, workers, limit, shard, expect),
    )


def _ablation_matrix_spec(
    families, premium_fractions, shock_fractions, stages, coalitions, seed
) -> MatrixSpec:
    from repro.campaign.ablation.grid import ablation_matrix_spec

    return ablation_matrix_spec(
        families=families,
        premium_fractions=premium_fractions,
        shock_fractions=shock_fractions,
        stages=stages,
        coalitions=coalitions,
        seed=seed,
    )


def ablate_spec(
    families: Iterable[str] | None = None,
    premium_fractions: Iterable[float] | None = None,
    shock_fractions: Iterable[float] | None = None,
    stages: Iterable[str] | None = None,
    coalitions: bool = False,
    seed: int = 0,
    backend: str = "serial",
    workers: int | None = None,
    shard: tuple[int, int] | None = None,
    engine: str = "kernel",
    expect: Iterable[tuple[str, str]] = (),
) -> ExperimentSpec:
    """A spec for the rational-adversary ablation lattice.

    ``engine`` defaults to the payoff kernels — the results
    and digests are byte-identical to the simulator's (a contract CI's
    parity audit enforces on every default-grid cell), so the fast path
    is the default; pass ``engine="simulator"`` for the audit path.
    """
    return ExperimentSpec(
        kind="ablate",
        matrix=_ablation_matrix_spec(
            families, premium_fractions, shock_fractions, stages, coalitions, seed
        ),
        engine=engine,
        **_exec_fields(backend, workers, None, shard, expect),
    )


def refine_spec(
    families: Iterable[str] | None = None,
    premium_fractions: Iterable[float] | None = None,
    shock_fractions: Iterable[float] | None = None,
    stages: Iterable[str] | None = None,
    coalitions: bool = False,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    backend: str = "serial",
    workers: int | None = None,
    engine: str = "kernel",
    expect: Iterable[tuple[str, str]] = (),
) -> ExperimentSpec:
    """A spec for the bisected (continuous) frontier refinement.

    ``engine`` defaults to the kernels (see :func:`ablate_spec`): both
    the lattice and every bisection probe run through one shared
    :class:`~repro.campaign.ablation.kernels.KernelEngine`, so probe
    cells reuse the lattice's calibrated templates.
    """
    return ExperimentSpec(
        kind="ablate-refine",
        matrix=_ablation_matrix_spec(
            families, premium_fractions, shock_fractions, stages, coalitions, seed
        ),
        tol=tol,
        engine=engine,
        **_exec_fields(backend, workers, None, None, expect),
    )


# ----------------------------------------------------------------------
# the facade
# ----------------------------------------------------------------------
@dataclass
class ExperimentResult:
    """Every report one experiment produced, primary last-reduced first."""

    spec: ExperimentSpec
    campaign: "object | None" = None
    frontier: "object | None" = None
    refined: "object | None" = None
    #: scenarios served from the result cache (lattice + bisection probes).
    cache_hits: int = 0

    @property
    def primary(self):
        """The most-reduced report the run produced — what ``--expect``
        and the CLI's headline digest refer to."""
        for report in (self.refined, self.frontier, self.campaign):
            if report is not None:
                return report
        raise ExperimentError("experiment produced no report")

    @property
    def reports(self) -> tuple:
        return tuple(
            report
            for report in (self.campaign, self.frontier, self.refined)
            if report is not None
        )

    @property
    def ok(self) -> bool:
        return self.campaign is None or self.campaign.ok


class Experiment:
    """Run an :class:`ExperimentSpec` through the right engine.

    ``pool`` supplies a caller-owned persistent worker pool (left open);
    with ``backend="pooled"`` and no pool, the facade creates one for the
    run and closes it after.  ``cache`` is the incremental result cache,
    threaded through the campaign run *and* every refinement probe; when
    attached, an ``ablate-refine`` run also stores its refined rows in
    the quote row store (:mod:`repro.campaign.ablation.rowstore`), so any
    refinement warms the quote engine's tier-2 path.
    ``matrix`` short-circuits the factory rebuild when the caller already
    built it (the CLI prints the breakdown first).  ``kernel`` supplies a
    caller-owned :class:`~repro.campaign.ablation.kernels.KernelEngine`
    so repeated narrow runs (the quote engine's tier-3 fallbacks) reuse
    calibrated cell templates across experiments.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        pool: WorkerPool | None = None,
        cache: ResultCache | None = None,
        matrix: ScenarioMatrix | None = None,
        tracer=None,
        progress=None,
        kernel=None,
    ) -> None:
        self.spec = spec
        self.pool = pool
        self.cache = cache
        self.kernel = kernel
        self._matrix = matrix
        #: optional repro.obs.Tracer / ProgressUpdate callback, threaded
        #: through the runner, cache, kernel engine, and refine probes.
        #: Observability only: traced runs are byte-identical to untraced.
        self.tracer = tracer
        self.progress = progress

    def matrix(self) -> ScenarioMatrix:
        """Build (or reuse) the spec's matrix via the audited registry."""
        if self._matrix is None:
            self._matrix = self.spec.matrix.build()
        return self._matrix

    def run(self) -> ExperimentResult:
        from repro.obs.tracer import maybe_span

        with maybe_span(self.tracer, "experiment", kind=self.spec.kind):
            return self._run_traced()

    def _run_traced(self) -> ExperimentResult:
        from repro.campaign.ablation.frontier import reduce_frontier
        from repro.campaign.runner import CampaignRunner
        from repro.obs.tracer import maybe_span

        spec = self.spec
        with maybe_span(self.tracer, "experiment.build"):
            matrix = self.matrix()
        layout = _execution(spec, self.pool, self.kernel, self.tracer)
        with layout as (pool, kernel):
            if kernel is not None:
                runner_backend = "kernel"
            elif spec.backend == "pooled":
                runner_backend = "process"
            else:
                runner_backend = spec.backend
            report = CampaignRunner(
                matrix,
                backend=runner_backend,
                workers=spec.workers if kernel is None and pool is None else None,
                limit=spec.limit,
                shard=spec.shard,
                pool=pool,
                cache=self.cache,
                kernel=kernel,
                tracer=self.tracer,
                progress=self.progress,
            ).run()
            result = ExperimentResult(
                spec, campaign=report, cache_hits=report.cache_hits
            )
            if spec.kind in ("ablate", "ablate-refine") and report.complete:
                with maybe_span(self.tracer, "experiment.reduce"):
                    result.frontier = reduce_frontier(report)
            if spec.kind == "ablate-refine" and report.ok:
                result.refined, probe_hits = refine_stage(
                    spec,
                    result.frontier,
                    pool=pool,
                    kernel=kernel,
                    cache=self.cache,
                    tracer=self.tracer,
                )
                result.cache_hits += probe_hits
        self._check_expectations(result)
        return result

    def _check_expectations(self, result: ExperimentResult) -> None:
        produced = {type(r).kind: r.digest for r in result.reports}
        for kind, expected in self.spec.expect:
            actual = produced.get(kind)
            if actual is None:
                raise ExperimentError(
                    f"spec expects a {kind!r} digest but the run produced "
                    f"only {sorted(produced)} (partial coverage? merge the "
                    "shards, then check)"
                )
            if actual != expected:
                raise ExperimentError(
                    f"digest mismatch for {kind!r}: run produced {actual} "
                    f"but the spec expects {expected}"
                )


@contextmanager
def _execution(spec: ExperimentSpec, pool=None, kernel=None, tracer=None):
    """Yield the ``(pool, kernel)`` pair a spec's stages execute on.

    The kernel engine is single-process by design: ``backend`` and
    ``workers`` describe simulator process layout and are ignored
    (results are engine-invariant, so the digests the run must reproduce
    do not change).  One engine serves the lattice run and every
    bisection probe, so probes reuse the lattice's calibrated cell
    templates.  A ``pooled`` simulator spec without a caller-owned pool
    gets one for the duration.
    """
    if spec.engine == "kernel":
        from repro.campaign.ablation.kernels import KernelEngine

        yield None, kernel if kernel is not None else KernelEngine(tracer=tracer)
    elif spec.backend == "pooled" and pool is None:
        own_pool = WorkerPool(workers=spec.workers)
        try:
            yield own_pool, None
        finally:
            own_pool.close()
    else:
        yield pool, None


def refine_stage(
    spec: ExperimentSpec,
    frontier,
    pool: WorkerPool | None = None,
    kernel=None,
    cache: ResultCache | None = None,
    tracer=None,
):
    """Bisect a lattice ``frontier`` under ``spec``'s engine and ``tol``.

    The one refine step behind :class:`Experiment` and the CLI's
    ``ablate-refine --from``: it builds the cell prober on the spec's
    execution layout (or the caller's ``pool``/``kernel``), refines every
    row, and — with a ``cache`` attached — stores the refined rows in the
    quote row store, so any refinement warms the quote engine's tier-2
    path.  Returns ``(refined report, scenarios served from the cache)``.
    """
    from repro.campaign.ablation.refine import _CellProber, refine_frontier
    from repro.campaign.ablation.rowstore import store_refined_rows
    from repro.obs.tracer import maybe_span

    with _execution(spec, pool, kernel, tracer) as (pool, kernel):
        prober = _CellProber(pool=pool, cache=cache, kernel=kernel, tracer=tracer)
        with maybe_span(tracer, "experiment.refine"):
            refined = refine_frontier(
                frontier,
                tol=spec.tol if spec.tol is not None else DEFAULT_TOL,
                prober=prober,
            )
    if cache is not None:
        # Keyed by grid coordinates + tol + seed: every refined row this
        # run measured becomes a tier-2 answer for the quote engine.
        store_refined_rows(
            cache, refined, seed=dict(spec.matrix.kwargs).get("seed", 0)
        )
    return refined, prober.cache_hits
