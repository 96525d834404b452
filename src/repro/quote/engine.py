"""The three-tier quote engine.

One question-shaped entry point — :meth:`QuoteEngine.quote` — behind a
ladder of progressively more expensive answer paths:

- **tier 1, closed forms** (µs–ms): the §5.2 families at their named
  stages have exact analytic π* (:func:`~repro.campaign.ablation.grid.
  closed_form_pi_star`, per family and coalition); a ``pre-stake`` shock
  finds nothing staked, so no premium deters and the quote is the
  un-hedgeable verdict without measuring anything.
- **tier 2, row lookup** (ms): a content-addressed read of one refined
  frontier row from the shared :class:`~repro.campaign.cache.
  ResultCache` — warmed by any prior ``ablate-refine`` run (a CLI sweep
  or a tier-3 fallback), keyed by the same code-version discipline as
  the probe-block cache.
- **tier 3, measurement** (s): synthesize a narrow single-cell
  ``ablate-refine`` :class:`~repro.campaign.experiment.ExperimentSpec`
  (kernel engine, bisection bracket centered on the analytic hint) and
  run it through the experiment facade, which stores the refined rows
  back — so the *second* identical quote is a tier-2 hit.

Tiers 2 and 3 stamp the same ``refined|<row descriptor>`` provenance and
read byte-identical row payloads, so a cache hit and a fresh measurement
of one request produce the same quote digest.  ``tier`` and
``latency_ms`` record which rung answered and how fast; both live
outside the digest (see :meth:`~repro.quote.quote.Quote.digest`).
"""

from __future__ import annotations

import time

from repro.campaign.ablation.bounds import EXPAND_CEILING
from repro.campaign.ablation.grid import (
    ABLATION_FAMILIES,
    closed_form_pi_star,
    premium_base,
)
from repro.campaign.ablation.rowstore import load_row, row_descriptor
from repro.campaign.cache import ResultCache
from repro.obs.tracer import maybe_inc, maybe_span

from repro.quote.analytic import analytic_pi_star_hint
from repro.quote.quote import Quote, quote_for, smallest_premium
from repro.quote.request import QuoteError, QuoteRequest
from repro.quote.schedule import deposit_schedule

#: the tier ladder a quote descends by default: cheapest answer first.
ALL_TIERS = (1, 2, 3)

#: the tier-3 bracket's fallback upper probe when no analytic hint
#: exists: one lattice step above the default grid's densest band.
FALLBACK_HI = 0.08


class QuoteEngine:
    """Prices :class:`QuoteRequest` s through the tier ladder.

    ``cache`` is the shared result cache tier 2 reads and tier 3 writes
    through (without one, tier 2 always misses and tier 3 measurements
    are not remembered); ``tracer`` instruments per-tier spans and the
    ``quote.tier{n}`` counters; ``kernel`` is a caller-owned
    :class:`~repro.campaign.ablation.kernels.KernelEngine` reused across
    tier-3 runs so repeated fallbacks skip template recalibration.  All
    three are observability/performance knobs: quotes are byte-identical
    with or without them.
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        tracer=None,
        kernel=None,
    ) -> None:
        self.cache = cache
        self.tracer = tracer
        self._kernel = kernel
        if cache is not None and tracer is not None and cache.tracer is None:
            # Same binding the campaign runner performs: the cache's
            # hit/miss counters belong to whichever run attached first.
            cache.tracer = tracer

    # ------------------------------------------------------------------
    # the ladder
    # ------------------------------------------------------------------
    def quote(
        self, request: QuoteRequest, tiers: tuple[int, ...] = ALL_TIERS
    ) -> Quote:
        """Price one request through the first tier that can answer.

        ``tiers`` restricts the ladder (e.g. ``(3,)`` forces a fresh
        measurement, ``(1, 2)`` forbids falling back to one); a request
        no permitted tier can answer raises :class:`QuoteError`.
        """
        unknown = sorted(set(tiers) - set(ALL_TIERS))
        if unknown:
            raise QuoteError(f"unknown quote tiers {unknown}; valid: 1, 2, 3")
        # perf_counter is observability-only: latency_ms never enters the
        # quote digest (see Quote.digest).
        start = time.perf_counter()
        with maybe_span(
            self.tracer,
            "quote",
            family=request.cell_family,
            coalition=request.coalition,
            stage=request.stage,
        ):
            for tier in (1, 2, 3):
                if tier not in tiers:
                    continue
                answer = getattr(self, f"_tier{tier}")(request)
                if answer is None:
                    continue
                pi_star, provenance = answer
                maybe_inc(self.tracer, f"quote.tier{tier}")
                return self._assemble(
                    request, pi_star, provenance, tier, start
                )
        raise QuoteError(
            f"no permitted tier {tuple(tiers)} could answer "
            f"(family={request.cell_family!r}, stage={request.stage!r}); "
            "tier 2 needs a warm cache, tier 3 answers anything"
        )

    def _assemble(
        self,
        request: QuoteRequest,
        pi_star: float | None,
        provenance: str,
        tier: int,
        start: float,
    ) -> Quote:
        # Built once (a Quote checks its fields when built), schedule shared
        # per (family, premium); latency is stamped before digest and build.
        family = request.cell_family
        base = premium_base(family)
        premium = smallest_premium(pi_star, base)
        return quote_for(
            request,
            pi_star=pi_star,
            base=base,
            provenance=provenance,
            schedule=deposit_schedule(family, premium) if premium is not None else (),
            tier=tier,
            latency_ms=(time.perf_counter() - start) * 1000.0,
        )

    def _descriptor(self, request: QuoteRequest) -> str:
        return row_descriptor(
            request.cell_family,
            request.coalition,
            request.stage,
            request.shock,
            request.tol,
            request.seed,
        )

    # ------------------------------------------------------------------
    # tier 1: closed forms
    # ------------------------------------------------------------------
    def _tier1(self, request: QuoteRequest):
        family = request.cell_family
        if family not in ABLATION_FAMILIES:
            return None
        with maybe_span(self.tracer, "quote.tier1", family=family):
            label = request.coalition or "pivot"
            if request.stage == "pre-stake":
                # Nothing is staked yet, so walking forfeits nothing:
                # no premium deters, at any shock — the analytic
                # un-hedgeable verdict (measured by test_quote_parity).
                return None, f"closed-form|{family}|{label}|pre-stake"
            if request.stage != "staked":
                # round:K stages sit between the closed forms' anchor
                # points; only measurement answers them.
                return None
            pi_star = closed_form_pi_star(
                family, request.shock, request.coalition
            )
            return pi_star, f"closed-form|{family}|{label}"

    # ------------------------------------------------------------------
    # tier 2: content-addressed row lookup
    # ------------------------------------------------------------------
    def _tier2(self, request: QuoteRequest):
        if self.cache is None:
            return None
        descriptor = self._descriptor(request)
        with maybe_span(self.tracer, "quote.tier2", family=request.cell_family):
            row = load_row(self.cache, descriptor)
        if row is None:
            return None
        return row.pi_star, f"refined|{descriptor}"

    # ------------------------------------------------------------------
    # tier 3: narrow measurement fallback
    # ------------------------------------------------------------------
    def _bracket_hi(self, request: QuoteRequest) -> float:
        """The upper lattice probe tier 3 brackets with.

        Centered on the best analytic estimate — the closed form for
        named families, the stake-slope hint for graphs — doubled so the
        true boundary lands inside the bracket even when quantization
        pushes it above the estimate.  Without a hint (round:K stages,
        coalitions), the default-grid ceiling; the refinement's upward
        doubling covers anything beyond either choice.
        """
        family = request.cell_family
        if family in ABLATION_FAMILIES:
            hint = closed_form_pi_star(family, request.shock, request.coalition)
        else:
            hint = analytic_pi_star_hint(family, request.shock)
        if hint is None or hint <= 0:
            return FALLBACK_HI
        return min(EXPAND_CEILING, max(0.04, 2.0 * hint))

    def _tier3(self, request: QuoteRequest):
        from repro.campaign.experiment import Experiment, refine_spec

        family = request.cell_family
        descriptor = self._descriptor(request)
        spec = refine_spec(
            families=(family,),
            premium_fractions=(0.0, self._bracket_hi(request)),
            shock_fractions=(request.shock,),
            stages=(request.stage,),
            coalitions=bool(request.coalition),
            seed=request.seed,
            tol=request.tol,
            engine="kernel",
        )
        with maybe_span(self.tracer, "quote.tier3", family=family):
            experiment = Experiment(
                spec,
                cache=self.cache,
                tracer=self.tracer,
                kernel=self._kernel,
            )
            result = experiment.run()
        row = result.refined.row(
            family, request.stage, request.shock, request.coalition
        )
        if not row.converged and row.pi_hi is not None:
            raise QuoteError(
                f"tier-3 bisection did not converge for {descriptor} "
                f"(bracket [{row.pi_lo}, {row.pi_hi}] after "
                f"{row.iterations} iterations); loosen tol"
            )
        return row.pi_star, f"refined|{descriptor}"
