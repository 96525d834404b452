"""Batch quoting: many deals, one warm pass.

``quote_batch`` prices a sequence of requests through one
:class:`~repro.quote.engine.QuoteEngine`, grouped by (family, coalition)
cell so expensive state stays hot: tier-3 fallbacks for one cell run
back-to-back (reusing the engine's calibrated kernel templates), and the
first measurement of a repeated request turns every later duplicate into
a tier-2 hit within the same batch.  Results come back in *input* order
— grouping is an execution detail, invisible in the output — and the
batch digest hashes the member quote digests in that order, so a batch
is reproducible exactly when its members are.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Iterable, Sequence

from repro.obs.tracer import ProgressMeter, maybe_span

from repro.quote.engine import ALL_TIERS, QuoteEngine
from repro.quote.quote import Quote
from repro.quote.request import QuoteRequest


def batch_cells(
    requests: Sequence[QuoteRequest],
) -> list[tuple[tuple[str, str], list[int]]]:
    """Input indices grouped by (cell family, coalition), sorted by cell.

    The grouping key is the pair that determines which kernel templates
    and cache neighborhoods a quote touches; index lists preserve input
    order within each cell.
    """
    cells: dict[tuple[str, str], list[int]] = {}
    for index, request in enumerate(requests):
        cells.setdefault(
            (request.cell_family, request.coalition), []
        ).append(index)
    return sorted(cells.items())


def quote_batch(
    engine: QuoteEngine,
    requests: Iterable[QuoteRequest],
    tiers: tuple[int, ...] = ALL_TIERS,
    progress=None,
) -> tuple[Quote, ...]:
    """Price every request; results in input order.

    ``progress`` is an optional :class:`~repro.obs.ProgressUpdate`
    callback — the meter advances once per quote and (like all telemetry)
    never influences the quotes themselves.
    """
    ordered = list(requests)
    results: list[Quote | None] = [None] * len(ordered)
    meter = ProgressMeter(
        total=len(ordered), callback=progress, tracer=engine.tracer
    )
    with maybe_span(engine.tracer, "quote.batch", n=len(ordered)):
        for (family, coalition), indices in batch_cells(ordered):
            with maybe_span(
                engine.tracer,
                "quote.batch.cell",
                family=family,
                coalition=coalition,
                n=len(indices),
            ):
                for index in indices:
                    results[index] = engine.quote(ordered[index], tiers)
                    meter.advance()
    meter.finish()
    return tuple(results)


def batch_digest(quotes: Iterable[Quote]) -> str:
    """One digest over a batch: the member digests, input order, hashed.

    Stable across traced/untraced and cold/warm runs for the same
    requests — the member digests already exclude tier and latency.
    """
    joined = "\n".join(quote.digest() for quote in quotes)
    return sha256(f"quote-batch|{joined}".encode()).hexdigest()
