"""repro.quote — a premium-quoting service for cross-chain deals.

The question-shaped front door to the reproduction: ask "what premium
schedule makes this deal sore-loser-proof under these assumptions?" and
get back a :class:`~repro.quote.quote.Quote` — the deterring π*, the
smallest integer premium clearing it, and the full per-arc deposit
schedule Equations 1–2 imply — priced through a three-tier ladder
(closed forms, cached refined rows, narrow measurement fallback) behind
one :class:`~repro.quote.engine.QuoteEngine`.  Requests and quotes are
frozen, JSON-serializable, and digest-covered, with the same
traced-equals-untraced byte-identity discipline as every other artifact
in the tree.
"""

from repro import lazy_exports

lazy_exports(globals(), {
    "ALL_TIERS": "repro.quote.engine",
    "DEFAULT_SHOCK": "repro.quote.request",
    "Quote": "repro.quote.quote",
    "QuoteEngine": "repro.quote.engine",
    "QuoteError": "repro.quote.request",
    "QuoteRequest": "repro.quote.request",
    "ScheduleEntry": "repro.quote.quote",
    "analytic_pi_star_hint": "repro.quote.analytic",
    "batch_cells": "repro.quote.batch",
    "batch_digest": "repro.quote.batch",
    "deposit_schedule": "repro.quote.schedule",
    "graph_pivot": "repro.quote.analytic",
    "graph_stake_slope": "repro.quote.analytic",
    "quote_batch": "repro.quote.batch",
    "quote_for": "repro.quote.quote",
})
