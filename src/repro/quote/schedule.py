"""Per-arc deposit schedules: Equations 1–2 rendered as ledger entries.

Given the deal shape and an integer premium, this module prices every
deposit the hedged protocol requires: escrow premiums (Equation 2,
forward from the leaders) and redemption premiums (Equation 1, backward
along leader-to-beneficiary paths, with the broker's contract-sharing
pruning where the deal defines it).  The output is a flat, sorted tuple
of :class:`~repro.quote.quote.ScheduleEntry` — the part of a quote a
counterparty actually signs.

Every family quotes through the same two recurrences; only the digraph
and leader set differ:

- ``two-party`` is the 2-ring with ``P0`` leading,
- ``multi-party`` is the 3-ring with ``P0`` leading (the §5.2 cell),
- graph-shaped deals (``ring:N``, ``complete:N``, ``figure3``) parse
  through the ablation grid's :func:`~repro.campaign.ablation.grid.
  parse_graph_family`,
- ``broker`` adds the trading-premium table and prunes per hosting
  contract (§8.1),
- ``auction`` is the degenerate case: the auctioneer deposits the flat
  premium into each bidder's contract (§9.2).

A schedule is a pure function of (family, premium), so
:func:`deposit_schedule` caches it per key: every quote of one
(family, premium) holds the *same* tuple.  Sharing is safe only because
:class:`~repro.quote.quote.ScheduleEntry` is frozen and every field it
holds (strings, ints, tuples) is immutable — no caller can edit one
quote's schedule under another.
"""

from __future__ import annotations

from functools import lru_cache

from repro.campaign.ablation.grid import parse_graph_family
from repro.core.hedged_auction import AuctionSpec
from repro.core.hedged_broker import broker_premium_tables
from repro.core.premiums import (
    escrow_premium_amounts,
    redemption_premium_flow,
)
from repro.graph.digraph import SwapGraph
from repro.protocols.base_broker import BrokerSpec

from repro.quote.quote import ScheduleEntry
from repro.quote.request import QuoteError

#: named families that are plain rings with ``P0`` leading
_NAMED_RINGS = {"two-party": "ring:2", "multi-party": "ring:3"}


def _table_entries(kind: str, table: dict) -> list[ScheduleEntry]:
    """Round-0 entries for a flat ``arc -> amount`` premium table, each
    deposited by the arc's source party."""
    return [
        ScheduleEntry(kind=kind, depositor=arc[0], arc=arc, round=0, amount=amount)
        for arc, amount in sorted(table.items())
        if amount != 0
    ]


def _redemption_entries(
    graph: SwapGraph, leaders: tuple[str, ...], premium: int, contract_of=None
) -> list[ScheduleEntry]:
    """Equation 1's redemption-premium flow, pruned per hosting contract
    when ``contract_of`` maps arcs to shared contracts (the broker)."""
    flow = redemption_premium_flow(graph, leaders, premium, contract_of)
    return [
        ScheduleEntry(
            kind="redemption",
            depositor=deposit.depositor,
            arc=deposit.arc,
            round=deposit.round,
            amount=deposit.amount,
            path=deposit.path,
        )
        for deposit in sorted(flow, key=lambda d: (d.round, d.leader, d.arc))
        if deposit.amount != 0
    ]


def _graph_entries(
    graph: SwapGraph, leaders: tuple[str, ...], premium: int
) -> list[ScheduleEntry]:
    """Escrow + redemption entries for one digraph under Equations 1–2."""
    return _table_entries(
        "escrow", escrow_premium_amounts(graph, leaders, premium)
    ) + _redemption_entries(graph, leaders, premium)


def _broker_entries(premium: int) -> list[ScheduleEntry]:
    """The three-party deal: trading + escrow tables, pruned redemptions."""
    spec = BrokerSpec()
    tables = broker_premium_tables(spec, premium)
    return (
        _table_entries("trading", tables["trading"])
        + _table_entries("escrow", tables["escrow"])
        + _redemption_entries(
            spec.graph(),
            (spec.broker, spec.seller, spec.buyer),
            premium,
            tables["contract_of"],
        )
    )


def _auction_entries(premium: int) -> list[ScheduleEntry]:
    """§9.2: the auctioneer posts the flat premium on every bid contract."""
    spec = AuctionSpec()
    return [
        ScheduleEntry(
            kind="escrow",
            depositor=spec.auctioneer,
            arc=(spec.auctioneer, bidder),
            round=0,
            amount=premium,
        )
        for bidder in sorted(spec.bidders)
    ]


@lru_cache(maxsize=256)
def deposit_schedule(family: str, premium: int) -> tuple[ScheduleEntry, ...]:
    """The full deposit schedule for one deal at one integer premium.

    ``family`` is a resolved cell family — a named §5.2 family or a graph
    family string.  A zero premium prices the unhedged protocol: the
    schedule is empty (there is nothing to deposit and nothing deterring).
    Cached and shared per (family, premium), bounded like
    :func:`~repro.campaign.ablation.grid.parse_graph_family`: a stream
    of quotes asks for a few dozen distinct keys.
    """
    if premium < 0:
        raise QuoteError(f"premium must be non-negative, got {premium}")
    if premium == 0:
        return ()
    if family == "broker":
        return tuple(_broker_entries(premium))
    if family == "auction":
        return tuple(_auction_entries(premium))
    parsed = parse_graph_family(_NAMED_RINGS.get(family, family))
    if parsed is None:
        raise QuoteError(f"no deposit schedule for family {family!r}")
    graph, leaders = parsed
    return tuple(_graph_entries(graph, leaders, premium))
