"""The rational-adversary ablation grid.

:func:`ablation_matrix` crosses protocol families with utility-driven
actors (`repro.parties.rational`) over premium fractions × price-shock
sizes × shock stages, producing an ordinary
:class:`repro.campaign.matrix.ScenarioMatrix` that runs through every
existing backend (serial, or a :class:`~repro.campaign.pool.WorkerPool`
opened per run or kept across runs).

Each grid cell ``(family, π, s, stage)`` becomes one matrix block holding
two scenarios for the family's *pivot* party (the one whose incoming asset
takes the shock):

- the **comply** arm — an identity transform; the protocol completes and
  the pivot's realized utility under the shocked price path is the cost of
  honoring the deal,
- the **rational** arm — the pivot wrapped in a
  :class:`~repro.parties.rational.UtilityModel`; it walks away exactly
  when quitting beats finishing given its live premium stake.

Both arms carry a metrics hook recording ``completed`` and the pivot's
``utility`` (final balance deltas valued at the post-shock prices), which
is what :func:`repro.campaign.ablation.frontier.reduce_frontier` pairs
into deviation-profitability cells.

Premium sizing maps the grid fraction π onto each family's integer premium
knob against the pivot's principal value (e.g. two-party:
``p_b = round(π · amount_b)``); :func:`deterrence_stake` exposes the
resulting closed-form walk-forfeit at the staked stage, and
:func:`closed_form_pi_star` the continuous §5.2-style threshold the
refinement engine's bisected π* must bracket — both per ``(family,
coalition)``, with ``coalition=""`` naming the single pivot.

**Shock stages.**  A stage pins the shock height to protocol structure:

- the named stages ``pre-stake`` (before the pivot deposited anything —
  walking is free, no premium can deter it) and ``staked`` (premiums held,
  principal not yet locked — the window the paper's premiums are sized
  for) survive as aliases into each family's schedule,
- ``round:K`` pins the shock to height ``K`` directly, and the pseudo
  stage ``all`` expands to one ``round:K`` arm per protocol round of each
  family — the *dense stage sweep* that charts how the deterrent decays
  round by round.  Nothing is hard-coded per family: the binding deviation
  (e.g. the broker's escrow-then-withhold-the-key walk) emerges from the
  per-round utility rule, not from a named stage.

**Coalitions.**  With ``coalitions=True`` the grid adds *joint* pivot
blocks for the named two-party coalitions in :data:`ABLATION_COALITIONS`
(adjacent ring members walking together; seller + buyer squeezing the
broker).  Both members share one
:func:`~repro.parties.rational.coalition_model`, so they walk in the same
round exactly when the joint utility says collusion pays; the blocks carry
a ``coalition`` axis and expand only the compliant and the joint-rational
profile (``min_adversaries == max_adversaries == 2``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

from repro.campaign.ablation.bounds import GRID_SHOCK, PI
from repro.campaign.canon import canon_float, fmt_fraction
from repro.campaign.matrix import ScenarioMatrix
from repro.campaign.pool import MatrixSpec, register_matrix_factory
from repro.parties.rational import TokenPrices, rational_party

#: premium fractions π swept by the default grid (0 = unhedged baseline).
DEFAULT_PREMIUM_FRACTIONS = (0.0, 0.01, 0.02, 0.03, 0.05, 0.08)

#: relative price drops s; chosen off the grid's stake values so the
#: walk/complete decision is never a floating-point tie.
DEFAULT_SHOCK_FRACTIONS = (0.005, 0.015, 0.025, 0.045, 0.065, 0.105)

DEFAULT_STAGES = ("pre-stake", "staked")

#: the pseudo-stage expanding to one ``round:K`` arm per protocol round.
STAGE_ALL = "all"

#: the principal notional every family's π is sized against.
PRINCIPAL = 100

#: graph-shaped family kinds the grid prices beyond the named §5.2 four:
#: ``ring:N`` / ``complete:N`` (plus the literal ``figure3``) name a
#: multi-party swap over that digraph, hedged by the generic §7.1
#: Equations 1–2 schedule.
GRAPH_FAMILY_KINDS = ("ring", "complete")


@lru_cache(maxsize=64)
def parse_graph_family(family: str):
    """``(graph, leaders)`` for a graph-shaped family name, else ``None``.

    ``ring:N`` pins the canonical single leader ``P0`` (any one vertex
    breaks the only cycle); ``figure3`` pins the paper's leader ``A``;
    ``complete:N`` needs a genuine feedback vertex set, so it takes the
    deterministic :func:`~repro.graph.feedback.minimum_feedback_vertex_set`.
    The leaders are part of the family's identity: the same graph under a
    different leader set prices differently, and a name must mean one cell.

    Results are cached per name, so every quote, ablation cell and probe
    over one family shares one graph instance — and with it the graph's
    premium plan (see :mod:`repro.core.premiums`).  The returned graph
    is shared: treat it as immutable.
    """
    from repro.graph.digraph import complete_graph, figure3_graph, ring_graph

    if family == "figure3":
        return figure3_graph(), ("A",)
    kind, sep, count = family.partition(":")
    # Canonical names only: ASCII decimal, no leading zero — ``ring:03``
    # or a non-ASCII digit would otherwise open a second ``ring:3`` cell.
    if (
        not sep
        or kind not in GRAPH_FAMILY_KINDS
        or not (count.isascii() and count.isdigit())
        or count.startswith("0")
    ):
        return None
    n = int(count)
    if n < 2:
        return None
    if kind == "ring":
        return ring_graph(n), ("P0",)
    from repro.graph.feedback import minimum_feedback_vertex_set

    graph = complete_graph(n)
    return graph, minimum_feedback_vertex_set(graph)


def is_graph_family(family: str) -> bool:
    """True iff ``family`` names a graph-shaped multi-party cell."""
    return parse_graph_family(family) is not None


def scaled_premium(fraction: float, base: int = PRINCIPAL) -> int:
    """The integer premium a fraction π buys on a ``base`` principal."""
    return int(round(fraction * base))


def round_height(stage: str) -> int | None:
    """The height ``K`` of a ``round:K`` stage, or None for any other label.

    Canonical labels only — ASCII decimal, no leading zero — the rule
    :func:`parse_graph_family` applies to graph names: ``round:03`` or a
    non-ASCII digit would otherwise open a second ``round:3`` cell.
    """
    kind, sep, height = stage.partition(":")
    if (
        kind != "round"
        or not sep
        or not (height.isascii() and height.isdigit())
        or (height.startswith("0") and height != "0")
    ):
        return None
    return int(height)


def valid_stage(stage: str) -> bool:
    """True iff ``stage`` is a named stage, ``round:K``, or ``all``."""
    return (
        stage in DEFAULT_STAGES
        or stage == STAGE_ALL
        or round_height(stage) is not None
    )


def stage_heights(
    stages: tuple[str, ...], named: dict[str, int], horizon: int
) -> list[tuple[str, int]]:
    """Resolve stage labels into ``(stage, shock height)`` arms.

    ``named`` maps a family's named stages to their schedule heights;
    ``all`` expands to every protocol round ``round:0 .. round:horizon-1``;
    ``round:K`` passes through.  Duplicate labels collapse, order is
    preserved.
    """
    out: list[tuple[str, int]] = []
    seen: set[str] = set()
    for stage in stages:
        height = round_height(stage)
        if stage == STAGE_ALL:
            expanded = [(f"round:{h}", h) for h in range(horizon)]
        elif height is not None:
            expanded = [(stage, height)]
        else:
            expanded = [(stage, named[stage])]
        for label, height in expanded:
            if label not in seen:
                seen.add(label)
                out.append((label, height))
    return out


def _comply(actor):
    return actor


class _Arm(NamedTuple):
    """One arm of a cell: the campaign's duck-typed labelled strategy."""

    label: str
    transform: object


#: the comply arm every single-pivot block shares.
_COMPLY = _Arm("comply", _comply)


def _make_metrics(parties, prices, completed):
    """The cell's digest-covered metrics: completion flag + pivot utility.

    ``parties`` may be one pivot or a coalition tuple; the utility metric
    is the (joint) realized value of the pivot set at the post-shock
    prices that ``prices()`` makes for the run.
    """
    if isinstance(parties, str):
        parties = (parties,)

    def metrics(instance, result):
        run_prices = prices()
        return (
            ("completed", 1.0 if completed(instance) else 0.0),
            (
                "utility",
                sum(
                    result.payoffs.realized_utility(p, run_prices, instance.horizon)
                    for p in parties
                ),
            ),
        )

    return metrics


# ----------------------------------------------------------------------
# family cells
# ----------------------------------------------------------------------
#: the premium a shape's one structural build runs at.  Any premium reads
#: the same shape; ``tests/test_ablation.py`` pins that at several.
_SHAPE_PREMIUM = 1


@dataclass(frozen=True)
class CellShape:
    """The premium-independent structure of one ``(family, coalition)``.

    A premium moves deposit *amounts* only: the deployed contracts, the
    schedule, the pivot set and the shocked token are the same at every
    premium, so one shape, read off one structural build, serves every
    premium of its context.  Shapes are shared by every cell of their
    context (see :func:`cell_shape`), so they hold frozen data only —
    never the :class:`~repro.protocols.instance.ProtocolInstance` they
    were read from.
    """

    contracts: tuple[tuple[str, str], ...]  #: (chain, address), build order
    arc_labels: tuple[str, ...]  #: sorted contract labels
    horizon: int
    named: tuple[tuple[str, int], ...]  #: named stage → shock height
    #: the frozen MultiPartySchedule / BrokerDeadlines, else None
    schedule: object
    pivots: tuple[str, ...]  #: parties the rational arm wraps
    shocked: str  #: the token symbol the shock applies to


def _shape(probe, pivots, shocked, named, schedule=None) -> CellShape:
    return CellShape(
        contracts=tuple(probe.contracts.values()),
        arc_labels=tuple(sorted(probe.contracts)),
        horizon=probe.horizon,
        named=tuple(named.items()),
        schedule=schedule,
        pivots=pivots,
        shocked=shocked,
    )


def _two_party_shape() -> CellShape:
    from repro.core.hedged_two_party import HedgedTwoPartySpec, HedgedTwoPartySwap

    spec = HedgedTwoPartySpec(premium_a=2, premium_b=_SHAPE_PREMIUM)
    return _shape(
        HedgedTwoPartySwap(spec).build(),
        pivots=(spec.bob,),
        shocked=spec.token_a,
        # Bob's premium lands at height 2; Alice escrows at height 3 and
        # Bob's own escrow would land at height 4.
        named={"pre-stake": 1, "staked": 3},
    )


def _graph_shape(family: str, members: tuple[str, ...] = ()) -> CellShape:
    """A swap over a graph family's digraph.

    The pivot is the first follower in sorted order, and the shock lands
    on its incoming asset from its first sorted in-neighbor (ring:3: P1
    and ``p0-token``).  ``members`` names a coalition that walks in the
    pivot's place; the shock stays on the pivot's incoming asset.
    """
    from repro.core.hedged_multi_party import HedgedMultiPartySwap

    graph, leaders = parse_graph_family(family)
    probe = HedgedMultiPartySwap(
        graph=graph, premium=_SHAPE_PREMIUM, leaders=leaders
    ).build()
    schedule = probe.meta["schedule"]
    pivot = min(p for p in graph.parties if p not in leaders)
    return _shape(
        probe,
        pivots=members or (pivot,),
        shocked=f"{min(graph.in_neighbors(pivot)).lower()}-token",
        # By phase 3 the pivot's escrow premium and its redemption premium
        # for the leader's key are both held; its principal is not yet
        # escrowed (followers escrow one round after the leaders).
        named={"pre-stake": 0, "staked": schedule.p3_start},
        schedule=schedule,
    )


def _broker_shape(coalition: bool = False) -> CellShape:
    from repro.core.hedged_broker import HedgedBrokerDeal
    from repro.protocols.base_broker import BrokerSpec

    spec = BrokerSpec()
    probe = HedgedBrokerDeal(premium=_SHAPE_PREMIUM).build()
    deadlines = probe.meta["deadlines"]
    return _shape(
        probe,
        pivots=(spec.seller, spec.buyer) if coalition else (spec.seller,),
        shocked=spec.coin_token,
        # Activation height: all E/T/R premiums held, asset escrows still
        # one round out.
        named={"pre-stake": 0, "staked": deadlines.activation},
        schedule=deadlines,
    )


def _auction_shape() -> CellShape:
    from repro.core.hedged_auction import AuctionSpec, HedgedAuction

    spec = AuctionSpec(premium=_SHAPE_PREMIUM)
    return _shape(
        HedgedAuction(spec=spec).build(),
        pivots=(spec.auctioneer,),
        shocked=spec.coin_token,
        # Bids land at height 2; the declaration round is round 2.
        named={"pre-stake": 0, "staked": 2},
    )


@dataclass(frozen=True)
class FamilyCell:
    """One family's fully-wired cell context at one integer premium.

    Everything a ``(family, coalition, premium)`` point of the grid needs
    in one object shared by the matrix adders (which expand it into
    comply/rational blocks per shock × stage) and the kernel
    engine (which calibrates payoff templates from it): the context's
    shared, immutable :class:`CellShape` (contracts, stage schedule,
    horizon, pivot set, shocked token) plus what the premium feeds — the
    builder, the utility model and the symbolic per-round gain terms —
    and the premium-free constants (price-path base, properties, metrics
    parties).  Building both engines' cells from the same context is what
    makes them agree cell-by-cell: same closures, same float op order,
    same block descriptors.  Cells are memoized per premium (see
    :func:`family_cell`) and shared, so they are frozen.
    """

    family: str
    coalition: str  #: "" for the family's single pivot
    premium: int  #: the effective integer premium π bought after rounding
    shape: CellShape
    builder: object
    properties: tuple
    completed: object  #: instance -> bool, the cell's completion predicate
    model_factory: object  #: prices -> UtilityModel (the rational arm)
    gain_terms: object  #: view -> list of per-member (sign, amount, asset) folds
    #: how the folds combine into the model's completion gain:
    #: "single" (one fold, as-is), "sum" (0 + fold_1 + ...), or "diff"
    #: (fold_1 − fold_2, single-term folds — the auction's two legs).
    gain_shape: str
    base_values: tuple[tuple[str, float], ...] = ()  #: TokenPrices ``base``
    schedule_prefix: str = ""  #: e.g. "" / "ring3/" / "ring3/P1+P2/"

    @property
    def metrics_parties(self) -> tuple[str, ...]:
        """The utility-metric party set, in order: the pivot set."""
        return self.shape.pivots


def _pivot_closures(shape: CellShape, coalition: str):
    """``(model_factory, gain_terms, gain_shape)`` of a swap-style pivot
    set: one pivot's swap model, or a coalition's joint model."""
    from repro.parties.rational import (
        coalition_model,
        completion_gain_terms,
        swap_party_model,
    )

    contracts = shape.contracts
    if not coalition:
        (party,) = shape.pivots

        def model_factory(prices):
            return swap_party_model(party, prices, contracts)

        def gain_terms(view):
            return [list(completion_gain_terms(party, view, contracts))]

        return model_factory, gain_terms, "single"

    members = shape.pivots
    member_set = frozenset(members)

    def coalition_factory(prices):
        return coalition_model(members, prices, contracts)

    def coalition_terms(view):
        # Mirrors coalition_model's joint gain: one fold per member in
        # sorted order, each with the member set's internal-flow rule.
        return [
            list(completion_gain_terms(p, view, contracts, coalition=member_set))
            for p in sorted(member_set)
        ]

    return coalition_factory, coalition_terms, "sum"


def _two_party_completed(instance) -> bool:
    return (
        instance.contract("apricot_escrow").principal_state == "redeemed"
        and instance.contract("banana_escrow").principal_state == "redeemed"
    )


def _two_party_cell(family, coalition, shape, premium) -> FamilyCell:
    """§5.2 swap: rational Bob, shock on Alice's (incoming) token."""
    from repro.checker import properties as props
    from repro.core.hedged_two_party import HedgedTwoPartySpec, HedgedTwoPartySwap
    from repro.parties.rational import completion_gain_terms, two_party_model

    spec = HedgedTwoPartySpec(premium_a=2, premium_b=premium)
    builder = lambda spec=spec: HedgedTwoPartySwap(spec).build()
    contracts = shape.contracts

    def model_factory(prices):
        return two_party_model(spec, prices, contracts)

    def gain_terms(view):
        return [list(completion_gain_terms(spec.bob, view, contracts))]

    return FamilyCell(
        family, coalition, premium, shape,
        builder=builder,
        properties=(props.no_stuck_escrow, props.two_party_hedged),
        completed=_two_party_completed,
        model_factory=model_factory,
        gain_terms=gain_terms,
        gain_shape="single",
    )


def _graph_cell(graph, prefix, family, coalition, shape, premium) -> FamilyCell:
    """§7.1 swap over a deal graph (``ring:N``, ``complete:N``, ``figure3``).

    The named ``multi-party`` family is ring:3 with rational P1 and the
    shock on the leader's token; every graph shares its pivot rule, stage
    aliases and properties, and only the digraph (and with it the
    Equations 1–2 schedule the builder derives) varies.  As coalition
    ``P1+P2`` the adjacent ring:3 members walk together: their shared arc
    (P1, P2) is internal, so its escrow premium and redemption deposits
    forfeit member-to-member and only the premiums facing P0 deter the
    joint walk — which is what prices the collusive π*.
    """
    from repro.checker import properties as props
    from repro.core.hedged_multi_party import HedgedMultiPartySwap

    digraph, leaders = parse_graph_family(graph)
    builder = lambda p=premium: HedgedMultiPartySwap(
        graph=digraph, premium=p, leaders=leaders
    ).build()
    model_factory, gain_terms, gain_shape = _pivot_closures(shape, coalition)

    def completed(instance, labels=shape.arc_labels) -> bool:
        return all(
            instance.contract(label).principal_state == "redeemed"
            for label in labels
        )

    return FamilyCell(
        family, coalition, premium, shape,
        builder=builder,
        properties=(props.no_stuck_escrow, props.multi_party_lemmas),
        completed=completed,
        schedule_prefix=f"{prefix}{coalition}/" if coalition else prefix,
        model_factory=model_factory,
        gain_terms=gain_terms,
        gain_shape=gain_shape,
    )


def _broker_prices_base(spec):
    return (
        # A ticket trades for seller_price coins: that is its fair value.
        (spec.ticket_token, float(spec.seller_price) / spec.tickets),
        (spec.coin_token, 1.0),
    )


def _broker_completed(instance) -> bool:
    return (
        instance.contract("ticket").escrow_state == "redeemed"
        and instance.contract("coin").escrow_state == "redeemed"
    )


def _broker_cell(family, coalition, shape, premium) -> FamilyCell:
    """§8.2 deal: rational seller Bob, shock on the coin he is paid in.

    As coalition ``seller+buyer`` Bob and Carol squeeze the broker: they
    trade with each other *through* Alice, so the ticket-for-coins
    exchange is internal and only their E deposits (which reimburse the
    broker's passthrough) and the redemption deposits facing Alice still
    deter the joint walk.
    """
    from repro.checker import properties as props
    from repro.core.hedged_broker import HedgedBrokerDeal
    from repro.protocols.base_broker import BrokerSpec

    builder = lambda p=premium: HedgedBrokerDeal(premium=p).build()
    model_factory, gain_terms, gain_shape = _pivot_closures(shape, coalition)
    return FamilyCell(
        family, coalition, premium, shape,
        builder=builder,
        base_values=_broker_prices_base(BrokerSpec()),
        properties=(props.no_stuck_escrow, props.broker_bounds),
        completed=_broker_completed,
        schedule_prefix=f"{coalition}/" if coalition else "",
        model_factory=model_factory,
        gain_terms=gain_terms,
        gain_shape=gain_shape,
    )


def _auction_completed(instance) -> bool:
    return instance.contract("coin").outcome == "completed"


def _auction_cell(family, coalition, shape, premium) -> FamilyCell:
    """§9 auction: rational auctioneer, shock on the bid coin.

    Her walk-forfeit is p per bid placed, so π prices n·p against the
    best bid: threshold s* = n·p / best_bid ≈ π (the caller quantizes π
    with :func:`premium_base`).
    """
    from repro.checker import properties as props
    from repro.core.hedged_auction import AuctionSpec, HedgedAuction
    from repro.parties.rational import auction_model

    spec = AuctionSpec(premium=premium)
    best_bid = max(spec.bids.values(), default=0)
    base_values = (
        # Tickets are worth what the best bidder will pay for them.
        (spec.ticket_token, float(best_bid) / spec.tickets),
        (spec.coin_token, 1.0),
    )
    builder = lambda spec=spec: HedgedAuction(spec=spec).build()
    contracts = shape.contracts

    def model_factory(prices):
        return auction_model(spec, prices, contracts)

    def gain_terms(view):
        # The model's two legs — best_bid · price(coin) − tickets ·
        # price(ticket) — as one single-term fold per leg ("diff" shape).
        coin = view.chain(spec.coin_chain).asset(spec.coin_token)
        ticket = view.chain(spec.ticket_chain).asset(spec.ticket_token)
        return [[(1, best_bid, coin)], [(1, spec.tickets, ticket)]]

    return FamilyCell(
        family, coalition, premium, shape,
        builder=builder,
        base_values=base_values,
        properties=(props.no_stuck_escrow, props.auction_lemmas),
        completed=_auction_completed,
        model_factory=model_factory,
        gain_terms=gain_terms,
        gain_shape="diff",
    )


@dataclass(frozen=True)
class CellContext:
    """How the grid builds one ``(family, coalition)`` context."""

    shape: object  #: () -> CellShape, the context's one structural build
    cell: object  #: (family, coalition, shape, premium) -> FamilyCell
    builder_id: str  #: the protocol identity its matrix blocks carry
    graph: str = ""  #: the deal graph a swap context runs over


def _graph_context(graph, prefix, builder_id, members=()) -> CellContext:
    return CellContext(
        shape=partial(_graph_shape, graph, members),
        cell=partial(_graph_cell, graph, prefix),
        builder_id=builder_id,
        graph=graph,
    )


# The ids read like qualnames because their bytes are inside committed digests.
CELL_CONTEXTS = {
    ("two-party", ""): CellContext(
        _two_party_shape, _two_party_cell, "_two_party_cell.<locals>.<lambda>"
    ),
    ("multi-party", ""): _graph_context(
        "ring:3", "ring3/", "_multi_party_probe.<locals>.<lambda>"
    ),
    ("multi-party", "P1+P2"): _graph_context(
        "ring:3", "ring3/", "_multi_party_probe.<locals>.<lambda>", ("P1", "P2")
    ),
    ("broker", ""): CellContext(
        _broker_shape, _broker_cell, "_broker_cell.<locals>.<lambda>"
    ),
    ("broker", "seller+buyer"): CellContext(
        partial(_broker_shape, coalition=True),
        _broker_cell,
        "_broker_coalition_cell.<locals>.<lambda>",
    ),
    ("auction", ""): CellContext(
        _auction_shape, _auction_cell, "_auction_cell.<locals>.<lambda>"
    ),
}

#: the named families, in grid order.
ABLATION_FAMILIES = tuple(dict.fromkeys(family for family, _ in CELL_CONTEXTS))

#: the named two-party coalitions swept when ``coalitions=True``.
ABLATION_COALITIONS = {
    family: tuple(c for f, c in CELL_CONTEXTS if f == family and c)
    for family, coalition in CELL_CONTEXTS
    if coalition
}

#: deal graph → the named family whose context runs over it (ring:3 is
#: the named multi-party cell: same digraph, same canonical leader).
NAMED_GRAPH_FAMILIES = {
    context.graph: family
    for (family, _), context in CELL_CONTEXTS.items()
    if context.graph
}


def _find_context(family: str, coalition: str) -> CellContext | None:
    context = CELL_CONTEXTS.get((family, coalition))
    if context is None and not coalition and is_graph_family(family):
        context = _graph_context(family, f"{family}/", "_graph_cell.<locals>.<lambda>")
    return context


def cell_context(family: str, coalition: str = "") -> CellContext:
    """The :class:`CellContext` of ``(family, coalition)``: a named context
    of :data:`CELL_CONTEXTS`, or a graph-shaped family with no coalition.
    The one check of which cells exist; it builds nothing."""
    context = _find_context(family, coalition)
    if context is not None:
        return context
    if _find_context(family, "") is None:
        unknown = f"unknown ablation family {family!r}"
    else:
        unknown = f"unknown coalition {coalition!r} for family {family!r}"
    raise ValueError(
        f"unknown ablation cell ({family!r}, {coalition!r}): {unknown}; "
        f"known: {sorted(CELL_CONTEXTS)} or a graph-shaped family "
        "(ring:N, complete:N, figure3) with no coalition"
    )


@lru_cache(maxsize=64)
def cell_shape(family: str, coalition: str) -> CellShape:
    """The shared :class:`CellShape` of a ``(family, coalition)`` context.

    One structural build per context: the cache is bounded (64 contexts,
    like :func:`parse_graph_family`) and has no premium in its key, so
    every premium of the grid, every bisection probe and every kernel
    calibration of one context reads the same shape.  The returned shape
    is shared and frozen.
    """
    return cell_context(family, coalition).shape()


#: cells :func:`family_cell` keeps; a default refine pass touches a few dozen.
FAMILY_CELL_MEMO = 256


def family_cell(family: str, coalition: str, premium: int) -> FamilyCell:
    """The cell context for ``(family, coalition, premium)``.

    ``premium`` is the *effective integer* premium (what
    :func:`scaled_premium` quantizes a fraction π into against the
    family's :func:`premium_base`) — the same quantization the recorded
    ``premium`` axis carries, so the kernel engine can rebuild a cell's
    context from a scenario's axes alone.  Only the premium's closures
    are built here: the structure comes from the context's cached
    :func:`cell_shape`, so a call runs no protocol build.

    Cells are memoized (an LRU of :data:`FAMILY_CELL_MEMO`, with
    ``cache_info``/``cache_clear``) and hold closures only, never a run.
    The memo follows :func:`cell_shape`: a cell whose shape is no longer
    the cached one clears the memo and is built afresh.
    """
    cell = _memo_cell(family, coalition, premium)
    if cell.shape is not cell_shape(family, coalition):
        _memo_cell.cache_clear()
        cell = _memo_cell(family, coalition, premium)
    return cell


@lru_cache(maxsize=FAMILY_CELL_MEMO)
def _memo_cell(family: str, coalition: str, premium: int) -> FamilyCell:
    make = cell_context(family, coalition).cell
    return make(family, coalition, cell_shape(family, coalition), premium)


family_cell.cache_clear = _memo_cell.cache_clear
family_cell.cache_info = _memo_cell.cache_info


class _BlockTemplate(NamedTuple):
    """What every block of one ``(family, coalition, stage)`` shares at
    any premium and shock (see :func:`_block_template`)."""

    builder_id: str
    stage: str
    height: int  #: the stage's shock height
    pivots: tuple[str, ...]  #: the parties the rational arm wraps
    comply: tuple  #: the arms before the rational one: (_COMPLY,) or ()
    #: the block's adversary bounds: a coalition expands its compliant
    #: and joint-rational profiles only
    expansion: dict
    #: the axes after π, premium and shock; coalition cells carry their
    #: pivot-set name so the frontier reducer prices them separately
    axes: tuple[tuple[str, str], ...]
    base: int  #: :func:`premium_base`, which quantizes π


@lru_cache(maxsize=256)
def _block_template(family: str, coalition: str, stage: str) -> _BlockTemplate:
    """The premium-free template of a known ``(family, coalition)``'s
    blocks at one concrete stage: its structure only, read off the cached
    shape, so it holds nothing a run derives."""
    context = cell_context(family, coalition)
    shape = cell_shape(family, coalition)
    ((stage, height),) = stage_heights((stage,), dict(shape.named), shape.horizon)
    if coalition:
        expansion = dict(max_adversaries=2, min_adversaries=2, include_compliant=True)
    else:
        expansion = dict(max_adversaries=1, include_compliant=False)
    axes = (("stage", stage), ("shock_height", str(height)))
    return _BlockTemplate(
        builder_id=context.builder_id,
        stage=stage,
        height=height,
        pivots=shape.pivots,
        comply=() if coalition else (_COMPLY,),
        expansion=expansion,
        axes=axes + (("coalition", coalition),) if coalition else axes,
        base=premium_base(family),
    )


def _add_block(matrix, family, template, cell, pi_text, shock, shock_text) -> None:
    """Add one cell's comply/rational block at shock ``shock``, with π and
    the shock already rendered by :func:`fmt_fraction`.  The ``premium``
    axis is the *effective* integer premium π bought after rounding, so a
    quantized grid (e.g. π = 0.025 on a 100 principal → premium 2) can
    never misstate what actually hedged the run.  A run makes its own
    prices: the kernel engine runs no block's closures."""

    def prices(cell=cell, shock=shock, height=template.height):
        return TokenPrices(cell.base_values, cell.shape.shocked, shock, height)

    def transform(actor, cell=cell, prices=prices):
        return rational_party(actor, cell.model_factory(prices()))

    rational = _Arm("rational", transform)
    matrix.add_block(
        family=family,
        schedule=f"{cell.schedule_prefix}pi{pi_text}/s{shock_text}@{template.stage}",
        builder=cell.builder,
        builder_id=template.builder_id,
        properties=cell.properties,
        strategies={party: (*template.comply, rational) for party in template.pivots},
        extra_axes=(
            ("pi", pi_text), ("premium", str(cell.premium)), ("shock", shock_text),
            *template.axes,
        ),
        metrics=_make_metrics(cell.metrics_parties, prices, cell.completed),
        **template.expansion,
    )


def _add_blocks(matrix, family, coalition, premium_fractions, shock_fractions, stages) -> None:
    """Expand one context's cells over π × shock × stage into blocks,
    rendering each π and each shock once."""
    shape = cell_shape(family, coalition)
    templates = [
        _block_template(family, coalition, stage)
        for stage, _ in stage_heights(stages, dict(shape.named), shape.horizon)
    ]
    shocks = [(shock, fmt_fraction(shock)) for shock in shock_fractions]
    for pi in premium_fractions:
        cell = family_cell(family, coalition, scaled_premium(pi, templates[0].base))
        pi_text = fmt_fraction(pi)
        for shock, shock_text in shocks:
            for template in templates:
                _add_block(matrix, family, template, cell, pi_text, shock, shock_text)


# ----------------------------------------------------------------------
# closed-form thresholds per (family, coalition), "" = the single pivot
# ----------------------------------------------------------------------
def deterrence_stake(family: str, pi: float, coalition: str = "") -> float | None:
    """The pivot's walk-forfeit at the ``staked`` stage, in value units.

    The rational pivot walks iff the shocked value drop exceeds this stake
    (``PRINCIPAL · s > stake`` for the swap families, ``best_bid · s`` for
    the auction), so ``stake / principal_value`` is the closed-form
    deterrence threshold the measured frontier must reproduce.

    A ``coalition`` (a name from :data:`ABLATION_COALITIONS`) counts only
    its *outsider-facing* stake: member-to-member forfeits move value
    inside the coalition, so they deter nothing.  ``None`` means no finite
    stake deters the joint walk at any premium (the broker coalition; see
    :func:`closed_form_pi_star`).
    """
    if coalition and coalition not in ABLATION_COALITIONS.get(family, ()):
        raise ValueError(
            f"unknown coalition ({family!r}, {coalition!r}); "
            f"known: {sorted((f, c) for f, cs in ABLATION_COALITIONS.items() for c in cs)}"
        )
    if family == "two-party":
        return float(scaled_premium(pi))
    if family == "multi-party":
        from repro.core.premiums import (
            escrow_premium_amounts,
            redemption_premium_amount,
        )

        graph, p = parse_graph_family("ring:3")[0], scaled_premium(pi)
        # Both still held at phase 3: P1's redemption premium for P0's
        # key on (P0,P1), plus one escrow premium.  The single pivot P1
        # forfeits its own on (P1,P2); for the P1+P2 coalition that one
        # goes to P2 (internal), and what faces the outsider P0 is P2's
        # on (P2,P0).  (P2's redemption deposits sit on (P1,P2), facing
        # P1 — internal.)
        escrow_arc = ("P2", "P0") if coalition else ("P1", "P2")
        return float(
            escrow_premium_amounts(graph, ("P0",), p)[escrow_arc]
            + redemption_premium_amount(graph, ("P1", "P2", "P0"), "P0", p)
        )
    if family == "broker":
        if coalition:
            # Deal redemption needs every party's hashkey, and the E/T/R
            # deposits all resolve *before* the payout round — so the
            # seller and buyer can always wait for the stake-free tail and
            # then withhold their keys together.  At that point walking
            # forfeits nothing while completing still costs them the
            # broker's markup: no finite premium deters the joint walk.
            return None
        from repro.core.hedged_broker import broker_premium_tables
        from repro.core.premiums import pruned_redemption_premium_amount
        from repro.protocols.base_broker import BrokerSpec

        spec, p = BrokerSpec(), scaled_premium(pi)
        tables = broker_premium_tables(spec, p)
        # The binding deviation is *escrow, then withhold the key*: deal
        # redemption needs every party's hashkey, so Bob can still wreck
        # the trade after escrowing — at which point his escrow premium
        # E(B,A) has already refunded and only his redemption premium
        # deposits (as redeemer of (A,B)) are forfeit.  The rational pivot
        # finds that cheaper walk, so it is the measured frontier.
        keys = tables["required_keys"][(spec.broker, spec.seller)]
        graph, contract_of = spec.graph(), tables["contract_of"]
        stake = 0
        for leader in keys:
            # every (seller → leader) path is unique in the deal digraph
            (path,) = graph.simple_paths(spec.seller, leader)
            stake += pruned_redemption_premium_amount(
                graph, path, spec.broker, p, contract_of
            )
        return float(stake)
    if family == "auction":
        from repro.core.hedged_auction import AuctionSpec

        spec = AuctionSpec()
        best_bid = max(spec.bids.values())
        p = scaled_premium(pi, best_bid // len(spec.bidders))
        return float(p * len(spec.bidders))
    raise ValueError(f"unknown ablation family {family!r}")


@lru_cache(maxsize=64)
def shocked_notional(family: str) -> float:
    """The value the staked-stage shock applies to (denominator of s*).

    Cached per family (a pure function of it) like :func:`premium_base`:
    the auction's reads a fresh :class:`AuctionSpec` otherwise."""
    if family == "auction":
        from repro.core.hedged_auction import AuctionSpec

        return float(max(AuctionSpec().bids.values()))
    return float(PRINCIPAL)


@lru_cache(maxsize=64)
def premium_base(family: str) -> int:
    """The base notional a family's π is quantized against: the integer
    premium a fraction buys is ``round(π · premium_base)``.  Cached per
    family: every quote reads it, and the auction's builds a spec."""
    if family == "auction":
        from repro.core.hedged_auction import AuctionSpec

        spec = AuctionSpec()
        return max(spec.bids.values()) // len(spec.bidders)
    return PRINCIPAL


def closed_form_pi_star(
    family: str, shock: float, coalition: str = ""
) -> float | None:
    """The continuous §5.2-style deterrence threshold for a staked shock.

    :func:`deterrence_stake` is linear in the integer premium π buys
    (two-party ``p_b``, ring ``4p``, broker ``3p``, auction ``n·p``); the
    un-quantized threshold is the π at which that stake equals the shocked
    value drop.  The *measured* (bisected) π* differs from this by at most
    half a premium unit of quantization, ``0.5 / premium_base`` — well
    inside the refinement engine's default tolerance of 1/64.

    A ``coalition`` prices the collusive walk over its outsider-facing
    stake: the joint pivot walks iff the shocked value drop on its
    external flows exceeds the external stake.  For the ring-adjacent
    ``P1+P2`` pair that stake (``3p`` escrow toward P0 plus ``p``
    redemption) happens to equal the single pivot's ``4p``, so the
    collusive threshold coincides with the single one — collusion never
    pays a discount.  ``None`` means the walk is un-hedgeable rent: the
    broker's ``seller+buyer`` pair always finds a stake-free round from
    which withholding keys strands the markup, so the refined frontier
    must report the row undeterred at every probed premium.
    """
    slope = _closed_form_slope(family, coalition)
    if slope is None:
        return None
    return shocked_notional(family) * shock / (slope * premium_base(family))


@lru_cache(maxsize=len(CELL_CONTEXTS))
def _closed_form_slope(family: str, coalition: str) -> float | None:
    """The stake one integer premium unit buys in ``(family, coalition)``.

    Pure in its key, so it is derived once per cell context instead of
    rebuilding the Eq. 1–2 (and, for the broker, the premium-table)
    stake on every closed-form call; ``None`` is the un-hedgeable
    coalition.
    """
    base = premium_base(family)
    ref_premium = 4  # exactly representable: ref_pi · base == 4 for all bases
    stake = deterrence_stake(family, ref_premium / base, coalition)
    if stake is None:
        return None
    return stake / ref_premium


# ----------------------------------------------------------------------
# the grid and its registered factories
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AblationGrid:
    """A declarative (families × π × s × stage) grid specification."""

    families: tuple[str, ...] = ABLATION_FAMILIES
    premium_fractions: tuple[float, ...] = DEFAULT_PREMIUM_FRACTIONS
    shock_fractions: tuple[float, ...] = DEFAULT_SHOCK_FRACTIONS
    stages: tuple[str, ...] = DEFAULT_STAGES
    coalitions: bool = False
    seed: int = 0

    def cells(self) -> int:
        """Single-pivot cell count (exact for named stages; the ``all``
        pseudo-stage and coalition blocks add more — build the matrix and
        count its blocks for those)."""
        return (
            len(self.families)
            * len(self.premium_fractions)
            * len(self.shock_fractions)
            * len(self.stages)
        )

    def matrix(self) -> ScenarioMatrix:
        return ablation_matrix(
            families=self.families,
            premium_fractions=self.premium_fractions,
            shock_fractions=self.shock_fractions,
            stages=self.stages,
            coalitions=self.coalitions,
            seed=self.seed,
        )


def _validate_grid(families, stages) -> None:
    unknown = {family for family in families if _find_context(family, "") is None}
    if unknown:
        raise ValueError(
            f"unknown ablation families {sorted(unknown)}; "
            f"known: {sorted(ABLATION_FAMILIES)} or graph-shaped "
            "(ring:N, complete:N, figure3)"
        )
    bad_stages = [stage for stage in stages if not valid_stage(stage)]
    if bad_stages:
        raise ValueError(
            f"unknown shock stages {sorted(bad_stages)}; "
            f"known: {list(DEFAULT_STAGES)}, 'round:K', or 'all'"
        )


def _check_fractions(premium_fractions, shock_fractions) -> None:
    """Refuse canonical (finite) fractions outside ``PI`` and ``GRID_SHOCK``."""
    pairs = (("premium", premium_fractions, PI), ("shock", shock_fractions, GRID_SHOCK))
    for kind, fractions, domain in pairs:
        for value in fractions:
            if value not in domain:
                raise ValueError(f"{kind} fraction {value!r} out of range: it must be in {domain}")


def ablation_matrix_spec(
    families: tuple[str, ...] | None = None,
    premium_fractions: tuple[float, ...] | None = None,
    shock_fractions: tuple[float, ...] | None = None,
    stages: tuple[str, ...] | None = None,
    coalitions: bool = False,
    seed: int = 0,
) -> MatrixSpec:
    """The (validated, normalized) rebuild recipe of :func:`ablation_matrix`
    — computable without expanding a single block, which is what lets
    experiment specs be emitted cheaply.  :func:`ablation_matrix` builds
    from this same recipe, so ``ablation_matrix(...).spec`` and
    ``ablation_matrix_spec(...)`` are always equal.
    """
    families = tuple(families) if families is not None else ABLATION_FAMILIES
    premium_fractions = (
        tuple(canon_float(p) for p in premium_fractions)
        if premium_fractions is not None
        else DEFAULT_PREMIUM_FRACTIONS
    )
    shock_fractions = (
        tuple(canon_float(s) for s in shock_fractions)
        if shock_fractions is not None
        else DEFAULT_SHOCK_FRACTIONS
    )
    stages = tuple(stages) if stages is not None else DEFAULT_STAGES
    _validate_grid(families, stages)
    _check_fractions(premium_fractions, shock_fractions)
    return MatrixSpec(
        factory="ablation",
        kwargs=(
            ("coalitions", coalitions),
            ("families", families),
            ("premium_fractions", premium_fractions),
            ("seed", seed),
            ("shock_fractions", shock_fractions),
            ("stages", stages),
        ),
    )


@register_matrix_factory("ablation")
def ablation_matrix(
    families: tuple[str, ...] | None = None,
    premium_fractions: tuple[float, ...] | None = None,
    shock_fractions: tuple[float, ...] | None = None,
    stages: tuple[str, ...] | None = None,
    coalitions: bool = False,
    seed: int = 0,
) -> ScenarioMatrix:
    """Build the rational-adversary ablation matrix for the given grid.

    Registered as the ``ablation`` worker-pool factory: the returned
    matrix carries a :class:`~repro.campaign.pool.MatrixSpec` rebuild
    recipe made only of the primitive grid parameters, so persistent pools
    rebuild it worker-side and verify the structural digest before running
    anything.
    """
    spec = ablation_matrix_spec(
        families=families,
        premium_fractions=premium_fractions,
        shock_fractions=shock_fractions,
        stages=stages,
        coalitions=coalitions,
        seed=seed,
    )
    kwargs = dict(spec.kwargs)
    families = kwargs["families"]
    premium_fractions = kwargs["premium_fractions"]
    shock_fractions = kwargs["shock_fractions"]
    stages = kwargs["stages"]
    matrix = ScenarioMatrix(seed=seed)
    for family in families:
        swept = ABLATION_COALITIONS.get(family, ()) if coalitions else ()
        for coalition in ("",) + swept:
            _add_blocks(matrix, family, coalition, premium_fractions, shock_fractions, stages)
    matrix.spec = spec
    return matrix


@register_matrix_factory("ablation_cell")
def ablation_cell(
    family: str,
    pi: float,
    shock: float,
    stage: str,
    coalition: str = "",
    seed: int = 0,
) -> ScenarioMatrix:
    """One ``(family, π, shock, stage)`` cell as a standalone matrix.

    The refinement engine's probe unit: a two-scenario (comply/rational)
    matrix at an arbitrary — typically bisected — premium fraction,
    registered as its own pool factory so probes dispatch through a
    persistent :class:`~repro.campaign.pool.WorkerPool` with the same
    worker-side digest audit as full grids.  ``coalition`` selects a named
    joint-pivot cell instead of the family's single pivot.
    """
    cell_context(family, coalition)  # an unknown cell fails first
    if not valid_stage(stage) or stage == STAGE_ALL:
        raise ValueError(
            f"ablation_cell needs one concrete stage, got {stage!r} "
            f"(known: {list(DEFAULT_STAGES)} or 'round:K')"
        )
    pi = canon_float(pi)
    shock = canon_float(shock)
    _check_fractions((pi,), (shock,))
    template = _block_template(family, coalition, stage)
    cell = family_cell(family, coalition, scaled_premium(pi, template.base))
    matrix = ScenarioMatrix(seed=seed)
    _add_block(matrix, family, template, cell, fmt_fraction(pi), shock, fmt_fraction(shock))
    matrix.spec = MatrixSpec(
        factory="ablation_cell",
        kwargs=(
            ("coalition", coalition),
            ("family", family),
            ("pi", pi),
            ("seed", seed),
            ("shock", shock),
            ("stage", stage),
        ),
    )
    return matrix
