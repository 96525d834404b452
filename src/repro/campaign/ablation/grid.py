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
refinement engine's bisected π* must bracket.

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
from functools import lru_cache

from repro.campaign.canon import canon_float, fmt_fraction
from repro.campaign.matrix import ScenarioMatrix
from repro.campaign.pool import MatrixSpec, register_matrix_factory

ABLATION_FAMILIES = ("two-party", "multi-party", "broker", "auction")

#: premium fractions π swept by the default grid (0 = unhedged baseline).
DEFAULT_PREMIUM_FRACTIONS = (0.0, 0.01, 0.02, 0.03, 0.05, 0.08)

#: relative price drops s; chosen off the grid's stake values so the
#: walk/complete decision is never a floating-point tie.
DEFAULT_SHOCK_FRACTIONS = (0.005, 0.015, 0.025, 0.045, 0.065, 0.105)

DEFAULT_STAGES = ("pre-stake", "staked")

#: the pseudo-stage expanding to one ``round:K`` arm per protocol round.
STAGE_ALL = "all"

#: the named two-party coalitions swept when ``coalitions=True``.
ABLATION_COALITIONS = {
    "multi-party": ("P1+P2",),
    "broker": ("seller+buyer",),
}

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
    premium memos (see :mod:`repro.core.premiums`).  The returned graph
    is shared: treat it as immutable.
    """
    from repro.graph.digraph import complete_graph, figure3_graph, ring_graph

    if family == "figure3":
        return figure3_graph(), ("A",)
    kind, sep, count = family.partition(":")
    if not sep or kind not in GRAPH_FAMILY_KINDS or not count.isdigit():
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


def valid_stage(stage: str) -> bool:
    """True iff ``stage`` is a named stage, ``round:K``, or ``all``."""
    if stage in DEFAULT_STAGES or stage == STAGE_ALL:
        return True
    if stage.startswith("round:"):
        suffix = stage.split(":", 1)[1]
        return suffix.isdigit()
    return False


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
        if stage == STAGE_ALL:
            expanded = [(f"round:{h}", h) for h in range(horizon)]
        elif stage.startswith("round:"):
            expanded = [(stage, int(stage.split(":", 1)[1]))]
        else:
            expanded = [(stage, named[stage])]
        for label, height in expanded:
            if label not in seen:
                seen.add(label)
                out.append((label, height))
    return out


def _comply(actor):
    return actor


def _make_strategies(party: str, transform):
    """The two arms of one cell, as checker-style named strategies."""
    from repro.checker.strategies import NamedStrategy

    return {
        party: (
            NamedStrategy(label="comply", transform=_comply),
            NamedStrategy(label="rational", transform=transform),
        )
    }


def _make_coalition_strategies(transforms: dict[str, object]):
    """One joint-rational strategy per member; the comply arm is the
    block's all-compliant profile (``min_adversaries=2`` suppresses the
    spurious single-member profiles)."""
    from repro.checker.strategies import NamedStrategy

    return {
        party: (NamedStrategy(label="rational", transform=transform),)
        for party, transform in transforms.items()
    }


def _make_metrics(parties, prices, completed):
    """The cell's digest-covered metrics: completion flag + pivot utility.

    ``parties`` may be one pivot or a coalition tuple; the utility metric
    is the (joint) realized value of the pivot set at post-shock prices.
    """
    if isinstance(parties, str):
        parties = (parties,)

    def metrics(instance, result):
        return (
            ("completed", 1.0 if completed(instance) else 0.0),
            (
                "utility",
                sum(
                    result.payoffs.realized_utility(p, prices, instance.horizon)
                    for p in parties
                ),
            ),
        )

    return metrics


def _axes(
    pi: float,
    premium: int,
    shock: float,
    stage: str,
    height: int,
    coalition: str = "",
):
    """Cell coordinates; ``premium`` is the *effective* integer premium the
    fraction π bought after rounding, recorded so a quantized grid (e.g.
    π = 0.025 on a 100 principal → premium 2) can never misstate what
    actually hedged the run.  Coalition cells carry their pivot-set name as
    an extra axis so the frontier reducer prices them separately."""
    axes = [
        ("pi", fmt_fraction(pi)),
        ("premium", str(premium)),
        ("shock", fmt_fraction(shock)),
        ("stage", stage),
        ("shock_height", str(height)),
    ]
    if coalition:
        axes.append(("coalition", coalition))
    return tuple(axes)


# ----------------------------------------------------------------------
# family cells
# ----------------------------------------------------------------------
@dataclass
class FamilyCell:
    """One family's fully-wired cell context at one integer premium.

    Everything a ``(family, coalition, premium)`` point of the grid needs
    — builder, contract directory, pivot set, price-path ingredients,
    stage schedule, properties, metrics parties, the utility model, and
    the symbolic per-round gain terms — in one object shared by the matrix
    adders (which expand it into comply/rational blocks per shock × stage)
    and the vectorized kernel engine (which calibrates payoff templates
    from it).  Building both from the same context is what makes the two
    engines agree cell-by-cell: same closures, same float op order, same
    block descriptors.
    """

    family: str
    coalition: str  #: "" for the family's single pivot
    premium: int  #: the effective integer premium π bought after rounding
    pivots: tuple[str, ...]  #: parties the rational arm wraps
    metrics_parties: tuple[str, ...]  #: utility-metric party set, in order
    builder: object
    contracts: tuple[tuple[str, str], ...]
    base_values: tuple[tuple[str, float], ...]  #: TokenPrices ``base``
    shocked: str  #: the token symbol the shock applies to
    named: dict  #: named stage → shock height
    horizon: int
    properties: tuple
    completed: object  #: instance -> bool, the cell's completion predicate
    schedule_prefix: str  #: e.g. "" / "ring3/" / "ring3/P1+P2/"
    model_factory: object  #: prices -> UtilityModel (the rational arm)
    gain_terms: object  #: view -> list of per-member (sign, amount, asset) folds
    #: how the folds combine into the model's completion gain:
    #: "single" (one fold, as-is), "sum" (0 + fold_1 + ...), or "diff"
    #: (fold_1 − fold_2, single-term folds — the auction's two legs).
    gain_shape: str


def _two_party_cell(premium: int) -> FamilyCell:
    """§5.2 swap: rational Bob, shock on Alice's (incoming) token."""
    from repro.checker import properties as props
    from repro.core.hedged_two_party import HedgedTwoPartySpec, HedgedTwoPartySwap
    from repro.parties.rational import completion_gain_terms, two_party_model

    spec = HedgedTwoPartySpec(premium_a=2, premium_b=premium)
    builder = lambda spec=spec: HedgedTwoPartySwap(spec).build()
    probe = builder()
    contracts = tuple(probe.contracts.values())

    def completed(instance) -> bool:
        return (
            instance.contract("apricot_escrow").principal_state == "redeemed"
            and instance.contract("banana_escrow").principal_state == "redeemed"
        )

    def model_factory(prices):
        return two_party_model(spec, prices, contracts)

    def gain_terms(view):
        return [list(completion_gain_terms(spec.bob, view, contracts))]

    return FamilyCell(
        family="two-party",
        coalition="",
        premium=premium,
        pivots=(spec.bob,),
        metrics_parties=(spec.bob,),
        builder=builder,
        contracts=contracts,
        base_values=(),
        shocked=spec.token_a,
        # Bob's premium lands at height 2; Alice escrows at height 3 and
        # Bob's own escrow would land at height 4.
        named={"pre-stake": 1, "staked": 3},
        horizon=probe.horizon,
        properties=(props.no_stuck_escrow, props.two_party_hedged),
        completed=completed,
        schedule_prefix="",
        model_factory=model_factory,
        gain_terms=gain_terms,
        gain_shape="single",
    )


def _multi_party_probe(premium: int):
    """Shared ring:3 builder/probe for pivot and coalition blocks."""
    from repro.core.hedged_multi_party import HedgedMultiPartySwap

    graph, leaders = parse_graph_family("ring:3")
    builder = lambda p=premium: HedgedMultiPartySwap(
        graph=graph, premium=p, leaders=leaders
    ).build()
    return builder, builder()


def _multi_party_completed(probe):
    arc_labels = tuple(sorted(probe.contracts))

    def completed(instance, labels=arc_labels) -> bool:
        return all(
            instance.contract(label).principal_state == "redeemed"
            for label in labels
        )

    return completed


def _multi_party_cell(premium: int) -> FamilyCell:
    """§7.1 ring:3 swap: rational P1, shock on the leader's token."""
    from repro.checker import properties as props
    from repro.parties.rational import completion_gain_terms, swap_party_model

    party = "P1"
    builder, probe = _multi_party_probe(premium)
    contracts = tuple(probe.contracts.values())
    schedule = probe.meta["schedule"]

    def model_factory(prices):
        return swap_party_model(party, prices, contracts)

    def gain_terms(view):
        return [list(completion_gain_terms(party, view, contracts))]

    return FamilyCell(
        family="multi-party",
        coalition="",
        premium=premium,
        pivots=(party,),
        metrics_parties=(party,),
        builder=builder,
        contracts=contracts,
        base_values=(),
        shocked="p0-token",
        # By phase 3 the pivot's escrow premium and its redemption premium
        # for the leader's key are both held; its principal is not yet
        # escrowed (followers escrow one round after the leaders).
        named={"pre-stake": 0, "staked": schedule.p3_start},
        horizon=schedule.horizon,
        properties=(props.no_stuck_escrow, props.multi_party_lemmas),
        completed=_multi_party_completed(probe),
        schedule_prefix="ring3/",
        model_factory=model_factory,
        gain_terms=gain_terms,
        gain_shape="single",
    )


def _multi_party_coalition_cell(premium: int) -> FamilyCell:
    """Adjacent ring members P1+P2 walking together (coalition ``P1+P2``).

    The members' shared arc (P1, P2) is internal: its escrow premium and
    redemption deposits forfeit member-to-member, so the joint walk is
    deterred only by the premiums facing P0 — a strictly smaller stake
    than either single pivot's, which is what prices the collusive π*.
    """
    from repro.checker import properties as props
    from repro.parties.rational import coalition_model, completion_gain_terms

    members = ("P1", "P2")
    coalition = "P1+P2"
    builder, probe = _multi_party_probe(premium)
    contracts = tuple(probe.contracts.values())
    schedule = probe.meta["schedule"]
    member_set = frozenset(members)

    def model_factory(prices):
        return coalition_model(members, prices, contracts)

    def gain_terms(view):
        # Mirrors coalition_model's joint gain: one fold per member in
        # sorted order, each with the member set's internal-flow rule.
        return [
            list(
                completion_gain_terms(p, view, contracts, coalition=member_set)
            )
            for p in sorted(member_set)
        ]

    return FamilyCell(
        family="multi-party",
        coalition=coalition,
        premium=premium,
        pivots=members,
        metrics_parties=members,
        builder=builder,
        contracts=contracts,
        base_values=(),
        shocked="p0-token",
        named={"pre-stake": 0, "staked": schedule.p3_start},
        horizon=schedule.horizon,
        properties=(props.no_stuck_escrow, props.multi_party_lemmas),
        completed=_multi_party_completed(probe),
        schedule_prefix=f"ring3/{coalition}/",
        model_factory=model_factory,
        gain_terms=gain_terms,
        gain_shape="sum",
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


def _broker_cell(premium: int) -> FamilyCell:
    """§8.2 deal: rational seller Bob, shock on the coin he is paid in."""
    from repro.checker import properties as props
    from repro.core.hedged_broker import HedgedBrokerDeal
    from repro.parties.rational import completion_gain_terms, swap_party_model
    from repro.protocols.base_broker import BrokerSpec

    spec = BrokerSpec()
    builder = lambda p=premium: HedgedBrokerDeal(premium=p).build()
    probe = builder()
    contracts = tuple(probe.contracts.values())
    deadlines = probe.meta["deadlines"]

    def model_factory(prices):
        return swap_party_model(spec.seller, prices, contracts)

    def gain_terms(view):
        return [list(completion_gain_terms(spec.seller, view, contracts))]

    return FamilyCell(
        family="broker",
        coalition="",
        premium=premium,
        pivots=(spec.seller,),
        metrics_parties=(spec.seller,),
        builder=builder,
        contracts=contracts,
        base_values=_broker_prices_base(spec),
        shocked=spec.coin_token,
        # Activation height: all E/T/R premiums held, asset escrows still
        # one round out.
        named={"pre-stake": 0, "staked": deadlines.activation},
        horizon=deadlines.horizon,
        properties=(props.no_stuck_escrow, props.broker_bounds),
        completed=_broker_completed,
        schedule_prefix="",
        model_factory=model_factory,
        gain_terms=gain_terms,
        gain_shape="single",
    )


def _broker_coalition_cell(premium: int) -> FamilyCell:
    """Seller + buyer squeezing the broker (coalition ``seller+buyer``).

    Bob and Carol trade with each other *through* Alice; colluding, the
    ticket-for-coins exchange is internal, so only their E deposits (which
    reimburse the broker's passthrough) and the redemption deposits facing
    Alice still deter the joint walk.
    """
    from repro.checker import properties as props
    from repro.core.hedged_broker import HedgedBrokerDeal
    from repro.parties.rational import coalition_model, completion_gain_terms
    from repro.protocols.base_broker import BrokerSpec

    spec = BrokerSpec()
    members = (spec.seller, spec.buyer)
    coalition = "seller+buyer"
    builder = lambda p=premium: HedgedBrokerDeal(premium=p).build()
    probe = builder()
    contracts = tuple(probe.contracts.values())
    deadlines = probe.meta["deadlines"]
    member_set = frozenset(members)

    def model_factory(prices):
        return coalition_model(members, prices, contracts)

    def gain_terms(view):
        return [
            list(
                completion_gain_terms(p, view, contracts, coalition=member_set)
            )
            for p in sorted(member_set)
        ]

    return FamilyCell(
        family="broker",
        coalition=coalition,
        premium=premium,
        pivots=members,
        metrics_parties=members,
        builder=builder,
        contracts=contracts,
        base_values=_broker_prices_base(spec),
        shocked=spec.coin_token,
        named={"pre-stake": 0, "staked": deadlines.activation},
        horizon=deadlines.horizon,
        properties=(props.no_stuck_escrow, props.broker_bounds),
        completed=_broker_completed,
        schedule_prefix=f"{coalition}/",
        model_factory=model_factory,
        gain_terms=gain_terms,
        gain_shape="sum",
    )


def _auction_cell(premium: int) -> FamilyCell:
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
    probe = builder()
    contracts = tuple(probe.contracts.values())

    def completed(instance) -> bool:
        return instance.contract("coin").outcome == "completed"

    def model_factory(prices):
        return auction_model(spec, prices, contracts)

    def gain_terms(view):
        # The model's two legs — best_bid · price(coin) − tickets ·
        # price(ticket) — as one single-term fold per leg ("diff" shape).
        coin = view.chain(spec.coin_chain).asset(spec.coin_token)
        ticket = view.chain(spec.ticket_chain).asset(spec.ticket_token)
        return [[(1, best_bid, coin)], [(1, spec.tickets, ticket)]]

    return FamilyCell(
        family="auction",
        coalition="",
        premium=premium,
        pivots=(spec.auctioneer,),
        metrics_parties=(spec.auctioneer,),
        builder=builder,
        contracts=contracts,
        base_values=base_values,
        shocked=spec.coin_token,
        # Bids land at height 2; the declaration round is round 2.
        named={"pre-stake": 0, "staked": 2},
        horizon=probe.horizon,
        properties=(props.no_stuck_escrow, props.auction_lemmas),
        completed=completed,
        schedule_prefix="",
        model_factory=model_factory,
        gain_terms=gain_terms,
        gain_shape="diff",
    )


def _graph_cell(family: str, premium: int) -> FamilyCell:
    """A multi-party cell over an arbitrary deal graph (``ring:N``,
    ``complete:N``, ``figure3``).

    The generalization of :func:`_multi_party_cell`: same rational pivot
    construction, same stage aliases, same properties — only the digraph
    (and with it the Equations 1–2 premium schedule the builder derives)
    varies.  The pivot is the first follower in sorted order, and the
    shock lands on its incoming asset from its first sorted in-neighbor,
    mirroring the ring:3 cell's ``p0-token`` choice.
    """
    from repro.checker import properties as props
    from repro.core.hedged_multi_party import HedgedMultiPartySwap
    from repro.parties.rational import completion_gain_terms, swap_party_model

    parsed = parse_graph_family(family)
    if parsed is None:
        raise ValueError(
            f"not a graph-shaped family {family!r}: use ring:N, "
            "complete:N, or figure3"
        )
    graph, leaders = parsed
    builder = lambda p=premium, g=graph, l=leaders: HedgedMultiPartySwap(
        graph=g, premium=p, leaders=l
    ).build()
    probe = builder()
    contracts = tuple(probe.contracts.values())
    schedule = probe.meta["schedule"]
    pivot = min(p for p in graph.parties if p not in leaders)
    shocked_neighbor = min(graph.in_neighbors(pivot))
    shocked = f"{shocked_neighbor.lower()}-token"

    def model_factory(prices):
        return swap_party_model(pivot, prices, contracts)

    def gain_terms(view):
        return [list(completion_gain_terms(pivot, view, contracts))]

    return FamilyCell(
        family=family,
        coalition="",
        premium=premium,
        pivots=(pivot,),
        metrics_parties=(pivot,),
        builder=builder,
        contracts=contracts,
        base_values=(),
        shocked=shocked,
        # Same stage aliases as ring:3: followers hold their escrow and
        # redemption premiums by phase 3, principals are not yet locked.
        named={"pre-stake": 0, "staked": schedule.p3_start},
        horizon=schedule.horizon,
        properties=(props.no_stuck_escrow, props.multi_party_lemmas),
        completed=_multi_party_completed(probe),
        schedule_prefix=f"{family}/",
        model_factory=model_factory,
        gain_terms=gain_terms,
        gain_shape="single",
    )


_CELL_BUILDERS = {
    ("two-party", ""): _two_party_cell,
    ("multi-party", ""): _multi_party_cell,
    ("multi-party", "P1+P2"): _multi_party_coalition_cell,
    ("broker", ""): _broker_cell,
    ("broker", "seller+buyer"): _broker_coalition_cell,
    ("auction", ""): _auction_cell,
}


def family_cell(family: str, coalition: str, premium: int) -> FamilyCell:
    """Build the shared cell context for ``(family, coalition, premium)``.

    ``premium`` is the *effective integer* premium (what
    :func:`scaled_premium` quantizes a fraction π into against the
    family's :func:`premium_base`) — the same quantization the recorded
    ``premium`` axis carries, so the kernel engine can rebuild a cell's
    context from a scenario's axes alone.
    """
    builder = _CELL_BUILDERS.get((family, coalition))
    if builder is None:
        if not coalition and is_graph_family(family):
            return _graph_cell(family, premium)
        raise ValueError(
            f"unknown ablation cell ({family!r}, {coalition!r}); "
            f"known: {sorted(_CELL_BUILDERS)} or a graph-shaped family "
            "(ring:N, complete:N, figure3) with no coalition"
        )
    return builder(premium)


def _add_cell_blocks(matrix, cell: FamilyCell, pi, shock_fractions, stages) -> None:
    """Expand one cell context into its comply/rational blocks."""
    from repro.parties.rational import TokenPrices, rational_party

    for shock in shock_fractions:
        for stage, height in stage_heights(stages, cell.named, cell.horizon):
            prices = TokenPrices(
                base=cell.base_values,
                shocked=cell.shocked,
                fraction=shock,
                at_height=height,
            )

            def transform(actor, cell=cell, prices=prices):
                return rational_party(actor, cell.model_factory(prices))

            if cell.coalition:
                strategies = _make_coalition_strategies(
                    {member: transform for member in cell.pivots}
                )
                expansion = dict(
                    max_adversaries=2, min_adversaries=2, include_compliant=True
                )
            else:
                strategies = _make_strategies(cell.pivots[0], transform)
                expansion = dict(max_adversaries=1, include_compliant=False)
            matrix.add_block(
                family=cell.family,
                schedule=(
                    f"{cell.schedule_prefix}pi{fmt_fraction(pi)}"
                    f"/s{fmt_fraction(shock)}@{stage}"
                ),
                builder=cell.builder,
                properties=cell.properties,
                strategies=strategies,
                extra_axes=_axes(
                    pi, cell.premium, shock, stage, height, cell.coalition
                ),
                metrics=_make_metrics(cell.metrics_parties, prices, cell.completed),
                **expansion,
            )


def _make_adder(family: str, coalition: str = ""):
    """An adder over π for one (family, coalition) pair of cell contexts."""

    def add(matrix, premium_fractions, shock_fractions, stages) -> None:
        base = premium_base(family)
        for pi in premium_fractions:
            cell = family_cell(family, coalition, scaled_premium(pi, base))
            _add_cell_blocks(matrix, cell, pi, shock_fractions, stages)

    return add


_FAMILY_ADDERS = {family: _make_adder(family) for family in ABLATION_FAMILIES}

_COALITION_ADDERS = {
    (family, coalition): _make_adder(family, coalition)
    for family, coalitions in ABLATION_COALITIONS.items()
    for coalition in coalitions
}


# ----------------------------------------------------------------------
# closed-form thresholds (for the deterrence-theorem tests)
# ----------------------------------------------------------------------
def deterrence_stake(family: str, pi: float) -> float:
    """The pivot's walk-forfeit at the ``staked`` stage, in value units.

    The rational pivot walks iff the shocked value drop exceeds this stake
    (``PRINCIPAL · s > stake`` for the swap families, ``best_bid · s`` for
    the auction), so ``stake / principal_value`` is the closed-form
    deterrence threshold the measured frontier must reproduce.
    """
    if family == "two-party":
        return float(scaled_premium(pi))
    if family == "multi-party":
        from repro.core.premiums import (
            escrow_premium_amounts,
            redemption_premium_amount,
        )

        graph, p = parse_graph_family("ring:3")[0], scaled_premium(pi)
        # P1's escrow premium on (P1,P2) plus its redemption premium for
        # P0's key on (P0,P1), both still held at phase 3.
        return float(
            escrow_premium_amounts(graph, ("P0",), p)[("P1", "P2")]
            + redemption_premium_amount(graph, ("P1", "P2", "P0"), "P0", p)
        )
    if family == "broker":
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


def shocked_notional(family: str) -> float:
    """The value the staked-stage shock applies to (denominator of s*)."""
    if family == "auction":
        from repro.core.hedged_auction import AuctionSpec

        return float(max(AuctionSpec().bids.values()))
    return float(PRINCIPAL)


def premium_base(family: str) -> int:
    """The base notional a family's π is quantized against: the integer
    premium a fraction buys is ``round(π · premium_base)``."""
    if family == "auction":
        from repro.core.hedged_auction import AuctionSpec

        spec = AuctionSpec()
        return max(spec.bids.values()) // len(spec.bidders)
    return PRINCIPAL


def coalition_deterrence_stake(family: str, coalition: str, pi: float) -> float | None:
    """The coalition's *outsider-facing* walk-forfeit at the staked stage.

    Internal deposits (member-to-member forfeits) are excluded — they
    move value inside the coalition, so they deter nothing.  Returns
    ``None`` when no finite stake deters the joint walk at any premium
    (the broker coalition; see :func:`closed_form_coalition_pi_star`).
    """
    if (family, coalition) == ("multi-party", "P1+P2"):
        from repro.core.premiums import (
            escrow_premium_amounts,
            redemption_premium_amount,
        )

        graph, p = parse_graph_family("ring:3")[0], scaled_premium(pi)
        # P1's escrow premium on (P1,P2) forfeits to P2 — internal.  What
        # faces the outsider P0: P2's escrow premium on (P2,P0), plus P1's
        # redemption premium for P0's key on (P0,P1).  (P2's redemption
        # deposits sit on (P1,P2), facing P1 — internal.)
        return float(
            escrow_premium_amounts(graph, ("P0",), p)[("P2", "P0")]
            + redemption_premium_amount(graph, ("P1", "P2", "P0"), "P0", p)
        )
    if (family, coalition) == ("broker", "seller+buyer"):
        # Deal redemption needs every party's hashkey, and the E/T/R
        # deposits all resolve *before* the payout round — so the seller
        # and buyer can always wait for the stake-free tail and then
        # withhold their keys together.  At that point walking forfeits
        # nothing while completing still costs them the broker's markup:
        # no finite premium deters the joint walk.
        return None
    raise ValueError(
        f"unknown coalition ({family!r}, {coalition!r}); "
        f"known: {sorted((f, c) for f, cs in ABLATION_COALITIONS.items() for c in cs)}"
    )


def closed_form_coalition_pi_star(
    family: str, coalition: str, shock: float
) -> float | None:
    """The continuous collusive deterrence threshold, or ``None``.

    Same construction as :func:`closed_form_pi_star`, but over the
    coalition's outsider-facing stake sum
    (:func:`coalition_deterrence_stake`): the joint pivot walks iff the
    shocked value drop on its external flows exceeds the external stake.
    For the ring-adjacent ``P1+P2`` pair the external stake (``3p``
    escrow toward P0 plus ``p`` redemption) happens to equal the single
    pivot's ``4p``, so the collusive threshold coincides with the single
    one — collusion never pays a discount.  ``None`` means the walk is
    un-hedgeable rent: the broker's ``seller+buyer`` pair always finds a
    stake-free round from which withholding keys strands the markup, so
    the refined frontier must report the row undeterred at every probed
    premium.
    """
    base = premium_base(family)
    ref_premium = 4  # exactly representable: ref_pi · base == 4 for all bases
    stake = coalition_deterrence_stake(family, coalition, ref_premium / base)
    if stake is None:
        return None
    slope = stake / ref_premium
    return shocked_notional(family) * shock / (slope * base)


def closed_form_pi_star(family: str, shock: float) -> float:
    """The continuous §5.2-style deterrence threshold for a staked shock.

    :func:`deterrence_stake` is linear in the integer premium π buys
    (two-party ``p_b``, ring ``4p``, broker ``3p``, auction ``n·p``); the
    un-quantized threshold is the π at which that stake equals the shocked
    value drop.  The *measured* (bisected) π* differs from this by at most
    half a premium unit of quantization, ``0.5 / premium_base`` — well
    inside the refinement engine's default tolerance of 1/64.
    """
    base = premium_base(family)
    ref_premium = 4  # exactly representable: ref_pi · base == 4 for all bases
    slope = deterrence_stake(family, ref_premium / base) / ref_premium
    return shocked_notional(family) * shock / (slope * base)


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


def _family_adder(family: str):
    """The matrix adder for ``family``: a registered named family's, or a
    fresh generic one for a graph-shaped family."""
    adder = _FAMILY_ADDERS.get(family)
    if adder is not None:
        return adder
    return _make_adder(family)


def _validate_grid(families, stages) -> None:
    unknown = {
        family
        for family in families
        if family not in _FAMILY_ADDERS and not is_graph_family(family)
    }
    if unknown:
        raise ValueError(
            f"unknown ablation families {sorted(unknown)}; "
            f"known: {sorted(_FAMILY_ADDERS)} or graph-shaped "
            "(ring:N, complete:N, figure3)"
        )
    bad_stages = [stage for stage in stages if not valid_stage(stage)]
    if bad_stages:
        raise ValueError(
            f"unknown shock stages {sorted(bad_stages)}; "
            f"known: {list(DEFAULT_STAGES)}, 'round:K', or 'all'"
        )


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
        _family_adder(family)(matrix, premium_fractions, shock_fractions, stages)
        if coalitions:
            for coalition in ABLATION_COALITIONS.get(family, ()):
                _COALITION_ADDERS[(family, coalition)](
                    matrix, premium_fractions, shock_fractions, stages
                )
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
    if family not in _FAMILY_ADDERS and not is_graph_family(family):
        raise ValueError(
            f"unknown ablation family {family!r}; known: "
            f"{sorted(_FAMILY_ADDERS)} or graph-shaped "
            "(ring:N, complete:N, figure3)"
        )
    if not valid_stage(stage) or stage == STAGE_ALL:
        raise ValueError(
            f"ablation_cell needs one concrete stage, got {stage!r} "
            f"(known: {list(DEFAULT_STAGES)} or 'round:K')"
        )
    pi = canon_float(pi)
    shock = canon_float(shock)
    matrix = ScenarioMatrix(seed=seed)
    if coalition:
        adder = _COALITION_ADDERS.get((family, coalition))
        if adder is None:
            raise ValueError(
                f"unknown coalition {coalition!r} for family {family!r}; "
                f"known: {sorted(ABLATION_COALITIONS.get(family, ()))}"
            )
        adder(matrix, (pi,), (shock,), (stage,))
    else:
        _family_adder(family)(matrix, (pi,), (shock,), (stage,))
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
