"""The protocol-family registry for campaigns.

Each ``add_*`` helper contributes one family's blocks to a
:class:`repro.campaign.matrix.ScenarioMatrix`: the protocol builder(s),
the premium/timeout schedules worth sweeping, the per-party adversary
strategy space, and the paper properties to assert on every outcome.
:func:`default_matrix` assembles the standard all-families campaign — the
matrix the CLI, the benchmarks, and the smoke tests run — and registers
itself as the ``default`` worker-pool factory so persistent pools can
rebuild it on the far side of a fork.

The swept axes (beyond adversary subset × strategy × deviation round):

- **two-party** — a premium-growth *grid* (``premium_a`` × ``premium_b``,
  not just the paper's two example points) and stretched ``k·Δ`` timeout
  schedules (every deadline multiplied by ``k``, modelling slower chains),
- **multi-party** — the paper's Figure-3 graph plus ``ring:N`` and
  ``complete:N`` topologies up to 8 parties,
- **broker** — premium schedules,
- **auction** / **sealed-auction** — every auctioneer strategy × bidder
  halts, open-bid and commit–reveal forms, hedged and unhedged,
- **bootstrap** — halts at every rung of the two-stage ladder.

Every block's ``builder_id`` reads like a qualname because those bytes
are inside committed digests.

Imports from ``repro.checker`` and the protocol cores are deliberately
function-local: the checker is a *client* of the campaign engine, so the
campaign package must not depend on it at import time.
"""

from __future__ import annotations

from typing import Iterable

from repro.campaign.matrix import ScenarioMatrix
from repro.campaign.pool import MatrixSpec, register_matrix_factory

FAMILY_NAMES = (
    "two-party",
    "multi-party",
    "broker",
    "auction",
    "sealed-auction",
    "bootstrap",
)

TWO_PARTY_METHODS = ("deposit_premium", "escrow_principal", "redeem")

#: the premium-growth grid: every (p_a, p_b) pair swept by `add_two_party`.
TWO_PARTY_PREMIUM_GRID = tuple(
    (premium_a, premium_b) for premium_a in (1, 2, 3) for premium_b in (1, 2)
)

#: deadline stretch factors (k·Δ schedules) swept by `add_two_party`.
TWO_PARTY_STRETCH_FACTORS = (2, 3)


def add_two_party(matrix: ScenarioMatrix, max_adversaries: int | None = None) -> None:
    """Hedged two-party swap (§5.2): halts, skips, lags; premium grid and
    stretched k·Δ timeout schedules."""
    from repro.checker import properties as props
    from repro.checker.strategies import full_strategy_space
    from repro.core.hedged_two_party import HedgedTwoPartySpec, HedgedTwoPartySwap

    schedules = [
        (f"p{premium_a}:{premium_b}", HedgedTwoPartySpec(
            premium_a=premium_a, premium_b=premium_b))
        for premium_a, premium_b in TWO_PARTY_PREMIUM_GRID
    ]
    schedules += [
        (f"p2:1/k{k}", HedgedTwoPartySpec().stretched(k))
        for k in TWO_PARTY_STRETCH_FACTORS
    ]
    for name, spec in schedules:
        instance = HedgedTwoPartySwap(spec).build()
        space = full_strategy_space(
            instance.horizon, TWO_PARTY_METHODS, max_skip_subset=2, max_lag=2
        )
        matrix.add_block(
            family="two-party",
            schedule=name,
            builder=lambda spec=spec: HedgedTwoPartySwap(spec).build(),
            builder_id="add_two_party.<locals>.<lambda>",
            properties=(props.no_stuck_escrow, props.two_party_hedged),
            strategies={party: space for party in instance.actors},
            max_adversaries=2 if max_adversaries is None else max_adversaries,
        )


def add_multi_party(matrix: ScenarioMatrix, max_adversaries: int | None = None) -> None:
    """Hedged multi-party swap (§7.1): halts over graph/premium mixes, from
    the paper's Figure 3 up to 8-party rings and 8-party cliques (each
    graph's p-free premium plan in ``repro.core.premiums`` sizes a clique
    once, taking worst-case funding over inclusion-minimal paths only —
    on ``complete:N`` just the direct arcs; the densest cliques run on
    progressively coarsened halt grids to keep matrix growth
    proportionate)."""
    from repro.checker import properties as props
    from repro.checker.strategies import halt_strategies
    from repro.core.hedged_multi_party import HedgedMultiPartySwap
    from repro.graph.digraph import complete_graph, figure3_graph, ring_graph

    schedules = (
        ("figure3/p1", figure3_graph, 1, 1),
        ("ring3/p2", lambda: ring_graph(3), 2, 1),
        ("ring5/p1", lambda: ring_graph(5), 1, 1),
        ("ring8/p1", lambda: ring_graph(8), 1, 1),
        ("complete3/p1", lambda: complete_graph(3), 1, 1),
        ("complete4/p1", lambda: complete_graph(4), 1, 1),
        ("complete5/p2", lambda: complete_graph(5), 2, 1),
        ("complete6/p1", lambda: complete_graph(6), 1, 2),
        ("complete7/p1", lambda: complete_graph(7), 1, 5),
        ("complete8/p1", lambda: complete_graph(8), 1, 7),
    )
    for name, graph_fn, premium, halt_step in schedules:
        # One graph per block: its premium plan and default leaders
        # then serve every scenario's build, while each build still mints
        # a fresh HedgedMultiPartySwap (and so fresh secrets).
        graph = graph_fn()
        instance = HedgedMultiPartySwap(graph=graph, premium=premium).build()
        matrix.add_block(
            family="multi-party",
            schedule=name,
            builder=lambda g=graph, p=premium: HedgedMultiPartySwap(
                graph=g, premium=p
            ).build(),
            builder_id="add_multi_party.<locals>.<lambda>",
            properties=(props.no_stuck_escrow, props.multi_party_lemmas),
            strategies={
                party: halt_strategies(instance.horizon, step=halt_step)
                for party in instance.actors
            },
            max_adversaries=1 if max_adversaries is None else max_adversaries,
        )


def add_broker(matrix: ScenarioMatrix, max_adversaries: int | None = None) -> None:
    """Hedged broker deal (§8.2): halts over two premium schedules."""
    from repro.checker import properties as props
    from repro.checker.strategies import halt_strategies
    from repro.core.hedged_broker import HedgedBrokerDeal

    for premium in (1, 2):
        instance = HedgedBrokerDeal(premium=premium).build()
        matrix.add_block(
            family="broker",
            schedule=f"p{premium}",
            builder=lambda p=premium: HedgedBrokerDeal(premium=p).build(),
            builder_id="add_broker.<locals>.<lambda>",
            properties=(props.no_stuck_escrow, props.broker_bounds),
            strategies={
                party: halt_strategies(instance.horizon) for party in instance.actors
            },
            max_adversaries=1 if max_adversaries is None else max_adversaries,
        )


def _add_auction_blocks(
    matrix: ScenarioMatrix,
    family: str,
    auction_cls,
    max_adversaries: int | None,
) -> None:
    """Shared §9 sweep: every auctioneer strategy × bidder halts, plus the
    unhedged base form, for either auction variant."""
    from repro.checker import properties as props
    from repro.checker.strategies import halt_strategies
    from repro.core.hedged_auction import AuctioneerStrategy, AuctionSpec

    hedged = AuctionSpec()
    base = AuctionSpec(premium=0)
    for spec, premium_name in ((hedged, "p1"), (base, "p0")):
        for strategy in AuctioneerStrategy:
            if premium_name == "p0" and strategy is not AuctioneerStrategy.HONEST:
                continue  # base form: deviant declarations only swept hedged
            instance = auction_cls(spec=spec, strategy=strategy).build()
            honest = strategy is AuctioneerStrategy.HONEST
            halting = (
                instance.actors
                if honest
                else [p for p in instance.actors if p != spec.auctioneer]
            )
            matrix.add_block(
                family=family,
                schedule=f"{premium_name}/{strategy.value}",
                builder=lambda spec=spec, strategy=strategy, cls=auction_cls: cls(
                    spec=spec, strategy=strategy
                ).build(),
                builder_id="_add_auction_blocks.<locals>.<lambda>",
                properties=(props.no_stuck_escrow, props.auction_lemmas),
                strategies={
                    party: halt_strategies(instance.horizon) for party in halting
                },
                max_adversaries=1 if max_adversaries is None else max_adversaries,
                extra_adversaries=() if honest else (spec.auctioneer,),
            )


def add_auction(matrix: ScenarioMatrix, max_adversaries: int | None = None) -> None:
    """Open-bid ticket auction (§9): every auctioneer strategy × bidder
    halts, plus the unhedged base form."""
    from repro.core.hedged_auction import HedgedAuction

    _add_auction_blocks(matrix, "auction", HedgedAuction, max_adversaries)


def add_sealed_auction(
    matrix: ScenarioMatrix, max_adversaries: int | None = None
) -> None:
    """Sealed-bid (commit–reveal) auction — §9's footnote-8 extension, same
    lemma properties, one extra Δ in the schedule for the reveal phase."""
    from repro.core.hedged_auction import SealedBidAuction

    _add_auction_blocks(matrix, "sealed-auction", SealedBidAuction, max_adversaries)


def add_bootstrap(matrix: ScenarioMatrix, max_adversaries: int | None = None) -> None:
    """Bootstrapped swap (§6): halts at every round of a two-stage ladder."""
    from repro.checker import properties as props
    from repro.core.bootstrap import BootstrappedSwap, BootstrapSpec
    from repro.checker.strategies import halt_strategies

    spec = BootstrapSpec(amount_a=10_000, amount_b=10_000, rate=10, rounds=2)
    instance = BootstrappedSwap(spec).build()
    matrix.add_block(
        family="bootstrap",
        schedule="10k/P10/r2",
        builder=lambda spec=spec: BootstrappedSwap(spec).build(),
        builder_id="add_bootstrap.<locals>.<lambda>",
        properties=(props.no_stuck_escrow, props.bootstrap_hedged),
        strategies={
            party: halt_strategies(instance.horizon) for party in instance.actors
        },
        max_adversaries=1 if max_adversaries is None else max_adversaries,
    )


_FAMILY_ADDERS = {
    "two-party": add_two_party,
    "multi-party": add_multi_party,
    "broker": add_broker,
    "auction": add_auction,
    "sealed-auction": add_sealed_auction,
    "bootstrap": add_bootstrap,
}


def default_matrix_spec(
    families: Iterable[str] | None = None,
    seed: int = 0,
    max_adversaries: int | None = None,
) -> MatrixSpec:
    """The (validated, normalized) rebuild recipe of :func:`default_matrix`
    — computable without expanding a single block, which is what lets
    experiment specs be emitted cheaply.  :func:`default_matrix` builds
    from this same recipe, so ``default_matrix(...).spec`` and
    ``default_matrix_spec(...)`` are always equal.
    """
    chosen = (
        tuple(dict.fromkeys(families)) if families is not None else FAMILY_NAMES
    )
    unknown = set(chosen) - set(_FAMILY_ADDERS)
    if unknown:
        raise ValueError(
            f"unknown families {sorted(unknown)}; known: {sorted(_FAMILY_ADDERS)}"
        )
    return MatrixSpec(
        factory="default",
        kwargs=(
            ("families", chosen),
            ("max_adversaries", max_adversaries),
            ("seed", seed),
        ),
    )


def default_matrix(
    families: Iterable[str] | None = None,
    seed: int = 0,
    max_adversaries: int | None = None,
) -> ScenarioMatrix:
    """The standard adversarial campaign over the requested families.

    The returned matrix carries a ``spec`` (its rebuild recipe), so it can
    be dispatched through a persistent :class:`repro.campaign.pool.WorkerPool`.
    """
    spec = default_matrix_spec(
        families=families, seed=seed, max_adversaries=max_adversaries
    )
    matrix = ScenarioMatrix(seed=seed)
    for name in dict(spec.kwargs)["families"]:
        _FAMILY_ADDERS[name](matrix, max_adversaries)
    matrix.spec = spec
    return matrix


register_matrix_factory("default", default_matrix)
