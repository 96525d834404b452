"""Rational (opportunistic) actors: deviate only when it pays.

§1: "a sudden decrease in an asset's value may motivate a party to abandon
a swap midway ... if either asset diminishes significantly in relative
value to the other, then one party has an incentive to quit at the other's
expense."

:class:`Opportunist` wraps a compliant actor with a *decision function*
evaluated each round: while it returns True the inner actor runs; the first
False halts participation permanently (a rational sore loser does not come
back).

The decision calculus is packaged as a :class:`UtilityModel` — two
view-functions, the *marginal* value of completing the protocol and the
cost of walking away right now — so one rational wrapper serves every
protocol family.  Both sides are read *live* from contract state through
two generic inspectors:

- :func:`pending_completion_gain` — the flows still in play: principal
  the party has yet to receive counts for completing, principal it has
  yet to lock counts against, and *sunk* flows count zero (an escrowed
  swap principal the counterparties can redeem without the walker, a
  payment already collected).  Marginal accounting is what keeps the
  actor rational over the whole run: once only its own redemption is
  left, completing dominates at any shock — a naive whole-protocol
  valuation would walk out of collecting its own money,
- :func:`held_premium_stake` — the premiums a party currently has at risk
  (its hedged-escrow premium, its swap-arc escrow/redemption premiums, its
  broker E/T/R deposits, an auctioneer's per-bid endowment exposure), which
  walking forfeits to the counterparties.

:func:`rational_bob` — the §1 Bob for the two-party swaps — is now a thin
instance of the framework: he compares the value of completing the swap
against the premium he forfeits by walking, under an exogenous price path
for Alice's asset.  :func:`swap_party_model` generalizes the same calculus
to any party of any hedged swap/deal protocol (two-party, multi-party,
broker), :func:`auction_model` to the §9 auctioneer, and
:func:`coalition_model` to *joint* pivots — a colluding pair whose
internal transfers and member-to-member premium forfeits net to zero, so
only externally-forfeited premiums deter the collusive walk.

With a zero premium (the base protocols) any price drop makes walking
optimal; a hedged premium stake of S makes walking irrational for all
value drops smaller than S — the paper's deterrence claim, which
`benchmarks/bench_rational.py` measures on live two-party runs and
`repro.campaign.ablation` maps across the premium × shock grid for every
family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.chain.block import Transaction
from repro.parties.base import Actor

DecisionFn = Callable[[int, "WorldView"], bool]
PricePath = Callable[[int], float]
#: per-unit asset price under an exogenous path: (asset, height) -> value.
AssetPriceFn = Callable[[object, int], float]
#: (chain, address) pairs of the contracts a model may inspect.
ContractRefs = Iterable[tuple[str, str]]


class Opportunist(Actor):
    """Runs the inner actor while ``decide(rnd, view)`` stays True."""

    def __init__(self, inner: Actor, decide: DecisionFn) -> None:
        super().__init__(inner.name, inner.keypair)
        self.inner = inner
        self.decide = decide
        self.walked_at: int | None = None

    def on_round(self, rnd: int, view) -> list[Transaction]:
        if self.walked_at is not None:
            return []
        if not self.decide(rnd, view):
            self.walked_at = rnd
            return []
        return self.inner.on_round(rnd, view)


def price_shock(base: float, shock_fraction: float, at_height: int) -> PricePath:
    """A price path that drops ``base`` by ``shock_fraction`` at a height."""

    def price(height: int) -> float:
        return base * (1.0 - shock_fraction) if height >= at_height else base

    return price


@dataclass(frozen=True)
class TokenPrices:
    """Exogenous per-unit prices with one optional shocked token.

    Native (premium) assets are the numeraire at 1.0; every other token
    takes its value from ``base`` (default 1.0), and the ``shocked`` token
    drops by ``fraction`` from ``at_height`` on.  Instances are callables
    with the :data:`AssetPriceFn` signature, usable both inside a
    :class:`UtilityModel` and to value final payoffs
    (:meth:`repro.sim.payoff.PayoffSheet.realized_utility`).
    """

    base: tuple[tuple[str, float], ...] = ()
    shocked: str | None = None
    fraction: float = 0.0
    at_height: int = 0

    def __call__(self, asset, height: int) -> float:
        if getattr(asset, "is_native", False):
            return 1.0
        symbol = getattr(asset, "symbol", str(asset))
        # Hot path (every per-round decision and utility term): cache the
        # base dict in the frozen instance's __dict__, like cached_property.
        base = self.__dict__.get("_base_map")
        if base is None:
            base = dict(self.base)
            self.__dict__["_base_map"] = base
        value = base.get(symbol, 1.0)
        if self.shocked == symbol and height >= self.at_height:
            value *= 1.0 - self.fraction
        return value


@dataclass(frozen=True)
class UtilityModel:
    """One party's rational-deviation calculus, evaluated per round.

    ``completion_gain(view)`` is the value of seeing the protocol through
    (what the party receives minus what it gives, at current prices);
    ``walk_cost(view)`` is what walking away *right now* destroys (premium
    stakes forfeited plus own escrowed principals abandoned).  The rational
    rule — continue iff ``completion_gain >= -walk_cost`` — walks exactly
    when quitting at the counterparties' expense beats finishing; ties
    complete (walking has no strict advantage).
    """

    party: str
    completion_gain: Callable[[object], float] = field(repr=False)
    walk_cost: Callable[[object], float] = field(repr=False)

    def decide(self, rnd: int, view) -> bool:
        return self.completion_gain(view) >= -self.walk_cost(view)


def rational_party(inner: Actor, model: UtilityModel) -> Opportunist:
    """Wrap a compliant actor with a utility model's walk rule."""
    return Opportunist(inner, model.decide)


# ----------------------------------------------------------------------
# generic contract-state inspectors
# ----------------------------------------------------------------------
def held_premium_stake(
    party: str,
    view,
    contracts: ContractRefs,
    exclude_beneficiaries: frozenset[str] = frozenset(),
) -> float:
    """Premiums ``party`` currently has at risk across the given contracts.

    A held deposit refunds when its depositor completes its role and is
    awarded to the counterparties when it walks — so the held total is
    exactly the walk-forfeit the paper's premiums are sized to create.
    Contract kinds are matched structurally, so one inspector covers every
    hedged protocol in the library.

    ``exclude_beneficiaries`` drops deposits whose forfeit would flow to
    one of the named parties.  A coalition pricing a *joint* walk passes
    its own member set: a premium forfeited member-to-member stays inside
    the coalition, so it deters nothing — which is exactly why collusive
    walks need larger premiums than single-pivot ones.
    """
    total = 0.0
    for chain_name, address in contracts:
        contract = view.chain(chain_name).contract(address)
        kind = getattr(contract, "kind", "")
        if kind == "hedged-escrow":
            # The redeemer's premium compensates the principal's owner.
            if (
                contract.redeemer == party
                and contract.premium_state == "held"
                and contract.principal_owner not in exclude_beneficiaries
            ):
                total += contract.premium_amount
        elif kind == "hedged-swap-arc":
            # u's escrow premium compensates v; v's redemption deposits
            # compensate u for its locked asset.
            if (
                contract.u == party
                and contract.escrow_premium_state == "held"
                and contract.v not in exclude_beneficiaries
            ):
                total += contract.escrow_premium_amount
            if contract.v == party and contract.u not in exclude_beneficiaries:
                total += sum(
                    deposit.amount
                    for deposit in contract.redemption_deposits.values()
                    if deposit.state == "held"
                )
        elif kind == "hedged-broker":
            # An escrower's E deposit reimburses the broker's passthrough;
            # the broker's T deposit compensates the asset's owner; an
            # rdeposit on arc (x, y) compensates x for its locked asset.
            if (
                contract.owner == party
                and contract.escrow_premium_state == "held"
                and contract.broker not in exclude_beneficiaries
            ):
                total += contract.escrow_premium_amount
            if (
                contract.broker == party
                and contract.trading_premium_state == "held"
                and contract.owner not in exclude_beneficiaries
            ):
                total += contract.trading_premium_amount
            total += sum(
                deposit.amount
                for (arc, _), deposit in contract.rdeposits.items()
                if arc[1] == party
                and deposit.state == "held"
                and arc[0] not in exclude_beneficiaries
            )
        elif kind == "auction-coin":
            # The auctioneer's endowment pays each actual bidder p if she
            # wrecks the auction; until settlement that exposure is p per
            # bid already placed (a bidder who never bid is owed nothing).
            if (
                contract.auctioneer == party
                and contract.endowment
                and not contract.settled
            ):
                total += contract.premium * sum(
                    1
                    for bidder in contract.bids
                    if bidder not in exclude_beneficiaries
                )
    return total


def completion_gain_terms(
    party: str,
    view,
    contracts: ContractRefs,
    coalition: frozenset[str] = frozenset(),
):
    """The pending completion flows as ``(sign, amount, asset)`` terms.

    This is the symbolic form of :func:`pending_completion_gain`: each
    yielded term contributes ``sign · amount · price_of(asset, height)``
    to the marginal completion gain, in contract-directory order.  Keeping
    the term enumeration separate from the price fold gives the
    ablation kernel (`repro.campaign.ablation.kernels`) the *same* flow
    list the live simulator folds — one source of truth, so replaying the
    fold under a grid of price paths is bit-identical by construction.
    """
    for chain_name, address in contracts:
        contract = view.chain(chain_name).contract(address)
        kind = getattr(contract, "kind", "")
        if kind == "hedged-escrow":
            if contract.redeemer == party and contract.principal_state in (
                "absent",
                "escrowed",
            ):
                if not (
                    contract.principal_state == "escrowed"
                    and contract.principal_owner in coalition
                ):
                    yield (
                        1,
                        contract.principal_amount,
                        contract.principal_asset,
                    )
            if (
                contract.principal_owner == party
                and contract.principal_state == "absent"
            ):
                yield (-1, contract.principal_amount, contract.principal_asset)
        elif kind == "hedged-swap-arc":
            if contract.v == party and contract.principal_state in (
                "absent",
                "escrowed",
            ):
                if not (
                    contract.principal_state == "escrowed"
                    and contract.u in coalition
                ):
                    yield (1, contract.amount, contract.asset)
            if contract.u == party and contract.principal_state == "absent":
                yield (-1, contract.amount, contract.asset)
        elif kind == "hedged-broker":
            if contract.escrow_state in ("absent", "escrowed"):
                for recipient, amount in contract.payouts:
                    if recipient == party:
                        yield (1, amount, contract.asset)
            if (
                contract.owner == party
                and contract.escrow_state in ("absent", "escrowed")
                and party not in contract.accepted
            ):
                yield (-1, contract.amount, contract.asset)


def pending_completion_gain(
    party: str,
    view,
    contracts: ContractRefs,
    price_of: AssetPriceFn,
    coalition: frozenset[str] = frozenset(),
) -> float:
    """The marginal value of completing, from here: pending in minus out.

    Only unresolved flows count.  Principal the party has yet to receive
    is a gain of completing; principal it has yet to *lock* is a cost
    (walking keeps it); principal already escrowed in a swap is sunk — the
    counterparties can redeem it whether the party continues or not — and
    contributes nothing either way.  The broker deal differs on that last
    point: redemption there needs every party's hashkey, so an escrowed
    deal asset stays recoverable (and hence a completion cost) until the
    owner's own key is out.

    ``coalition`` adjusts the sunk-escrow rule for joint valuations: an
    asset a coalition member escrowed toward *another member* is not sunk
    for the coalition (a joint walk refunds it inside the member set, a
    completion merely moves it inside the member set), so the receiving
    member's pending-in term is dropped — summing members' gains then
    nets every internal transfer to zero.  Arcs whose escrow is still
    absent already cancel in the sum (+value for the redeemer, −value for
    the owner), and broker flows cancel through the owner's recoverable
    cost term, so this is the only internal case needing a rule.

    The flow enumeration lives in :func:`completion_gain_terms`; this is
    the price fold over it, term order preserved.
    """
    total = 0.0
    for sign, amount, asset in completion_gain_terms(
        party, view, contracts, coalition
    ):
        value = amount * price_of(asset, view.height)
        if sign > 0:
            total += value
        else:
            total -= value
    return total


# ----------------------------------------------------------------------
# role models
# ----------------------------------------------------------------------
def swap_party_model(
    party: str, prices: AssetPriceFn, contracts: ContractRefs
) -> UtilityModel:
    """Rational actor for one party of any hedged swap/deal protocol.

    Fully generic: the marginal completion gain and the walk-forfeit are
    both read live from the given contracts, so the same model serves a
    two-party escrow pair, a multi-party arc set, and a broker deal —
    zero stake before anything is deposited, the full escrow + redemption
    exposure mid-protocol, pure collection (never walk) once only the
    party's own redemptions remain.
    """

    def gain(view) -> float:
        return pending_completion_gain(party, view, contracts, prices)

    def walk_cost(view) -> float:
        return held_premium_stake(party, view, contracts)

    return UtilityModel(party, gain, walk_cost)


def two_party_model(
    spec, prices: AssetPriceFn, contracts: ContractRefs
) -> UtilityModel:
    """Rational Bob for a two-party swap spec (a :func:`swap_party_model`)."""
    return swap_party_model(spec.bob, prices, contracts)


def coalition_model(
    parties: Iterable[str], prices: AssetPriceFn, contracts: ContractRefs
) -> UtilityModel:
    """One joint rational calculus for a colluding pivot set.

    The coalition walks (every member halts in the same round) exactly
    when the *joint* completion gain falls below the joint walk cost —
    both summed over members with internal flows netted out:

    - transfers between members contribute nothing to the joint gain
      (see :func:`pending_completion_gain`'s ``coalition`` rule), and
    - premiums that would forfeit member-to-member deter nothing (see
      :func:`held_premium_stake`'s ``exclude_beneficiaries``).

    Only externally-forfeited premiums remain as the deterrent, so a
    coalition's deterrence threshold π* is at least the single-pivot one —
    the collusive frontier the ablation refine engine prices.  Wrap each
    member with :func:`rational_party` around the *same* model instance so
    the decisions stay synchronized.
    """
    members = frozenset(parties)

    def gain(view) -> float:
        return sum(
            pending_completion_gain(p, view, contracts, prices, coalition=members)
            for p in sorted(members)
        )

    def walk_cost(view) -> float:
        return sum(
            held_premium_stake(p, view, contracts, exclude_beneficiaries=members)
            for p in sorted(members)
        )

    return UtilityModel("+".join(sorted(members)), gain, walk_cost)


def auction_model(spec, prices: AssetPriceFn, contracts: ContractRefs) -> UtilityModel:
    """Rational auctioneer for the §9 ticket auction.

    Completing trades the escrowed tickets for the best bid; walking
    (never declaring a winner) wrecks the auction, which refunds the
    tickets and bids but pays each bidder ``p`` from her endowment — the
    held-stake inspector's ``auction-coin`` rule.
    """
    best_bid = max(spec.bids.values(), default=0)

    def gain(view) -> float:
        coin = view.chain(spec.coin_chain).asset(spec.coin_token)
        ticket = view.chain(spec.ticket_chain).asset(spec.ticket_token)
        return best_bid * prices(coin, view.height) - spec.tickets * prices(
            ticket, view.height
        )

    def walk_cost(view) -> float:
        return held_premium_stake(spec.auctioneer, view, contracts)

    return UtilityModel(spec.auctioneer, gain, walk_cost)


def rational_bob(
    inner: Actor,
    spec,
    price_of_a: PricePath,
    price_of_b: float = 1.0,
    premium_contract: tuple[str, str] | None = None,
) -> Opportunist:
    """The §1 rational Bob for a two-party swap (legacy interface).

    Each round Bob values completing the swap at
    ``amount_a · price_of_a(height) − amount_b · price_of_b`` (what he
    receives minus what he gives).  Walking away costs him the premium he
    stands to forfeit — ``p_b`` once his deposit is held by the hedged
    protocol's apricot contract (pass its ``(chain, address)`` as
    ``premium_contract``), nothing in the base protocol (pass ``None``).
    He continues iff completing is at least as good as walking.

    This is :func:`two_party_model` with scalar price paths and the stake
    restricted to the one premium contract.
    """

    def gain(view) -> float:
        return spec.amount_a * price_of_a(view.height) - spec.amount_b * price_of_b

    def walk_cost(view) -> float:
        if premium_contract is None:
            return 0.0
        return held_premium_stake(inner.name, view, (premium_contract,))

    return rational_party(inner, UtilityModel(inner.name, gain, walk_cost))
