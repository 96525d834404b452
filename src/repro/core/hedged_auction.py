"""The hedged auction protocol — §9.

Alice auctions tickets to ``n`` bidders.  Bidders pay no premiums (they
cannot lock anyone's assets); Alice endows the coin contract with ``n·p``,
refunded on an honest completion and paid out ``p`` per bidder when the
auction is wrecked (she abandons it or is caught publishing the wrong
hashkey).  Bidders protect themselves in the challenge phase by copying
hashkeys across contracts (Lemma 7), which guarantees no compliant bidder's
bid can be stolen (Lemma 8).

`AuctioneerStrategy` enumerates the deviant declarations used by the tests,
benchmarks, and model checker: publishing the loser's key, publishing on a
single chain only, publishing both keys, or abandoning the declaration.

The module also ships a commit–reveal variant
(:class:`CommitRevealAuction`), flagged by the paper (footnote 8) as the
realistic sealed-bid extension: bids are hash commitments during the
bidding phase and reveal before declaration.  It reuses the same
declaration/challenge/commit machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.chain.block import Transaction
from repro.contracts.auction import (
    AuctionDeadlines,
    CoinAuctionContract,
    TicketAuctionContract,
)
from repro.crypto.hashing import Secret, sha256_hex
from repro.crypto.hashkeys import HashKey
from repro.parties.base import Actor, next_of
from repro.protocols.instance import ProtocolInstance
from repro.sim.runner import RunResult
from repro.sim.world import World, WorldView


class AuctioneerStrategy(enum.Enum):
    """How Alice behaves in the declaration phase."""

    HONEST = "honest"
    PUBLISH_LOSER = "publish-loser"
    PUBLISH_TICKET_ONLY = "publish-ticket-only"
    PUBLISH_COIN_ONLY = "publish-coin-only"
    PUBLISH_BOTH_KEYS = "publish-both-keys"
    ABANDON = "abandon"


@dataclass(frozen=True)
class AuctionSpec:
    """Parameters of one auction (defaults: the paper's 2-bidder story)."""

    auctioneer: str = "Alice"
    bidders: tuple[str, ...] = ("Bob", "Carol")
    bids: dict[str, int] = field(default_factory=lambda: {"Bob": 120, "Carol": 90})
    ticket_chain: str = "ticket-chain"
    coin_chain: str = "coin-chain"
    ticket_token: str = "ticket"
    coin_token: str = "coin"
    tickets: int = 1
    premium: int = 1  # 0 = base (unhedged) §9.1 protocol


class AuctioneerActor(Actor):
    """Alice: setup, then declare per strategy, never forwards keys."""

    #: the round in which bids become visible and Alice declares
    declaration_round = 2

    def __init__(self, name, keypair, spec, secrets, addrs, strategy):
        super().__init__(name, keypair)
        self.spec = spec
        self.secrets = secrets  # bidder -> Secret designating that bidder
        self.ticket_addr, self.coin_addr = addrs
        self.strategy = strategy
        self.declared = False

    def _key_for(self, bidder: str) -> HashKey:
        return HashKey.originate(self.secrets[bidder], self.keypair, self.name)

    def _declaration_plan(self, coin) -> list[tuple[str, tuple[str, str]]]:
        """(bidder-to-designate, target contract) pairs per the strategy."""
        spec = self.spec
        winner = coin.high_bidder
        if winner is None or self.strategy is AuctioneerStrategy.ABANDON:
            return []
        loser = next((b for b in spec.bidders if b != winner), winner)
        both = [
            (spec.ticket_chain, self.ticket_addr),
            (spec.coin_chain, self.coin_addr),
        ]
        if self.strategy is AuctioneerStrategy.HONEST:
            return [(winner, t) for t in both]
        if self.strategy is AuctioneerStrategy.PUBLISH_LOSER:
            return [(loser, t) for t in both]
        if self.strategy is AuctioneerStrategy.PUBLISH_TICKET_ONLY:
            return [(winner, both[0])]
        if self.strategy is AuctioneerStrategy.PUBLISH_COIN_ONLY:
            return [(winner, both[1])]
        if self.strategy is AuctioneerStrategy.PUBLISH_BOTH_KEYS:
            return [(b, t) for b in (winner, loser) for t in both]
        return []

    def idle_until(self, rnd: int) -> int:
        return next_of((self.declaration_round,), rnd)

    def on_round(self, rnd: int, view: WorldView) -> list[Transaction]:
        spec, txs = self.spec, []
        coin = view.chain(spec.coin_chain).contract(self.coin_addr)
        ticket = view.chain(spec.ticket_chain).contract(self.ticket_addr)

        if rnd == 0:
            if not ticket.escrowed:
                txs.append(self.tx(spec.ticket_chain, self.ticket_addr, "escrow_tickets"))
            if spec.premium and coin.endowment == 0:
                txs.append(self.tx(spec.coin_chain, self.coin_addr, "endow_premium"))

        if rnd == self.declaration_round and not self.declared:
            self.declared = True
            for bidder, (chain_name, address) in self._declaration_plan(coin):
                txs.append(
                    self.tx(chain_name, address, "present_hashkey", hashkey=self._key_for(bidder))
                )
        return txs


class BidderActor(Actor):
    """A bidder: bid in round 1, then run the challenge phase (Lemma 7)."""

    def __init__(self, name, keypair, spec, addrs):
        super().__init__(name, keypair)
        self.spec = spec
        self.ticket_addr, self.coin_addr = addrs
        self.forwarded: set[tuple[str, str]] = set()

    def idle_until(self, rnd: int) -> int:
        # Bid in round 1; from round 3 on, forward keys as they appear.
        return next_of((1, 3), rnd)

    def on_round(self, rnd: int, view: WorldView) -> list[Transaction]:
        spec, txs = self.spec, []
        coin = view.chain(spec.coin_chain).contract(self.coin_addr)
        ticket = view.chain(spec.ticket_chain).contract(self.ticket_addr)

        # Bid only into a properly set-up auction: the tickets must be in
        # escrow and (in the hedged form) the premium endowment present —
        # both are visible on-chain before the bidding round.
        setup_ok = ticket.escrowed and (
            spec.premium == 0 or coin.endowment >= spec.premium * len(spec.bidders)
        )
        if rnd == 1 and setup_ok and self.name not in coin.bids:
            amount = spec.bids.get(self.name, 0)
            if amount > 0:
                txs.append(self.tx(spec.coin_chain, self.coin_addr, "bid", amount=amount))

        # Challenge phase: copy keys across contracts.
        if rnd >= 3:
            sides = [
                (ticket, coin, spec.coin_chain, self.coin_addr),
                (coin, ticket, spec.ticket_chain, self.ticket_addr),
            ]
            for source, target, target_chain, target_addr in sides:
                for designated, hashkey in sorted(source.accepted.items()):
                    if designated in target.accepted:
                        continue
                    if (designated, target_chain) in self.forwarded:
                        continue
                    if self.name in hashkey.path:
                        continue
                    self.forwarded.add((designated, target_chain))
                    txs.append(
                        self.tx(
                            target_chain,
                            target_addr,
                            "present_hashkey",
                            hashkey=hashkey.extend(self.keypair, self.name),
                        )
                    )
        return txs


@dataclass
class AuctionOutcome:
    """Condensed result of one auction run."""

    winner_expected: str | None
    coin_outcome: str
    ticket_outcome: str
    tickets_to: str
    premium_net: dict[str, int]
    coins_delta: dict[str, int]
    bids: dict[str, int]

    def bid_stolen(self, bidder: str) -> bool:
        """True iff the bidder paid coins without receiving the tickets."""
        paid = self.coins_delta.get(bidder, 0) < 0
        return paid and self.tickets_to != bidder


def extract_auction_outcome(instance: ProtocolInstance, result: RunResult) -> AuctionOutcome:
    spec: AuctionSpec = instance.meta["spec"]
    payoffs = result.payoffs
    assert payoffs is not None
    coin = instance.contract("coin")
    ticket = instance.contract("ticket")
    coin_asset = instance.world.chain(spec.coin_chain).asset(spec.coin_token)
    parties = (spec.auctioneer,) + spec.bidders
    return AuctionOutcome(
        winner_expected=coin.high_bidder,
        coin_outcome=coin.outcome,
        ticket_outcome=ticket.outcome,
        tickets_to=ticket.awarded_to,
        premium_net={p: payoffs.premium_net(p) for p in parties},
        coins_delta={p: payoffs.delta(p).get(coin_asset, 0) for p in parties},
        bids=dict(coin.bids),
    )


class HedgedAuction:
    """Builder for the §9 auction (``premium=0`` gives the base §9.1 form)."""

    def __init__(
        self,
        spec: AuctionSpec | None = None,
        strategy: AuctioneerStrategy = AuctioneerStrategy.HONEST,
        secrets: dict[str, Secret] | None = None,
    ) -> None:
        self.spec = spec or AuctionSpec()
        self.strategy = strategy
        self.secrets = secrets or {
            bidder: Secret.generate(f"designates-{bidder}") for bidder in self.spec.bidders
        }

    def build(self) -> ProtocolInstance:
        spec = self.spec
        world = World([spec.ticket_chain, spec.coin_chain])
        parties = (spec.auctioneer,) + spec.bidders
        keys = {name: world.register_party(name) for name in parties}

        world.fund(spec.ticket_chain, spec.auctioneer, spec.ticket_token, spec.tickets)
        world.fund(
            spec.coin_chain, spec.auctioneer, "native", spec.premium * len(spec.bidders)
        )
        for bidder in spec.bidders:
            world.fund(spec.coin_chain, bidder, spec.coin_token, spec.bids.get(bidder, 0))

        hashlocks = {bidder: self.secrets[bidder].hashlock for bidder in spec.bidders}
        deadlines = AuctionDeadlines()
        ticket_host = world.chain(spec.ticket_chain)
        coin_host = world.chain(spec.coin_chain)

        ticket_addr = ticket_host.deploy(
            TicketAuctionContract(
                auctioneer=spec.auctioneer,
                bidders=spec.bidders,
                hashlocks=hashlocks,
                public_of=world.public_of,
                deadlines=deadlines,
                ticket_asset=ticket_host.asset(spec.ticket_token),
                tickets=spec.tickets,
            )
        )
        coin_addr = coin_host.deploy(
            CoinAuctionContract(
                auctioneer=spec.auctioneer,
                bidders=spec.bidders,
                hashlocks=hashlocks,
                public_of=world.public_of,
                deadlines=deadlines,
                coin_asset=coin_host.asset(spec.coin_token),
                premium=spec.premium,
            )
        )

        addrs = (ticket_addr, coin_addr)
        actors: dict[str, Actor] = {
            spec.auctioneer: AuctioneerActor(
                spec.auctioneer, keys[spec.auctioneer], spec, self.secrets, addrs, self.strategy
            )
        }
        for bidder in spec.bidders:
            actors[bidder] = BidderActor(bidder, keys[bidder], spec, addrs)

        return ProtocolInstance(
            world=world,
            actors=actors,
            horizon=deadlines.horizon,
            contracts={
                "ticket": (spec.ticket_chain, ticket_addr),
                "coin": (spec.coin_chain, coin_addr),
            },
            meta={"spec": spec, "deadlines": deadlines, "strategy": self.strategy},
        )


# ----------------------------------------------------------------------
# commit-reveal extension (paper footnote 8 — out of the paper's scope,
# implemented here as the documented "future work" variant)
# ----------------------------------------------------------------------
class CommitRevealCoinContract(CoinAuctionContract):
    """Sealed bids: commit a salted hash, reveal before declaration.

    The schedule gains one phase: commits land by ``bidding``, reveals by
    ``bidding + 1``; declaration and everything after shift accordingly
    (the builder passes shifted :class:`AuctionDeadlines`).  Unrevealed
    commitments forfeit nothing — the deposit moves only at reveal time.
    """

    kind = "auction-coin-cr"

    def __init__(self, *args, reveal_deadline: int, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reveal_deadline = reveal_deadline
        self.commitments: dict[str, str] = {}

    def bid(self, ctx: CallContext, amount: int) -> None:  # type: ignore[override]
        self.require(False, "sealed auction: use commit_bid / reveal_bid")

    def commit_bid(self, ctx: CallContext, commitment: str) -> None:
        """Record ``H(amount || salt)`` during the bidding phase."""
        self.require(ctx.sender in self.bidders, f"{ctx.sender} is not a bidder")
        self.require(ctx.sender not in self.commitments, "already committed")
        self.require(ctx.height <= self.deadlines.bidding, "bidding closed")
        self.commitments[ctx.sender] = commitment
        self.emit("bid_committed", bidder=ctx.sender)

    def reveal_bid(self, ctx: CallContext, amount: int, salt: bytes) -> None:
        """Open the commitment and deposit the coins."""
        self.require(ctx.sender in self.commitments, "no commitment to reveal")
        self.require(ctx.sender not in self.bids, "already revealed")
        self.require(ctx.height <= self.reveal_deadline, "reveal closed")
        digest = sha256_hex(f"{amount}|".encode() + salt)
        self.require(digest == self.commitments[ctx.sender], "commitment mismatch")
        self.require(amount > 0, "bid must be positive")
        self.pull(self.coin_asset, ctx.sender, amount)
        self.bids[ctx.sender] = amount
        self.bid_at[ctx.sender] = ctx.height
        self.emit("bid_revealed", bidder=ctx.sender, amount=amount)


def commitment_for(amount: int, salt: bytes) -> str:
    """The commitment digest bidders publish in a sealed auction."""
    return sha256_hex(f"{amount}|".encode() + salt)


class SealedAuctioneerActor(AuctioneerActor):
    """Alice for the sealed auction: declaration waits for the reveals
    (which land at height 3, one Δ after the commitments)."""

    declaration_round = 3


class SealedBidderActor(Actor):
    """A bidder in the sealed auction: commit, reveal, then challenge."""

    def __init__(self, name, keypair, spec, addrs, salt: bytes):
        super().__init__(name, keypair)
        self.spec = spec
        self.ticket_addr, self.coin_addr = addrs
        self.salt = salt
        self.forwarded: set[tuple[str, str]] = set()

    def idle_until(self, rnd: int) -> int:
        # Commit in round 1, reveal in round 2, forward keys from round 4.
        return next_of((1, 2, 4), rnd)

    def on_round(self, rnd: int, view: WorldView) -> list[Transaction]:
        spec, txs = self.spec, []
        coin = view.chain(spec.coin_chain).contract(self.coin_addr)
        ticket = view.chain(spec.ticket_chain).contract(self.ticket_addr)
        amount = spec.bids.get(self.name, 0)

        setup_ok = ticket.escrowed and (
            spec.premium == 0 or coin.endowment >= spec.premium * len(spec.bidders)
        )
        if rnd == 1 and setup_ok and amount > 0 and self.name not in coin.commitments:
            txs.append(
                self.tx(
                    spec.coin_chain, self.coin_addr, "commit_bid",
                    commitment=commitment_for(amount, self.salt),
                )
            )
        if rnd == 2 and self.name in coin.commitments and self.name not in coin.bids:
            txs.append(
                self.tx(
                    spec.coin_chain, self.coin_addr, "reveal_bid",
                    amount=amount, salt=self.salt,
                )
            )
        # Challenge phase (shifted one Δ later than the open auction).
        if rnd >= 4:
            sides = [
                (ticket, coin, spec.coin_chain, self.coin_addr),
                (coin, ticket, spec.ticket_chain, self.ticket_addr),
            ]
            for source, target, target_chain, target_addr in sides:
                for designated, hashkey in sorted(source.accepted.items()):
                    if designated in target.accepted:
                        continue
                    if (designated, target_chain) in self.forwarded:
                        continue
                    if self.name in hashkey.path:
                        continue
                    self.forwarded.add((designated, target_chain))
                    txs.append(
                        self.tx(
                            target_chain, target_addr, "present_hashkey",
                            hashkey=hashkey.extend(self.keypair, self.name),
                        )
                    )
        return txs


class SealedBidAuction:
    """Builder for the commit–reveal auction (footnote 8 extension).

    Identical guarantees to :class:`HedgedAuction` — Lemmas 7 and 8 and the
    §9.2 premium payout — with bids hidden until the reveal phase.  The
    schedule gains one Δ: commits land by height 2, reveals by 3,
    declaration by 4, challenge through height 7, commit above 7.
    """

    def __init__(
        self,
        spec: AuctionSpec | None = None,
        strategy: AuctioneerStrategy = AuctioneerStrategy.HONEST,
        secrets: dict[str, Secret] | None = None,
    ) -> None:
        self.spec = spec or AuctionSpec()
        self.strategy = strategy
        self.secrets = secrets or {
            bidder: Secret.generate(f"designates-{bidder}") for bidder in self.spec.bidders
        }

    def build(self) -> ProtocolInstance:
        spec = self.spec
        deadlines = AuctionDeadlines(setup=1, bidding=2, hashkey_base=3, commit=7)
        world = World([spec.ticket_chain, spec.coin_chain])
        parties = (spec.auctioneer,) + spec.bidders
        keys = {name: world.register_party(name) for name in parties}

        world.fund(spec.ticket_chain, spec.auctioneer, spec.ticket_token, spec.tickets)
        world.fund(
            spec.coin_chain, spec.auctioneer, "native", spec.premium * len(spec.bidders)
        )
        for bidder in spec.bidders:
            world.fund(spec.coin_chain, bidder, spec.coin_token, spec.bids.get(bidder, 0))

        hashlocks = {bidder: self.secrets[bidder].hashlock for bidder in spec.bidders}
        ticket_host = world.chain(spec.ticket_chain)
        coin_host = world.chain(spec.coin_chain)

        ticket_addr = ticket_host.deploy(
            TicketAuctionContract(
                auctioneer=spec.auctioneer,
                bidders=spec.bidders,
                hashlocks=hashlocks,
                public_of=world.public_of,
                deadlines=deadlines,
                ticket_asset=ticket_host.asset(spec.ticket_token),
                tickets=spec.tickets,
            )
        )
        coin_addr = coin_host.deploy(
            CommitRevealCoinContract(
                spec.auctioneer,
                spec.bidders,
                hashlocks,
                world.public_of,
                deadlines,
                coin_host.asset(spec.coin_token),
                spec.premium,
                reveal_deadline=3,
            )
        )

        addrs = (ticket_addr, coin_addr)
        actors: dict[str, Actor] = {
            spec.auctioneer: SealedAuctioneerActor(
                spec.auctioneer, keys[spec.auctioneer], spec, self.secrets, addrs, self.strategy
            )
        }
        for i, bidder in enumerate(spec.bidders):
            actors[bidder] = SealedBidderActor(
                bidder, keys[bidder], spec, addrs, salt=f"salt-{i}-{bidder}".encode()
            )

        return ProtocolInstance(
            world=world,
            actors=actors,
            horizon=deadlines.horizon,
            contracts={
                "ticket": (spec.ticket_chain, ticket_addr),
                "coin": (spec.coin_chain, coin_addr),
            },
            meta={"spec": spec, "deadlines": deadlines, "strategy": self.strategy},
        )
