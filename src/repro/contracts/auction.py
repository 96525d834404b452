"""Auction contracts — §9.

Alice auctions tickets to ``n`` bidders across two chains.  Alice generates
one secret per bidder; publishing bidder ``X``'s hashkey on both contracts
declares ``X`` the winner.  Phases (heights):

- setup (≤ 1): Alice escrows the tickets (ticket chain) and endows the coin
  contract with ``n·p`` premiums (hedged variant),
- bidding (≤ 2): bidders deposit coin bids on the coin contract,
- declaration (≤ 3): Alice publishes the winner's hashkey on both chains
  (a hashkey with path length |q| is valid until height ``2 + |q|``),
- challenge (heights 4–6, i.e. 3Δ): bidders copy any hashkey that appears
  on one contract but not the other; by height 5 every hashkey has timed
  out (max |q| = 3 ⇒ deadline 5), so the extra Δ leaves slack for the last
  forward to land,
- commit (> 6): the contracts settle per the §9.1 rules; in the hedged
  variant a wrecked auction additionally pays each bidder ``p`` out of
  Alice's endowment (§9.2).

Bidders pay no premiums: they cannot lock up anyone's assets (a withheld
bid "arguably does the other party a favor").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.assets import Asset
from repro.chain.blockchain import NEVER, CallContext
from repro.contracts.base import Contract
from repro.crypto.hashing import Hashlock
from repro.crypto.hashkeys import HashKey


@dataclass(frozen=True)
class AuctionDeadlines:
    """Heights for one auction run."""

    setup: int = 1
    bidding: int = 2
    hashkey_base: int = 2  # a hashkey with path q lands by base + |q|
    commit: int = 6  # settlement fires above this height

    @property
    def horizon(self) -> int:
        return self.commit + 2


class AuctionContractBase(Contract):
    """Shared hashkey validation for both auction contracts."""

    def __init__(
        self,
        auctioneer: str,
        bidders: tuple[str, ...],
        hashlocks: dict[str, Hashlock],
        public_of: dict[str, str],
        deadlines: AuctionDeadlines,
    ) -> None:
        super().__init__()
        self.auctioneer = auctioneer
        self.bidders = bidders
        self.hashlocks = dict(hashlocks)  # bidder -> lock designating them
        self.public_of = dict(public_of)
        self.deadlines = deadlines
        self.accepted: dict[str, HashKey] = {}  # designated bidder -> key
        self.accepted_at: dict[str, int] = {}
        self.settled = False

    def _settle_due(self) -> int:
        # both contracts settle once, after the commit deadline
        return NEVER if self.settled else self.deadlines.commit + 1

    def _designated(self, hashkey: HashKey) -> str | None:
        for bidder, lock in self.hashlocks.items():
            if lock.digest == hashkey.hashlock.digest:
                return bidder
        return None

    def present_hashkey(self, ctx: CallContext, hashkey: HashKey) -> None:
        """Accept a hashkey designating one bidder (Lemma 7 forwarding)."""
        bidder = self._designated(hashkey)
        self.require(bidder is not None, "hashkey matches no bidder's lock")
        self.require(bidder not in self.accepted, f"key for {bidder} already accepted")
        self.require(
            hashkey.leader == self.auctioneer,
            "hashkeys originate with the auctioneer",
        )
        self.require(
            ctx.height <= self.deadlines.hashkey_base + hashkey.length,
            f"hashkey timed out (|q|={hashkey.length})",
        )
        valid = hashkey.verify(
            self._chain().registry,
            self.public_of,
            self.hashlocks[bidder],
            arcs=None,  # auction paths are not digraph-constrained
        )
        self.require(valid, "hashkey failed verification")
        self.accepted[bidder] = hashkey
        self.accepted_at[bidder] = ctx.height
        self.emit("hashkey_accepted", designates=bidder, path=hashkey.path)


class CoinAuctionContract(AuctionContractBase):
    """Coin-chain contract: bids, premium endowment, §9.1 commit rules."""

    kind = "auction-coin"

    def __init__(
        self,
        auctioneer: str,
        bidders: tuple[str, ...],
        hashlocks: dict[str, Hashlock],
        public_of: dict[str, str],
        deadlines: AuctionDeadlines,
        coin_asset: Asset,
        premium: int = 0,
    ) -> None:
        super().__init__(auctioneer, bidders, hashlocks, public_of, deadlines)
        self.coin_asset = coin_asset
        self.premium = premium
        self.endowment = 0
        self.bids: dict[str, int] = {}
        self.bid_at: dict[str, int] = {}
        self.outcome = ""  # "completed" | "refunded" after settlement

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def endow_premium(self, ctx: CallContext) -> None:
        """Alice deposits ``n·p`` native currency as bidder protection."""
        self.require(ctx.sender == self.auctioneer, "only the auctioneer endows")
        self.require(self.endowment == 0, "already endowed")
        self.require(ctx.height <= self.deadlines.setup, "setup deadline passed")
        amount = self.premium * len(self.bidders)
        self.pull(self._chain().native, self.auctioneer, amount)
        self.endowment = amount
        self.emit("premium_endowed", amount=amount)

    def bid(self, ctx: CallContext, amount: int) -> None:
        """A bidder deposits its (open) bid."""
        self.require(ctx.sender in self.bidders, f"{ctx.sender} is not a bidder")
        self.require(ctx.sender not in self.bids, "already bid")
        self.require(amount > 0, "bid must be positive")
        self.require(ctx.height <= self.deadlines.bidding, "bidding closed")
        self.pull(self.coin_asset, ctx.sender, amount)
        self.bids[ctx.sender] = amount
        self.bid_at[ctx.sender] = ctx.height
        self.emit("bid_placed", bidder=ctx.sender, amount=amount)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def high_bidder(self) -> str | None:
        """Winner: highest bid, lexicographic tie-break (deterministic)."""
        if not self.bids:
            return None
        return max(self.bids, key=lambda b: (self.bids[b], b))

    # ------------------------------------------------------------------
    # settlement (the §9.1 commit phase)
    # ------------------------------------------------------------------
    def _settle(self, height: int) -> None:
        self.settled = True
        native = self._chain().native
        winner = self.high_bidder
        honest = winner is not None and set(self.accepted) == {winner}
        if honest:
            self.push(self.coin_asset, self.auctioneer, self.bids[winner])
            for bidder, amount in self.bids.items():
                if bidder != winner:
                    self.push(self.coin_asset, bidder, amount)
            if self.endowment:
                self.push(native, self.auctioneer, self.endowment)
            self.outcome = "completed"
            self.emit("auction_completed", winner=winner, price=self.bids[winner])
        else:
            for bidder, amount in self.bids.items():
                self.push(self.coin_asset, bidder, amount)
            remaining = self.endowment
            if self.endowment:
                # §9.2: a wrecked auction pays each (actual) bidder p; a
                # party who never bid locked nothing and is owed nothing.
                for bidder in self.bidders:
                    if bidder in self.bids:
                        self.push(native, bidder, self.premium)
                        remaining -= self.premium
                if remaining:
                    self.push(native, self.auctioneer, remaining)
            self.outcome = "refunded"
            self.emit(
                "auction_refunded",
                accepted=sorted(self.accepted),
                compensated=self.premium if self.endowment else 0,
            )

    timeouts = ((AuctionContractBase._settle_due, _settle),)


class TicketAuctionContract(AuctionContractBase):
    """Ticket-chain contract: escrow + the §9.1 ticket commit rule."""

    kind = "auction-ticket"

    def __init__(
        self,
        auctioneer: str,
        bidders: tuple[str, ...],
        hashlocks: dict[str, Hashlock],
        public_of: dict[str, str],
        deadlines: AuctionDeadlines,
        ticket_asset: Asset,
        tickets: int,
    ) -> None:
        super().__init__(auctioneer, bidders, hashlocks, public_of, deadlines)
        self.ticket_asset = ticket_asset
        self.tickets = tickets
        self.escrowed = False
        self.outcome = ""  # "awarded" | "refunded"
        self.awarded_to = ""

    def escrow_tickets(self, ctx: CallContext) -> None:
        self.require(ctx.sender == self.auctioneer, "only the auctioneer escrows")
        self.require(not self.escrowed, "already escrowed")
        self.require(ctx.height <= self.deadlines.setup, "setup deadline passed")
        self.pull(self.ticket_asset, self.auctioneer, self.tickets)
        self.escrowed = True
        self.emit("tickets_escrowed", amount=self.tickets)

    def _settle_due(self) -> int:
        return super()._settle_due() if self.escrowed else NEVER

    def _settle(self, height: int) -> None:
        self.settled = True
        if len(self.accepted) == 1:
            (bidder,) = self.accepted
            self.push(self.ticket_asset, bidder, self.tickets)
            self.outcome = "awarded"
            self.awarded_to = bidder
            self.emit("tickets_awarded", to=bidder)
        else:
            self.push(self.ticket_asset, self.auctioneer, self.tickets)
            self.outcome = "refunded"
            self.emit("tickets_refunded", accepted=sorted(self.accepted))

    timeouts = ((_settle_due, _settle),)
