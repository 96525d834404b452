"""Broker (cross-chain deal) contracts — §8, Figure 4.

Two contracts implement the three-party deal:

- the **ticket contract** (ticket chain) escrows Bob's tickets and hosts
  arcs ``(B, A)`` (escrow) and ``(A, C)`` (Alice trades the tickets to
  Carol); on redemption the tickets go to Carol,
- the **coin contract** (coin chain) escrows Carol's 101 coins and hosts
  arcs ``(C, A)`` and ``(A, B)``; on redemption Bob receives 100 coins and
  Alice keeps the 1-coin markup.

Every party is a leader with its own hashlock; a contract pays out when it
has been escrowed, *traded* by the broker, and holds a valid hashkey from
every party (footnote 7: arcs sharing a contract share its hashkey set).

The hedged variant (:class:`HedgedBrokerContract`) adds three premium kinds
(§8.2): escrow premiums ``E`` (by the escrowers), trading premiums ``T``
(by the broker), and per-arc redemption premiums ``R`` with authenticated
paths, amounts from Equation 1 (optionally with footnote-7 pruning).  A
premium activates only when its arc's expected redemption premiums are all
present; unactivated premiums can only be refunded.

Redemption premium award rule: the leading ``p`` compensates the contract's
asset owner when the asset was actually locked (on trading arcs the graph
tail is the broker, but the *locked* asset belongs to the escrower — this
is what makes "Bob omits B2 ⇒ Bob pays a premium to Carol" come out right);
the passthrough remainder reimburses the graph tail for its own forced
deposits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.assets import Asset
from repro.chain.blockchain import NEVER, CallContext
from repro.contracts.base import Contract
from repro.crypto.hashing import Hashlock
from repro.crypto.hashkeys import HashKey, SignedPath
from repro.graph.digraph import Arc, SwapGraph


@dataclass(frozen=True)
class BrokerDeadlines:
    """All heights for one broker run (base or hedged offsets)."""

    escrow_premium: int
    trading_premium: int
    redemption_premium_base: int  # deposit with path q lands by base + |q|
    activation: int
    escrow: int
    trade: int
    hashkey_base: int  # hashkey with path q lands by base + |q|
    end: int

    @property
    def horizon(self) -> int:
        return self.end + 2

    @staticmethod
    def base() -> "BrokerDeadlines":
        """Unhedged schedule: escrow 1, trade 2, keys from 2, end 5."""
        return BrokerDeadlines(
            escrow_premium=0,
            trading_premium=0,
            redemption_premium_base=0,
            activation=0,
            escrow=1,
            trade=2,
            hashkey_base=2,
            end=5,
        )

    @staticmethod
    def hedged() -> "BrokerDeadlines":
        """Premium phases at heights 1..5, then the base flow shifted."""
        return BrokerDeadlines(
            escrow_premium=1,
            trading_premium=2,
            redemption_premium_base=2,
            activation=5,
            escrow=6,
            trade=7,
            hashkey_base=7,
            end=10,
        )


@dataclass
class BrokerRDeposit:
    """One redemption premium held by a broker contract."""

    arc: Arc
    leader: str
    chain: SignedPath
    amount: int
    state: str = "held"  # held | refunded | awarded


class BaseBrokerContract(Contract):
    """Premium-free deal contract: escrow → trade → all-hashkeys payout."""

    kind = "broker"

    def __init__(
        self,
        graph: SwapGraph,
        public_of: dict[str, str],
        hashlocks: dict[str, Hashlock],
        escrow_arc: Arc,
        trading_arc: Arc,
        asset: Asset,
        amount: int,
        payouts: tuple[tuple[str, int], ...],
        deadlines: BrokerDeadlines,
    ) -> None:
        super().__init__()
        self.graph = graph
        self.public_of = dict(public_of)
        self.hashlocks = dict(hashlocks)
        self.escrow_arc = escrow_arc
        self.trading_arc = trading_arc
        self.owner = escrow_arc[0]  # whose asset this contract locks
        self.broker = trading_arc[0]
        self.asset = asset
        self.amount = amount
        self.payouts = payouts
        self.deadlines = deadlines

        self.escrow_state = "absent"  # absent | escrowed | redeemed | refunded
        self.traded = False
        self.traded_at: int | None = None
        self.escrowed_at: int | None = None
        self.resolved_at: int | None = None
        self.accepted: dict[str, HashKey] = {}
        self.accepted_at: dict[str, int] = {}

    # -- redeemers allowed to head a hashkey path on this contract -------
    def _redeemers(self) -> frozenset[str]:
        return frozenset({self.escrow_arc[1], self.trading_arc[1]})

    def _may_escrow(self, ctx: CallContext) -> None:
        """Hook: the hedged variant requires escrow-arc activation."""

    def _may_trade(self, ctx: CallContext) -> None:
        """Hook: the hedged variant requires trading-arc activation."""

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def escrow_asset(self, ctx: CallContext) -> None:
        """The owner escrows the contract's asset (step B1 / C1)."""
        self.require(ctx.sender == self.owner, f"only {self.owner} escrows here")
        self.require(self.escrow_state == "absent", "already escrowed")
        self.require(ctx.height <= self.deadlines.escrow, "escrow deadline passed")
        self._may_escrow(ctx)
        self.pull(self.asset, self.owner, self.amount)
        self.escrow_state = "escrowed"
        self.escrowed_at = ctx.height
        self.emit("asset_escrowed", owner=self.owner, amount=self.amount)

    def trade(self, ctx: CallContext) -> None:
        """The broker commits the trading-phase transfer (step A1 / A2)."""
        self.require(ctx.sender == self.broker, f"only {self.broker} trades here")
        self.require(self.escrow_state == "escrowed", "nothing escrowed to trade")
        self.require(not self.traded, "already traded")
        self.require(ctx.height <= self.deadlines.trade, "trade deadline passed")
        self._may_trade(ctx)
        self.traded = True
        self.traded_at = ctx.height
        self.emit("traded", by=self.broker, arc=self.trading_arc)
        self._try_redeem(ctx.height)

    def present_hashkey(self, ctx: CallContext, hashkey: HashKey) -> None:
        """Accept one leader's hashkey (anyone may present a valid one)."""
        leader = hashkey.leader
        self.require(leader in self.hashlocks, f"unknown leader {leader!r}")
        self.require(leader not in self.accepted, f"{leader}'s key already accepted")
        self.require(
            hashkey.redeemer in self._redeemers(),
            "path must start at one of this contract's redeemers",
        )
        self.require(
            ctx.height <= self.deadlines.hashkey_base + hashkey.length,
            f"hashkey timed out (|q|={hashkey.length})",
        )
        valid = hashkey.verify(
            self._chain().registry,
            self.public_of,
            self.hashlocks[leader],
            arcs=self.graph.arc_set,
        )
        self.require(valid, "hashkey failed verification")
        self.accepted[leader] = hashkey
        self.accepted_at[leader] = ctx.height
        self.emit("hashkey_accepted", leader=leader, path=hashkey.path)
        self._on_hashkey_accepted(leader, ctx.height)
        self._try_redeem(ctx.height)

    def _on_hashkey_accepted(self, leader: str, height: int) -> None:
        """Hook for the hedged variant (premium refunds)."""

    def _try_redeem(self, height: int) -> None:
        if self.escrow_state != "escrowed" or not self.traded:
            return
        if set(self.accepted) != set(self.hashlocks):
            return
        for recipient, amount in self.payouts:
            self.push(self.asset, recipient, amount)
        self.escrow_state = "redeemed"
        self.resolved_at = height
        self.emit("redeemed", payouts=self.payouts)

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------
    def _refund_due(self) -> int:
        return self.deadlines.end + 1 if self.escrow_state == "escrowed" else NEVER

    def _refund(self, height: int) -> None:
        self.push(self.asset, self.owner, self.amount)
        self.escrow_state = "refunded"
        self.resolved_at = height
        self.emit("asset_refunded", to=self.owner, amount=self.amount)

    timeouts = ((_refund_due, _refund),)


class HedgedBrokerContract(BaseBrokerContract):
    """Deal contract with the §8.2 premium structure."""

    kind = "hedged-broker"

    def __init__(
        self,
        graph: SwapGraph,
        public_of: dict[str, str],
        hashlocks: dict[str, Hashlock],
        escrow_arc: Arc,
        trading_arc: Arc,
        asset: Asset,
        amount: int,
        payouts: tuple[tuple[str, int], ...],
        deadlines: BrokerDeadlines,
        premium: int,
        escrow_premium_amount: int,
        trading_premium_amount: int,
        required_keys: dict[Arc, frozenset[str]],
        contract_of: dict[Arc, str] | None,
    ) -> None:
        super().__init__(
            graph, public_of, hashlocks, escrow_arc, trading_arc,
            asset, amount, payouts, deadlines,
        )
        self.premium = premium
        self.escrow_premium_amount = escrow_premium_amount
        self.trading_premium_amount = trading_premium_amount
        self.required_keys = required_keys
        self.contract_of = contract_of
        self.escrow_premium_state = "absent"  # absent | held | refunded | awarded
        self.trading_premium_state = "absent"
        self.rdeposits: dict[tuple[Arc, str], BrokerRDeposit] = {}

    # -- activation -------------------------------------------------------
    def _hosted_arcs(self) -> tuple[Arc, ...]:
        return (self.escrow_arc, self.trading_arc)

    def arc_activated(self, arc: Arc) -> bool:
        """All redemption premiums this arc expects are deposited."""
        have = {leader for (a, leader) in self.rdeposits if a == arc}
        return self.required_keys[arc] <= have

    @property
    def contract_activated(self) -> bool:
        """Contract-level activation: the premium structure on this chain
        is complete — both hosted arcs' redemption premium sets plus the
        escrow and trading premiums.  Because each party's reimbursement
        chain spans both arcs of a contract (E on the escrow arc backs the
        broker's T on the trading arc), activating one arc without the
        other would let a premium-phase sore loser force an uncovered
        payout; see the module docstring."""
        return (
            self.arc_activated(self.escrow_arc)
            and self.arc_activated(self.trading_arc)
            and self.escrow_premium_state != "absent"
            and self.trading_premium_state != "absent"
        )

    def _may_escrow(self, ctx: CallContext) -> None:
        self.require(self.contract_activated, "contract not activated")

    def _may_trade(self, ctx: CallContext) -> None:
        self.require(self.contract_activated, "contract not activated")

    # -- premium transactions ----------------------------------------------
    def deposit_escrow_premium(self, ctx: CallContext) -> None:
        """Escrower posts ``E = T(A)`` (native currency)."""
        self.require(ctx.sender == self.owner, f"only {self.owner} posts E here")
        self.require(self.escrow_premium_state == "absent", "E already posted")
        self.require(ctx.height <= self.deadlines.escrow_premium, "E deadline passed")
        self.pull(self._chain().native, self.owner, self.escrow_premium_amount)
        self.escrow_premium_state = "held"
        self.emit("escrow_premium_deposited", amount=self.escrow_premium_amount)

    def deposit_trading_premium(self, ctx: CallContext) -> None:
        """Broker posts ``T(A, w) = R_w(w)``."""
        self.require(ctx.sender == self.broker, f"only {self.broker} posts T here")
        self.require(self.trading_premium_state == "absent", "T already posted")
        self.require(ctx.height <= self.deadlines.trading_premium, "T deadline passed")
        self.pull(self._chain().native, self.broker, self.trading_premium_amount)
        self.trading_premium_state = "held"
        self.emit("trading_premium_deposited", amount=self.trading_premium_amount)

    def deposit_redemption_premium(
        self, ctx: CallContext, arc: Arc, path_chain: SignedPath
    ) -> None:
        """The arc's redeemer posts one leader's redemption premium."""
        arc = tuple(arc)  # type: ignore[assignment]
        self.require(arc in self._hosted_arcs(), f"{arc} not hosted here")
        self.require(ctx.sender == arc[1], f"only {arc[1]} posts premiums on {arc}")
        leader = path_chain.originator
        self.require(leader in self.hashlocks, f"unknown leader {leader!r}")
        self.require((arc, leader) not in self.rdeposits, "premium already posted")
        expected_payload = f"rpremium:{self.hashlocks[leader].digest}"
        self.require(path_chain.payload == expected_payload, "chain binds wrong hashlock")
        self.require(path_chain.head == arc[1], "path must end at the depositor")
        self.require(path_chain.is_simple(), "path must be simple")
        path = path_chain.path
        self.require(self.graph.is_path(path), "path must follow arcs")
        self.require(
            ctx.height <= self.deadlines.redemption_premium_base + path_chain.length,
            f"redemption premium timed out (|q|={path_chain.length})",
        )
        self.require(
            path_chain.verify(self._chain().registry, self.public_of),
            "premium path failed signature verification",
        )
        # imported here to avoid a package-level import cycle
        from repro.core.premiums import pruned_redemption_premium_amount

        amount = pruned_redemption_premium_amount(
            self.graph, path, arc[0], self.premium, self.contract_of
        )
        self.pull(self._chain().native, arc[1], amount)
        self.rdeposits[(arc, leader)] = BrokerRDeposit(arc, leader, path_chain, amount)
        self.emit(
            "redemption_premium_deposited",
            arc=arc, leader=leader, path=path, amount=amount,
        )

    # -- refund hooks --------------------------------------------------------
    def escrow_asset(self, ctx: CallContext) -> None:
        super().escrow_asset(ctx)
        if self.escrow_premium_state == "held":
            self._refund_escrow_premium(ctx.height)

    def trade(self, ctx: CallContext) -> None:
        super().trade(ctx)
        if self.trading_premium_state == "held":
            self._refund_trading_premium(ctx.height)

    def _on_hashkey_accepted(self, leader: str, height: int) -> None:
        for (arc, dep_leader), deposit in self.rdeposits.items():
            if dep_leader == leader and deposit.state == "held":
                self.push(self._chain().native, arc[1], deposit.amount)
                deposit.state = "refunded"
                self.emit(
                    "redemption_premium_refunded",
                    arc=arc, leader=leader, to=arc[1], amount=deposit.amount,
                )

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------
    # unactivated E and T premiums refund once phase 2 is over
    def _escrow_premium_refund_due(self) -> int:
        unactivated = self.escrow_premium_state == "held" and not self.contract_activated
        return self.deadlines.activation + 1 if unactivated else NEVER

    def _refund_escrow_premium(self, height: int) -> None:
        self.push(self._chain().native, self.owner, self.escrow_premium_amount)
        self.escrow_premium_state = "refunded"
        self.emit("escrow_premium_refunded", to=self.owner)

    def _trading_premium_refund_due(self) -> int:
        unactivated = self.trading_premium_state == "held" and not self.contract_activated
        return self.deadlines.activation + 1 if unactivated else NEVER

    def _refund_trading_premium(self, height: int) -> None:
        self.push(self._chain().native, self.broker, self.trading_premium_amount)
        self.trading_premium_state = "refunded"
        self.emit("trading_premium_refunded", to=self.broker)

    def _escrow_premium_award_due(self) -> int:
        # activated E goes to the broker when the escrow never came
        held = self.escrow_premium_state == "held" and self.escrow_state == "absent"
        return self.deadlines.escrow + 1 if held and self.contract_activated else NEVER

    def _award_escrow_premium(self, height: int) -> None:
        self.push(self._chain().native, self.escrow_arc[1], self.escrow_premium_amount)
        self.escrow_premium_state = "awarded"
        self.emit(
            "escrow_premium_awarded", to=self.escrow_arc[1], amount=self.escrow_premium_amount
        )

    def _trading_premium_award_due(self) -> int:
        # activated T goes to the expectant recipient when no trade came
        held = self.trading_premium_state == "held" and not self.traded
        return self.deadlines.trade + 1 if held and self.contract_activated else NEVER

    def _award_trading_premium(self, height: int) -> None:
        self.push(self._chain().native, self.trading_arc[1], self.trading_premium_amount)
        self.trading_premium_state = "awarded"
        self.emit(
            "trading_premium_awarded", to=self.trading_arc[1], amount=self.trading_premium_amount
        )

    def _redemption_premium_award_due(self) -> int:
        for deposit in self.rdeposits.values():
            if deposit.state == "held":
                return self.deadlines.end + 1
        return NEVER

    def _award_redemption_premiums(self, height: int) -> None:
        """Each held redemption premium: the leading ``p`` to the asset's
        owner if the asset was locked, the remainder to the arc's tail."""
        native = self._chain().native
        asset_was_locked = self.escrowed_at is not None
        for (arc, leader), deposit in self.rdeposits.items():
            if deposit.state != "held":
                continue
            head = self.owner if asset_was_locked else arc[0]
            self.push(native, head, self.premium)
            remainder = deposit.amount - self.premium
            if remainder:
                self.push(native, arc[0], remainder)
            deposit.state = "awarded"
            self.emit(
                "redemption_premium_awarded",
                arc=arc, leader=leader,
                compensated=head, reimbursed=arc[0],
                amount=deposit.amount,
            )

    timeouts = (
        (_escrow_premium_refund_due, _refund_escrow_premium),
        (_trading_premium_refund_due, _refund_trading_premium),
        (_escrow_premium_award_due, _award_escrow_premium),
        (_trading_premium_award_due, _award_trading_premium),
        *BaseBrokerContract.timeouts,
        (_redemption_premium_award_due, _award_redemption_premiums),
    )
