"""Multi-round deal contracts — the §8.2 trading-rounds extension.

"As long as all trading-phase transfers are known in advance, we can extend
this approach to encompass multiple rounds of trading. ...  In an r-round
deal, assets change hands r times."

A :class:`PipelineDealContract` generalizes the Figure-4 broker contract to
an ordered *pipeline* of trade steps: the escrowed asset must be traded
once per round, by that round's designated trader, before the usual
all-hashkeys redemption pays the final recipients.  Premium structure per
the paper's recurrence (``E(v,w) = T_1(w)``, ``T_k(v,w) = T_{k+1}(w)``,
``T_r(v,w) = R_w(w)``):

- the escrower posts ``E``; each round-k trader posts its ``T_k`` on this
  contract,
- a ``T_k`` refunds when round k is traded in time, and is awarded to the
  round's expectant recipient when it is not (but only once the contract's
  premium structure is *activated* — all redemption premiums, the escrow
  premium, and every trading premium present),
- redemption premiums behave exactly as in the broker contract, including
  the asset-owner award split: the deal shares the broker's code for them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.assets import Asset
from repro.chain.blockchain import NEVER, CallContext
from repro.contracts.base import Contract
from repro.contracts.broker import BrokerRDeposit, HedgedBrokerContract
from repro.crypto.hashing import Hashlock
from repro.crypto.hashkeys import HashKey
from repro.errors import ContractError
from repro.graph.digraph import Arc, SwapGraph


@dataclass(frozen=True)
class TradeStep:
    """One round of the pipeline on this contract."""

    round: int  # 1-based trading round
    trader: str
    recipient: str  # who is expecting this trade (gets T on failure)
    arc: Arc  # the digraph arc this trade realizes
    premium_amount: int
    deadline: int


@dataclass(frozen=True)
class DealDeadlines:
    """Heights for one multi-round deal."""

    escrow_premium: int
    trading_premium_base: int  # T_k lands by base + k
    redemption_premium_base: int  # deposit with path q lands by base + |q|
    activation: int
    escrow: int
    trade_base: int  # round k trades by base + k
    hashkey_base: int
    end: int

    @property
    def horizon(self) -> int:
        return self.end + 2

    @staticmethod
    def for_rounds(rounds: int, parties: int) -> "DealDeadlines":
        """Lay out the schedule for an r-round deal with n parties."""
        t_base = 1  # T_k lands by 1 + k; E by 1
        rp_base = 1 + rounds
        activation = rp_base + parties
        escrow = activation + 1
        trade_base = escrow
        hashkey_base = trade_base + rounds
        end = hashkey_base + parties
        return DealDeadlines(
            escrow_premium=1,
            trading_premium_base=t_base,
            redemption_premium_base=rp_base,
            activation=activation,
            escrow=escrow,
            trade_base=trade_base,
            hashkey_base=hashkey_base,
            end=end,
        )


class PipelineDealContract(Contract):
    """Escrow + r-step trade pipeline + all-hashkeys redemption."""

    kind = "pipeline-deal"

    def __init__(
        self,
        graph: SwapGraph,
        public_of: dict[str, str],
        hashlocks: dict[str, Hashlock],
        escrow_arc: Arc,
        steps: tuple[TradeStep, ...],
        asset: Asset,
        amount: int,
        payouts: tuple[tuple[str, int], ...],
        deadlines: DealDeadlines,
        premium: int,
        escrow_premium_shares: tuple[tuple[str, int], ...],
        required_keys: dict[Arc, frozenset[str]],
        contract_of: dict[Arc, str] | None,
    ) -> None:
        super().__init__()
        self.graph = graph
        self.public_of = dict(public_of)
        self.hashlocks = dict(hashlocks)
        self.escrow_arc = escrow_arc
        self.owner = escrow_arc[0]
        self.steps = tuple(sorted(steps, key=lambda s: s.round))
        self.asset = asset
        self.amount = amount
        self.payouts = payouts
        self.deadlines = deadlines
        self.premium = premium
        self.escrow_premium_shares = tuple(escrow_premium_shares)
        self.escrow_premium_amount = sum(a for _, a in escrow_premium_shares)
        self.required_keys = required_keys
        self.contract_of = contract_of

        self.escrow_state = "absent"  # absent | escrowed | redeemed | refunded
        self.escrowed_at: int | None = None
        self.escrow_premium_state = "absent"
        self.trading_premium_state: dict[int, str] = {s.round: "absent" for s in self.steps}
        self.traded: dict[int, bool] = {s.round: False for s in self.steps}
        self.rdeposits: dict[tuple[Arc, str], BrokerRDeposit] = {}
        self.accepted: dict[str, HashKey] = {}

    # ------------------------------------------------------------------
    # structure helpers
    # ------------------------------------------------------------------
    def step(self, rnd: int) -> TradeStep:
        for s in self.steps:
            if s.round == rnd:
                return s
        raise ContractError(f"no trading round {rnd} on this contract")

    @property
    def rounds(self) -> tuple[int, ...]:
        return tuple(s.round for s in self.steps)

    @property
    def fully_traded(self) -> bool:
        return all(self.traded.values())

    def _redeemers(self) -> frozenset[str]:
        heads = {self.escrow_arc[1]} | {s.arc[1] for s in self.steps}
        return frozenset(heads)

    def _hosted_arcs(self) -> tuple[Arc, ...]:
        return (self.escrow_arc, *(s.arc for s in self.steps))

    # redemption premiums are posted and counted as on the broker contract
    arc_activated = HedgedBrokerContract.arc_activated
    deposit_redemption_premium = HedgedBrokerContract.deposit_redemption_premium

    @property
    def contract_activated(self) -> bool:
        """All hosted arcs' redemption premiums plus E and every T."""
        return (
            all(self.arc_activated(arc) for arc in self._hosted_arcs())
            and self.escrow_premium_state != "absent"
            and all(state != "absent" for state in self.trading_premium_state.values())
        )

    # ------------------------------------------------------------------
    # premium transactions
    # ------------------------------------------------------------------
    def deposit_escrow_premium(self, ctx: CallContext) -> None:
        self.require(ctx.sender == self.owner, f"only {self.owner} posts E here")
        self.require(self.escrow_premium_state == "absent", "E already posted")
        self.require(ctx.height <= self.deadlines.escrow_premium, "E deadline passed")
        self.pull(self._chain().native, self.owner, self.escrow_premium_amount)
        self.escrow_premium_state = "held"
        self.emit("escrow_premium_deposited", amount=self.escrow_premium_amount)

    def deposit_trading_premium(self, ctx: CallContext, round: int) -> None:
        step = self.step(round)
        self.require(ctx.sender == step.trader, f"only {step.trader} posts T_{round}")
        self.require(
            self.trading_premium_state[round] == "absent", f"T_{round} already posted"
        )
        self.require(
            ctx.height <= self.deadlines.trading_premium_base + round,
            f"T_{round} deadline passed",
        )
        self.pull(self._chain().native, step.trader, step.premium_amount)
        self.trading_premium_state[round] = "held"
        self.emit("trading_premium_deposited", round=round, amount=step.premium_amount)

    # ------------------------------------------------------------------
    # base-protocol transactions
    # ------------------------------------------------------------------
    def escrow_asset(self, ctx: CallContext) -> None:
        self.require(ctx.sender == self.owner, f"only {self.owner} escrows here")
        self.require(self.escrow_state == "absent", "already escrowed")
        self.require(ctx.height <= self.deadlines.escrow, "escrow deadline passed")
        self.require(self.contract_activated, "contract not activated")
        self.pull(self.asset, self.owner, self.amount)
        self.escrow_state = "escrowed"
        self.escrowed_at = ctx.height
        self.emit("asset_escrowed", owner=self.owner, amount=self.amount)
        if self.escrow_premium_state == "held":
            self._refund_escrow_premium(ctx.height)

    def trade(self, ctx: CallContext, round: int) -> None:
        step = self.step(round)
        self.require(ctx.sender == step.trader, f"only {step.trader} trades round {round}")
        self.require(self.escrow_state == "escrowed", "nothing escrowed to trade")
        self.require(not self.traded[round], f"round {round} already traded")
        prior = [s.round for s in self.steps if s.round < round]
        self.require(
            all(self.traded[k] for k in prior), "earlier rounds not yet traded"
        )
        self.require(
            ctx.height <= self.deadlines.trade_base + round,
            f"round {round} trade deadline passed",
        )
        self.require(self.contract_activated, "contract not activated")
        self.traded[round] = True
        self.emit("traded", round=round, by=step.trader, arc=step.arc)
        if self.trading_premium_state[round] == "held":
            self._refund_trading_premium(step)
        self._try_redeem(ctx.height)

    def present_hashkey(self, ctx: CallContext, hashkey: HashKey) -> None:
        leader = hashkey.leader
        self.require(leader in self.hashlocks, f"unknown leader {leader!r}")
        self.require(leader not in self.accepted, f"{leader}'s key already accepted")
        # A leader may always present its own key directly (|q| = 1, the
        # tightest timeout), on either contract — this keeps the two
        # contracts' key sets symmetric and removes forwarding bottlenecks,
        # so the deal completes or dies atomically.  Forwarded keys must
        # start at one of this contract's redeemers, as usual.
        direct_own = hashkey.length == 1 and leader in self.hashlocks
        self.require(
            direct_own or hashkey.redeemer in self._redeemers(),
            "path must start at one of this contract's redeemers",
        )
        self.require(
            ctx.height <= self.deadlines.hashkey_base + hashkey.length,
            f"hashkey timed out (|q|={hashkey.length})",
        )
        valid = hashkey.verify(
            self._chain().registry, self.public_of, self.hashlocks[leader],
            arcs=self.graph.arc_set,
        )
        self.require(valid, "hashkey failed verification")
        self.accepted[leader] = hashkey
        self.emit("hashkey_accepted", leader=leader, path=hashkey.path)
        for (arc, dep_leader), deposit in self.rdeposits.items():
            if dep_leader == leader and deposit.state == "held":
                self.push(self._chain().native, arc[1], deposit.amount)
                deposit.state = "refunded"
                self.emit(
                    "redemption_premium_refunded",
                    arc=arc, leader=leader, to=arc[1], amount=deposit.amount,
                )
        self._try_redeem(ctx.height)

    def _try_redeem(self, height: int) -> None:
        if self.escrow_state != "escrowed" or not self.fully_traded:
            return
        if set(self.accepted) != set(self.hashlocks):
            return
        for recipient, amount in self.payouts:
            self.push(self.asset, recipient, amount)
        self.escrow_state = "redeemed"
        self.emit("redeemed", payouts=self.payouts)

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------
    # rows whose fields mirror the broker contract's settle the same way
    _escrow_premium_refund_due = HedgedBrokerContract._escrow_premium_refund_due
    _refund_escrow_premium = HedgedBrokerContract._refund_escrow_premium
    _escrow_premium_award_due = HedgedBrokerContract._escrow_premium_award_due
    _redemption_premium_award_due = HedgedBrokerContract._redemption_premium_award_due
    _award_redemption_premiums = HedgedBrokerContract._award_redemption_premiums

    def _trading_premium_refund_due(self) -> int:
        # unactivated T_k premiums refund once phase 2 is over
        held = any(state == "held" for state in self.trading_premium_state.values())
        return self.deadlines.activation + 1 if held and not self.contract_activated else NEVER

    def _refund_trading_premiums(self, height: int) -> None:
        for step in self.steps:
            if self.trading_premium_state[step.round] == "held":
                self._refund_trading_premium(step)

    def _refund_trading_premium(self, step: TradeStep) -> None:
        self.push(self._chain().native, step.trader, step.premium_amount)
        self.trading_premium_state[step.round] = "refunded"
        self.emit("trading_premium_refunded", round=step.round, to=step.trader)

    def _award_escrow_premium(self, height: int) -> None:
        # Paid out in the statically computed deficit shares: every
        # broker blocked by this escrow failure breaks even.
        native = self._chain().native
        for party, amount in self.escrow_premium_shares:
            self.push(native, party, amount)
        self.escrow_premium_state = "awarded"
        self.emit(
            "escrow_premium_awarded",
            shares=self.escrow_premium_shares, amount=self.escrow_premium_amount,
        )

    def _late_step(self) -> TradeStep | None:
        """The first round whose held ``T_k`` waits on a trade, if activated."""
        for step in self.steps:
            if self.trading_premium_state[step.round] == "held" and not self.traded[step.round]:
                return step if self.contract_activated else None
        return None

    def _trading_premium_award_due(self) -> int:
        # round deadlines rise with k, so the first waiting round is due first
        step = self._late_step()
        return NEVER if step is None else self.deadlines.trade_base + step.round + 1

    def _award_trading_premium(self, height: int) -> None:
        step = self._late_step()
        self.push(self._chain().native, step.recipient, step.premium_amount)
        self.trading_premium_state[step.round] = "awarded"
        self.emit(
            "trading_premium_awarded",
            round=step.round, to=step.recipient, amount=step.premium_amount,
        )

    def _refund_due(self) -> int:
        return self.deadlines.end + 1 if self.escrow_state == "escrowed" else NEVER

    def _refund(self, height: int) -> None:
        self.push(self.asset, self.owner, self.amount)
        self.escrow_state = "refunded"
        self.emit("asset_refunded", to=self.owner, amount=self.amount)

    timeouts = (
        (_escrow_premium_refund_due, _refund_escrow_premium),
        (_trading_premium_refund_due, _refund_trading_premiums),
        (_escrow_premium_award_due, _award_escrow_premium),
        (_trading_premium_award_due, _award_trading_premium),
        (_refund_due, _refund),
        (_redemption_premium_award_due, _award_redemption_premiums),
    )
