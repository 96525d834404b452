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
  the asset-owner award split.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.assets import Asset
from repro.chain.blockchain import CallContext
from repro.contracts.base import Contract
from repro.crypto.hashing import Hashlock
from repro.crypto.hashkeys import HashKey, SignedPath
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


@dataclass
class DealRDeposit:
    """One redemption premium held by a deal contract."""

    arc: Arc
    leader: str
    chain: SignedPath
    amount: int
    state: str = "held"  # held | refunded | awarded


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
        self.rdeposits: dict[tuple[Arc, str], DealRDeposit] = {}
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

    def arc_activated(self, arc: Arc) -> bool:
        have = {leader for (a, leader) in self.rdeposits if a == arc}
        return self.required_keys[arc] <= have

    @property
    def contract_activated(self) -> bool:
        """All hosted arcs' redemption premiums plus E and every T."""
        arcs = [self.escrow_arc] + [s.arc for s in self.steps]
        return (
            all(self.arc_activated(arc) for arc in arcs)
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

    def deposit_redemption_premium(
        self, ctx: CallContext, arc: Arc, path_chain: SignedPath
    ) -> None:
        arc = tuple(arc)  # type: ignore[assignment]
        hosted = [self.escrow_arc] + [s.arc for s in self.steps]
        self.require(arc in hosted, f"{arc} not hosted here")
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
        self.rdeposits[(arc, leader)] = DealRDeposit(arc, leader, path_chain, amount)
        self.emit(
            "redemption_premium_deposited", arc=arc, leader=leader, path=path, amount=amount
        )

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
            self.push(self._chain().native, self.owner, self.escrow_premium_amount)
            self.escrow_premium_state = "refunded"
            self.emit("escrow_premium_refunded", to=self.owner)

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
            self.push(self._chain().native, step.trader, step.premium_amount)
            self.trading_premium_state[round] = "refunded"
            self.emit("trading_premium_refunded", round=round, to=step.trader)
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
    def _next_tick(self) -> int:
        d = self.deadlines
        trades = (d.trade_base + step.round for step in self.steps)
        return min(d.activation, d.escrow, d.end, *trades) + 1

    def on_tick(self, height: int) -> None:
        native = self._chain().native

        if height > self.deadlines.activation and not self.contract_activated:
            if self.escrow_premium_state == "held":
                self.push(native, self.owner, self.escrow_premium_amount)
                self.escrow_premium_state = "refunded"
                self.emit("escrow_premium_refunded", to=self.owner)
            for step in self.steps:
                if self.trading_premium_state[step.round] == "held":
                    self.push(native, step.trader, step.premium_amount)
                    self.trading_premium_state[step.round] = "refunded"
                    self.emit("trading_premium_refunded", round=step.round, to=step.trader)

        if (
            self.escrow_premium_state == "held"
            and self.contract_activated
            and self.escrow_state == "absent"
            and height > self.deadlines.escrow
        ):
            # Paid out in the statically computed deficit shares: every
            # broker blocked by this escrow failure breaks even.
            for party, amount in self.escrow_premium_shares:
                self.push(native, party, amount)
            self.escrow_premium_state = "awarded"
            self.emit(
                "escrow_premium_awarded",
                shares=self.escrow_premium_shares,
                amount=self.escrow_premium_amount,
            )

        for step in self.steps:
            if (
                self.trading_premium_state[step.round] == "held"
                and self.contract_activated
                and not self.traded[step.round]
                and height > self.deadlines.trade_base + step.round
            ):
                self.push(native, step.recipient, step.premium_amount)
                self.trading_premium_state[step.round] = "awarded"
                self.emit(
                    "trading_premium_awarded",
                    round=step.round, to=step.recipient, amount=step.premium_amount,
                )

        if height > self.deadlines.end:
            if self.escrow_state == "escrowed":
                self.push(self.asset, self.owner, self.amount)
                self.escrow_state = "refunded"
                self.emit("asset_refunded", to=self.owner, amount=self.amount)
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
                    compensated=head, reimbursed=arc[0], amount=deposit.amount,
                )
