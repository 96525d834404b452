"""Arc escrow contracts for multi-party swaps (§7, Herlihy '18 base).

One contract per arc ``(u, v)``, deployed on the chain that manages the
transferred asset.  :class:`BaseSwapArc` implements the unhedged Herlihy '18
arc: ``u`` escrows the principal; ``v`` redeems by presenting a valid
hashkey for *every* leader before the per-path deadlines.

:class:`HedgedSwapArc` adds the paper's two premium kinds:

- the **escrow premium** ``E(u, v)`` (Equation 2), deposited by ``u``,
  awarded to ``v`` if the principal is not escrowed in time — but only once
  *activated* (all redemption premiums present on the arc); an unactivated
  escrow premium refunds at the end of phase 2,
- one **redemption premium** per leader hashkey (Equation 1), deposited by
  ``v`` with an authenticated path; refunded to ``v`` the moment the
  matching hashkey is accepted, awarded to ``u`` at the end of phase 4
  otherwise.

The contract validates redemption-premium amounts itself by evaluating
Equation 1 on the presented path — it knows the digraph, which is part of
the public protocol agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.assets import Asset
from repro.chain.blockchain import NEVER, CallContext
from repro.contracts.base import Contract
from repro.crypto.hashing import Hashlock
from repro.crypto.hashkeys import HashKey, SignedPath
from repro.errors import ContractError
from repro.graph.digraph import SwapGraph
from repro.graph.schedule import MultiPartySchedule


@dataclass
class RedemptionDeposit:
    """One redemption premium held by the arc contract."""

    leader: str
    chain: SignedPath
    amount: int
    state: str = "held"  # held | refunded | awarded
    deposited_at: int = -1
    resolved_at: int = -1


class BaseSwapArc(Contract):
    """Unhedged arc contract: escrow + all-hashkeys redemption."""

    kind = "swap-arc"

    def __init__(
        self,
        graph: SwapGraph,
        schedule: MultiPartySchedule,
        public_of: dict[str, str],
        hashlocks: dict[str, Hashlock],
        arc: tuple[str, str],
        asset: Asset,
        amount: int,
    ) -> None:
        super().__init__()
        self.graph = graph
        self.schedule = schedule
        self.public_of = dict(public_of)
        self.hashlocks = dict(hashlocks)
        self.arc = arc
        self.u, self.v = arc
        self.asset = asset
        self.amount = amount

        self.principal_state = "absent"  # absent | escrowed | redeemed | refunded
        self.accepted: dict[str, HashKey] = {}
        self.accepted_at: dict[str, int] = {}
        self.principal_escrowed_at: int | None = None
        self.principal_resolved_at: int | None = None

    # -- deadline hooks (overridden by the hedged variant) --------------
    def _principal_deadline(self) -> int:
        return self.schedule.base_principal_deadline(self.arc)

    def _hashkey_deadline(self, path_length: int) -> int:
        return self.schedule.base_hashkey_deadline(path_length)

    def _final_deadline(self) -> int:
        return self.schedule.base_end

    def _may_escrow(self, ctx: CallContext) -> None:
        """Extra escrow preconditions (the hedged variant adds activation)."""

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def escrow_principal(self, ctx: CallContext) -> None:
        """``u`` escrows the arc's asset."""
        # Hot path: revert messages are formatted only when they are used.
        if ctx.sender != self.u:
            raise ContractError(f"only {self.u} escrows on {self.arc}")
        self.require(self.principal_state == "absent", "principal already escrowed")
        self.require(ctx.height <= self._principal_deadline(), "escrow deadline passed")
        self._may_escrow(ctx)
        self.pull(self.asset, self.u, self.amount)
        self.principal_state = "escrowed"
        self.principal_escrowed_at = ctx.height
        self.emit("principal_escrowed", arc=self.arc, amount=self.amount)
        # The full hashkey set may already be on the arc (e.g. a leader
        # released early and the escrow landed later in the same block);
        # redemption fires on whichever side completes last.
        self._try_redeem(ctx.height)

    def present_hashkey(self, ctx: CallContext, hashkey: HashKey) -> None:
        """Accept a valid hashkey; redeem once all leaders' keys are in."""
        leader = hashkey.leader
        if leader not in self.hashlocks:
            raise ContractError(f"unknown leader {leader!r}")
        if leader in self.accepted:
            raise ContractError(f"hashkey for {leader} already accepted")
        if hashkey.redeemer != self.v:
            raise ContractError(f"hashkey path must start at redeemer {self.v}")
        if ctx.height > self._hashkey_deadline(hashkey.length):
            raise ContractError(f"hashkey timed out (|q|={hashkey.length})")
        valid = hashkey.verify(
            self._chain().registry,
            self.public_of,
            self.hashlocks[leader],
            arcs=self.graph.arc_set,
        )
        self.require(valid, "hashkey failed verification")
        self.accepted[leader] = hashkey
        self.accepted_at[leader] = ctx.height
        self.emit("hashkey_accepted", arc=self.arc, leader=leader, path=hashkey.path)
        self._on_hashkey_accepted(leader, ctx.height)
        self._try_redeem(ctx.height)

    def _on_hashkey_accepted(self, leader: str, height: int) -> None:
        """Hook for the hedged variant (redemption premium refunds)."""

    def _try_redeem(self, height: int) -> None:
        if self.principal_state != "escrowed":
            return
        # accepted keys are a subset of hashlocks' (present_hashkey checks)
        if len(self.accepted) != len(self.hashlocks):
            return
        self.push(self.asset, self.v, self.amount)
        self.principal_state = "redeemed"
        self.principal_resolved_at = height
        self.emit("principal_redeemed", arc=self.arc, to=self.v, amount=self.amount)

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------
    def _refund_due(self) -> int:
        escrowed = self.principal_state == "escrowed"
        return self._final_deadline() + 1 if escrowed else NEVER

    def _refund(self, height: int) -> None:
        self.push(self.asset, self.u, self.amount)
        self.principal_state = "refunded"
        self.principal_resolved_at = height
        self.emit("principal_refunded", arc=self.arc, to=self.u, amount=self.amount)

    timeouts = ((_refund_due, _refund),)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def redeemed(self) -> bool:
        return self.principal_state == "redeemed"

    @property
    def escrowed_unredeemed(self) -> bool:
        """True if the principal was escrowed but ended refunded."""
        return self.principal_state == "refunded"


class HedgedSwapArc(BaseSwapArc):
    """Arc contract with escrow and redemption premiums (§7.1)."""

    kind = "hedged-swap-arc"

    def __init__(
        self,
        graph: SwapGraph,
        schedule: MultiPartySchedule,
        public_of: dict[str, str],
        hashlocks: dict[str, Hashlock],
        arc: tuple[str, str],
        asset: Asset,
        amount: int,
        premium: int,
        escrow_premium_amount: int,
    ) -> None:
        super().__init__(graph, schedule, public_of, hashlocks, arc, asset, amount)
        self.premium = premium
        self.escrow_premium_amount = escrow_premium_amount
        self.escrow_premium_state = "absent"  # absent | held | refunded | awarded
        self.escrow_premium_resolved_at: int | None = None
        self.redemption_deposits: dict[str, RedemptionDeposit] = {}

    # -- hedged deadlines ------------------------------------------------
    def _principal_deadline(self) -> int:
        return self.schedule.principal_deadline(self.arc)

    def _hashkey_deadline(self, path_length: int) -> int:
        return self.schedule.hashkey_deadline(path_length)

    def _final_deadline(self) -> int:
        return self.schedule.end

    # ------------------------------------------------------------------
    # premium state
    # ------------------------------------------------------------------
    @property
    def activated(self) -> bool:
        """All leaders' redemption premiums are on this arc (§7.1)."""
        # deposits are keyed by a subset of hashlocks' leaders (the
        # deposit method checks), so equal sizes mean equal key sets
        return len(self.redemption_deposits) == len(self.hashlocks)

    def deposit_escrow_premium(self, ctx: CallContext) -> None:
        """``u`` posts ``E(u, v)`` in the chain's native currency."""
        if ctx.sender != self.u:
            raise ContractError(f"only {self.u} posts the escrow premium")
        self.require(self.escrow_premium_state == "absent", "escrow premium already posted")
        self.require(
            ctx.height <= self.schedule.escrow_premium_deadline(self.arc),
            "escrow premium deadline passed",
        )
        self.pull(self._chain().native, self.u, self.escrow_premium_amount)
        self.escrow_premium_state = "held"
        self.emit("escrow_premium_deposited", arc=self.arc, amount=self.escrow_premium_amount)

    def deposit_redemption_premium(self, ctx: CallContext, path_chain: SignedPath) -> None:
        """``v`` posts a redemption premium for one leader's hashkey.

        The deposit carries an authenticated path; the contract prices it
        by Equation 1 to determine (and pull) the exact required amount.
        """
        if ctx.sender != self.v:
            raise ContractError(f"only {self.v} posts redemption premiums")
        leader = path_chain.originator
        if leader not in self.hashlocks:
            raise ContractError(f"unknown leader {leader!r}")
        if leader in self.redemption_deposits:
            raise ContractError(f"redemption premium for {leader} already posted")
        expected_payload = f"rpremium:{self.hashlocks[leader].digest}"
        self.require(path_chain.payload == expected_payload, "premium chain binds wrong hashlock")
        self.require(path_chain.head == self.v, "premium path must end at the depositor")
        self.require(path_chain.is_simple(), "premium path must be simple")
        path = path_chain.path  # redeemer-first
        self.require(self.graph.is_path(path), "premium path must follow arcs")
        length = path_chain.length
        if ctx.height > self.schedule.redemption_premium_deadline(length):
            raise ContractError(f"redemption premium timed out (|q|={length})")
        self.require(
            path_chain.verify(self._chain().registry, self.public_of),
            "premium path failed signature verification",
        )
        # imported here to avoid a package-level import cycle
        from repro.core.premiums import unit_redemption_amount

        # Equation 1 on the path checked above: one lookup in the graph's
        # premium plan, scaled by this contract's premium.
        amount = self.premium * unit_redemption_amount(
            self.graph, frozenset(path), self.u
        )
        self.pull(self._chain().native, self.v, amount)
        self.redemption_deposits[leader] = RedemptionDeposit(
            leader=leader, chain=path_chain, amount=amount, deposited_at=ctx.height
        )
        self.emit(
            "redemption_premium_deposited",
            arc=self.arc,
            leader=leader,
            path=path,
            amount=amount,
        )
        if self.activated:
            self.emit("arc_activated", arc=self.arc)

    # ------------------------------------------------------------------
    # overridden hooks
    # ------------------------------------------------------------------
    def _may_escrow(self, ctx: CallContext) -> None:
        self.require(
            self.activated,
            "arc not activated (redemption premiums incomplete)",
        )

    def escrow_principal(self, ctx: CallContext) -> None:
        super().escrow_principal(ctx)
        # Escrowing in time releases u's escrow premium immediately.
        if self.escrow_premium_state == "held":
            self._refund_escrow_premium(ctx.height)

    def _on_hashkey_accepted(self, leader: str, height: int) -> None:
        deposit = self.redemption_deposits.get(leader)
        if deposit is not None and deposit.state == "held":
            self.push(self._chain().native, self.v, deposit.amount)
            deposit.state = "refunded"
            deposit.resolved_at = height
            self.emit(
                "redemption_premium_refunded",
                arc=self.arc,
                leader=leader,
                to=self.v,
                amount=deposit.amount,
            )

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------
    def _escrow_premium_refund_due(self) -> int:
        # an unactivated escrow premium refunds at the end of phase 2
        unactivated = self.escrow_premium_state == "held" and not self.activated
        return self.schedule.activation_deadline + 1 if unactivated else NEVER

    def _refund_escrow_premium(self, height: int) -> None:
        self.push(self._chain().native, self.u, self.escrow_premium_amount)
        self.escrow_premium_state = "refunded"
        self.escrow_premium_resolved_at = height
        self.emit("escrow_premium_refunded", arc=self.arc, to=self.u)

    def _escrow_premium_award_due(self) -> int:
        # an activated escrow premium goes to v if the principal never came
        held = self.escrow_premium_state == "held" and self.principal_state == "absent"
        return self._principal_deadline() + 1 if held and self.activated else NEVER

    def _award_escrow_premium(self, height: int) -> None:
        self.push(self._chain().native, self.v, self.escrow_premium_amount)
        self.escrow_premium_state = "awarded"
        self.escrow_premium_resolved_at = height
        self.emit(
            "escrow_premium_awarded", arc=self.arc, to=self.v, amount=self.escrow_premium_amount
        )

    def _redemption_premium_award_due(self) -> int:
        # every unrefunded redemption premium goes to u at the end of phase 4
        for deposit in self.redemption_deposits.values():
            if deposit.state == "held":
                return self._final_deadline() + 1
        return NEVER

    def _award_redemption_premiums(self, height: int) -> None:
        for deposit in self.redemption_deposits.values():
            if deposit.state == "held":
                self.push(self._chain().native, self.u, deposit.amount)
                deposit.state = "awarded"
                deposit.resolved_at = height
                self.emit(
                    "redemption_premium_awarded",
                    arc=self.arc, leader=deposit.leader, to=self.u, amount=deposit.amount,
                )

    timeouts = (
        (_escrow_premium_refund_due, _refund_escrow_premium),
        (_escrow_premium_award_due, _award_escrow_premium),
        *BaseSwapArc.timeouts,
        (_redemption_premium_award_due, _award_redemption_premiums),
    )
