"""Premium-carrying escrow contract for the hedged two-party swap (§5.2).

One instance lives on each chain (Figure 1):

- the **banana** instance holds Bob's principal and Alice's premium
  ``p_a + p_b``,
- the **apricot** instance holds Alice's principal and Bob's premium
  ``p_b``.

In both instances the *premium payer is the redeemer* of that chain's
principal.  The contract's premium rules are exactly the paper's:

- if the principal is **not escrowed** by its deadline, the premium refunds
  to the payer (the would-be redeemer was blocked by the escrower),
- if the principal is escrowed and **redeemed** before the timelock, the
  premium refunds to the payer,
- if the principal is escrowed and **not redeemed** by the timelock, the
  premium is awarded to the principal's owner as lockup compensation, and
  the principal refunds to its owner.

Premiums are paid in the chain's native currency; the principal may be any
asset of the chain.
"""

from __future__ import annotations

from repro.chain.assets import Asset
from repro.chain.blockchain import NEVER, CallContext
from repro.contracts.base import Contract
from repro.crypto.hashing import Hashlock


class HedgedEscrow(Contract):
    """Escrow of one principal plus the counterparty's premium."""

    kind = "hedged-escrow"

    def __init__(
        self,
        principal_asset: Asset,
        principal_amount: int,
        principal_owner: str,
        redeemer: str,
        hashlock: Hashlock,
        premium_amount: int,
        premium_deadline: int,
        principal_deadline: int,
        redemption_timelock: int,
        redeem_to_owner: bool = False,
    ) -> None:
        """``redeem_to_owner=True`` turns the contract into a *deposit
        exchange*: a successful redemption releases the principal back to
        its owner instead of paying the redeemer.  Premium bootstrapping
        (§6) uses this mode — each bootstrap round locks and releases
        premium deposits rather than swapping them, while keeping exactly
        the hedged-swap compensation rules."""
        super().__init__()
        self.principal_asset = principal_asset
        self.principal_amount = principal_amount
        self.principal_owner = principal_owner
        self.redeemer = redeemer
        self.hashlock = hashlock
        self.premium_amount = premium_amount
        self.premium_deadline = premium_deadline
        self.principal_deadline = principal_deadline
        self.redemption_timelock = redemption_timelock
        self.redeem_to_owner = redeem_to_owner

        self.premium_state = "absent"  # absent | held | refunded | awarded
        self.principal_state = "absent"  # absent | escrowed | redeemed | refunded
        self.revealed_preimage: bytes | None = None
        self.premium_deposited_at: int | None = None
        self.principal_escrowed_at: int | None = None
        self.premium_resolved_at: int | None = None
        self.principal_resolved_at: int | None = None

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def deposit_premium(self, ctx: CallContext) -> None:
        """The redeemer posts the premium (native currency)."""
        self.require(ctx.sender == self.redeemer, "only the redeemer pays the premium")
        self.require(self.premium_state == "absent", "premium already deposited")
        self.require(ctx.height <= self.premium_deadline, "premium deadline passed")
        self.pull(self._chain().native, self.redeemer, self.premium_amount)
        self.premium_state = "held"
        self.premium_deposited_at = ctx.height
        self.emit("premium_deposited", payer=self.redeemer, amount=self.premium_amount)

    def escrow_principal(self, ctx: CallContext) -> None:
        """The owner escrows the principal (requires the premium in place)."""
        self.require(ctx.sender == self.principal_owner, "only the owner escrows")
        self.require(self.premium_state == "held", "premium must be deposited first")
        self.require(self.principal_state == "absent", "principal already escrowed")
        self.require(ctx.height <= self.principal_deadline, "escrow deadline passed")
        self.pull(self.principal_asset, self.principal_owner, self.principal_amount)
        self.principal_state = "escrowed"
        self.principal_escrowed_at = ctx.height
        self.emit(
            "principal_escrowed",
            owner=self.principal_owner,
            amount=self.principal_amount,
            asset=str(self.principal_asset),
        )

    def redeem(self, ctx: CallContext, preimage: bytes) -> None:
        """Redeemer presents the secret: principal to redeemer, premium back."""
        self.require(self.principal_state == "escrowed", "no escrowed principal")
        self.require(ctx.height <= self.redemption_timelock, "timelock expired")
        self.require(self.hashlock.matches(preimage), "wrong preimage")
        principal_to = self.principal_owner if self.redeem_to_owner else self.redeemer
        self.push(self.principal_asset, principal_to, self.principal_amount)
        self.principal_state = "redeemed"
        self.principal_resolved_at = ctx.height
        self.revealed_preimage = preimage
        self.emit("redeemed", to=principal_to, amount=self.principal_amount)
        if self.premium_state == "held":
            self._refund_premium(ctx.height)

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------
    def _premium_refund_due(self) -> int:
        # the principal never showed up
        held = self.premium_state == "held" and self.principal_state == "absent"
        return self.principal_deadline + 1 if held else NEVER

    def _refund_premium(self, height: int) -> None:
        self.push(self._chain().native, self.redeemer, self.premium_amount)
        self.premium_state = "refunded"
        self.premium_resolved_at = height
        self.emit("premium_refunded", to=self.redeemer, amount=self.premium_amount)

    def _principal_refund_due(self) -> int:
        # redemption never happened
        escrowed = self.principal_state == "escrowed"
        return self.redemption_timelock + 1 if escrowed else NEVER

    def _refund_principal(self, height: int) -> None:
        """Principal refund, plus the premium award as lockup compensation."""
        self.push(self.principal_asset, self.principal_owner, self.principal_amount)
        self.principal_state = "refunded"
        self.principal_resolved_at = height
        self.emit("principal_refunded", to=self.principal_owner, amount=self.principal_amount)
        if self.premium_state == "held":
            self.push(self._chain().native, self.principal_owner, self.premium_amount)
            self.premium_state = "awarded"
            self.premium_resolved_at = height
            self.emit("premium_awarded", to=self.principal_owner, amount=self.premium_amount)

    timeouts = (
        (_premium_refund_due, _refund_premium),
        (_principal_refund_due, _refund_principal),
    )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def settled(self) -> bool:
        """True once neither premium nor principal is still held."""
        principal_done = self.principal_state in ("absent", "redeemed", "refunded")
        premium_done = self.premium_state in ("absent", "refunded", "awarded")
        return principal_done and premium_done and not (
            self.premium_state == "absent" and self.principal_state == "escrowed"
        )

    @property
    def principal_lockup(self) -> int | None:
        """Heights the principal spent locked, once resolved."""
        if self.principal_escrowed_at is None or self.principal_resolved_at is None:
            return None
        return self.principal_resolved_at - self.principal_escrowed_at

    @property
    def premium_lockup(self) -> int | None:
        """Heights the premium spent locked, once resolved."""
        if self.premium_deposited_at is None or self.premium_resolved_at is None:
            return None
        return self.premium_resolved_at - self.premium_deposited_at
