"""Plain hashed-timelock contract (HTLC) — the base §5.1 building block.

The owner escrows an asset under hashlock ``h`` and timelock ``t``.  Anyone
presenting the preimage ``s`` with ``H(s) = h`` at height ≤ ``t`` redeems
the asset to the designated counterparty; otherwise the asset refunds to the
owner after ``t``.  The revealed preimage becomes public chain state, which
is how the counterparty learns the secret in the swap protocol.
"""

from __future__ import annotations

from repro.chain.assets import Asset
from repro.chain.blockchain import NEVER, CallContext
from repro.contracts.base import Contract
from repro.crypto.hashing import Hashlock


class HTLC(Contract):
    """A single-asset hashed-timelock escrow."""

    kind = "htlc"

    CREATED = "created"
    ESCROWED = "escrowed"
    REDEEMED = "redeemed"
    REFUNDED = "refunded"

    def __init__(
        self,
        asset: Asset,
        amount: int,
        owner: str,
        counterparty: str,
        hashlock: Hashlock,
        timelock: int,
        escrow_deadline: int | None = None,
    ) -> None:
        super().__init__()
        self.asset = asset
        self.amount = amount
        self.owner = owner
        self.counterparty = counterparty
        self.hashlock = hashlock
        self.timelock = timelock
        self.escrow_deadline = timelock if escrow_deadline is None else escrow_deadline
        self.state = self.CREATED
        self.revealed_preimage: bytes | None = None
        self.escrowed_at: int | None = None
        self.resolved_at: int | None = None

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def escrow(self, ctx: CallContext) -> None:
        """Owner deposits the principal."""
        self.require(ctx.sender == self.owner, "only the owner escrows")
        self.require(self.state == self.CREATED, f"cannot escrow in state {self.state}")
        self.require(ctx.height <= self.escrow_deadline, "escrow deadline passed")
        self.pull(self.asset, self.owner, self.amount)
        self.state = self.ESCROWED
        self.escrowed_at = ctx.height
        self.emit("escrowed", owner=self.owner, amount=self.amount, asset=str(self.asset))

    def redeem(self, ctx: CallContext, preimage: bytes) -> None:
        """Present the secret; pays the principal to the counterparty."""
        self.require(self.state == self.ESCROWED, f"cannot redeem in state {self.state}")
        self.require(ctx.height <= self.timelock, "timelock expired")
        self.require(self.hashlock.matches(preimage), "wrong preimage")
        self.push(self.asset, self.counterparty, self.amount)
        self.state = self.REDEEMED
        self.revealed_preimage = preimage
        self.resolved_at = ctx.height
        self.emit("redeemed", to=self.counterparty, amount=self.amount)

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------
    def _refund_due(self) -> int:
        return self.timelock + 1 if self.state == self.ESCROWED else NEVER

    def _refund(self, height: int) -> None:
        self.push(self.asset, self.owner, self.amount)
        self.state = self.REFUNDED
        self.resolved_at = height
        self.emit("refunded", to=self.owner, amount=self.amount)

    timeouts = ((_refund_due, _refund),)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def lockup_duration(self) -> int | None:
        """Heights the principal spent locked, once resolved."""
        if self.escrowed_at is None or self.resolved_at is None:
            return None
        return self.resolved_at - self.escrowed_at
