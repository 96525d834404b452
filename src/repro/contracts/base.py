"""Contract base class and runtime helpers.

A contract is a deterministic, passive program owning an account on exactly
one chain.  Public methods (no leading underscore) are callable via
transactions; each takes a :class:`repro.chain.blockchain.CallContext` as
its first argument.  ``self.require(...)`` reverts the enclosing transaction
when a precondition fails.  ``on_tick(height)`` runs once per height after
user transactions and performs timeout settlement (refunds and premium
awards); on a real chain these would be keeper transactions anyone can send
— economically equivalent, and the paper's contracts are specified the same
way ("if the contract does not receive the matching secret before time t has
elapsed, the asset is refunded").
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any

from repro.chain.assets import Asset
from repro.errors import ContractError, StateError

if TYPE_CHECKING:  # pragma: no cover
    from repro.chain.blockchain import Blockchain


class Contract:
    """Base class for every contract in the library.

    Ownership runs one way: a chain owns its contracts (in its
    ``contracts`` dict), and a contract refers back to its chain only
    weakly.  A finished world then holds no reference cycle, so reference
    counting frees it as soon as its last user lets go, with no work for
    the cycle collector.  A contract whose chain is gone acts as an
    undeployed one: using it raises :class:`repro.errors.StateError`.
    """

    kind = "contract"

    #: the first height at which :meth:`on_tick` may act (see there); 0,
    #: the default, means "tick every block".
    next_tick = 0

    def __init__(self) -> None:
        self._chain_ref: "weakref.ref[Blockchain] | None" = None
        self.address: str = ""

    @property
    def chain(self) -> "Blockchain | None":
        """The host chain, or None before deployment or once it is gone."""
        ref = self._chain_ref
        return None if ref is None else ref()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def install(self, chain: "Blockchain", address: str) -> None:
        """Bind the contract to its chain; called by ``Blockchain.deploy``."""
        if self._chain_ref is not None:
            raise StateError(f"{self.kind} already deployed at {self.address}")
        self._chain_ref = weakref.ref(chain)
        self.address = address
        self.next_tick = self._next_tick()

    def on_tick(self, height: int) -> None:
        """Timeout settlement hook; default does nothing.

        The chain skips this hook at every height ``h < next_tick``, so a
        subclass that overrides it must keep one promise: while the
        contract stays in its current state, ``on_tick(h)`` changes no
        state, balance or event at such heights.  :meth:`_next_tick`
        derives that height from the current state: the minimum of
        ``X + 1`` over the ``height > X`` guards whose state conditions
        hold now, or :data:`~repro.chain.blockchain.NEVER` when none can
        fire.  Only a transaction to the contract or its own tick changes
        its state, so the chain recomputes ``next_tick`` after each of
        those.  A subclass that cannot promise this keeps the default 0
        and ticks every block.
        """

    def _next_tick(self) -> int:
        """The ``next_tick`` height of this contract's state (see on_tick)."""
        return 0

    # ------------------------------------------------------------------
    # helpers available to subclasses
    # ------------------------------------------------------------------
    def require(self, condition: bool, message: str) -> None:
        """Revert the transaction unless ``condition`` holds."""
        if not condition:
            raise ContractError(message)

    def emit(self, name: str, **data: Any) -> None:
        """Log an event on the host chain."""
        self._chain().emit(self.address, name, data)

    def balance(self, asset: Asset) -> int:
        """The contract's own holdings of ``asset``."""
        return self._chain().ledger.balance(asset, self.address)

    def pull(self, asset: Asset, source: str, amount: int) -> None:
        """Escrow: move ``amount`` from ``source`` into the contract."""
        try:
            self._chain().ledger.transfer(asset, source, self.address, amount)
        except Exception as err:  # ledger errors revert the transaction
            raise ContractError(str(err)) from err

    def push(self, asset: Asset, dest: str, amount: int) -> None:
        """Pay out ``amount`` from the contract to ``dest``."""
        self._chain().ledger.transfer(asset, self.address, dest, amount)

    def _chain(self) -> "Blockchain":
        ref = self._chain_ref
        chain = None if ref is None else ref()
        if chain is None:
            raise StateError(f"{self.kind} used before deployment")
        return chain
