"""Contract base class and runtime helpers.

A contract is a deterministic, passive program owning an account on exactly
one chain.  Public methods (no leading underscore) are callable via
transactions; each takes a :class:`repro.chain.blockchain.CallContext` as
its first argument.  ``self.require(...)`` reverts the enclosing transaction
when a precondition fails.  Timeout settlement (refunds and premium awards)
runs after user transactions at each height; on a real chain these would be
keeper transactions anyone can send — economically equivalent.  A contract
declares it as rows in :attr:`Contract.timeouts`, the way the paper
specifies its contracts ("if the contract does not receive the matching
secret before time t has elapsed, the asset is refunded").
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any

from repro.chain.assets import Asset
from repro.chain.blockchain import NEVER, ForkMemo, fork_object
from repro.errors import ContractError, StateError

if TYPE_CHECKING:  # pragma: no cover
    from repro.chain.blockchain import Blockchain


class Contract:
    """Base class for every contract in the library.

    A contract declares each timed transition once, as a row of
    :attr:`timeouts`: a pair of class-level functions ``(due, fire)``.
    ``due(self)`` reads the height at which the row fires from the
    contract's own current state, or :data:`~repro.chain.blockchain.NEVER`
    when it cannot fire;
    ``fire(self, height)`` settles without testing the height again.  From
    the rows the base class derives both :meth:`on_tick` and
    ``next_tick``, so the deadline a contract ticks at and the one it acts
    at are the same number.  A subclass extends its parent's rows by
    composing them (``timeouts = (row, *Parent.timeouts, row)``).

    Ownership runs one way: a chain owns its contracts (in its
    ``contracts`` dict), and a contract refers back to its chain only
    weakly.  A finished world then holds no reference cycle, so reference
    counting frees it as soon as its last user lets go, with no work for
    the cycle collector.  (Rows are plain functions on the class for the
    same reason: a bound method kept on the instance would point back at
    it.)  A contract whose chain is gone acts as an undeployed one: using
    it raises :class:`repro.errors.StateError`.

    A contract forks with its chain (:meth:`fork`): the copy owns its
    fields, the containers they are and the mutable records those hold
    (such as redemption deposits), and shares every frozen value.
    """

    kind = "contract"

    #: the timed transitions, as ``(due, fire)`` rows in firing order
    timeouts: tuple = ()

    #: the first height at which :meth:`on_tick` may act: the minimum due
    #: height over the rows; 0 (tick every block) for a contract with none
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

    def fork(self, chain: "Blockchain", memo: ForkMemo) -> "Contract":
        """A copy of this contract deployed on ``chain``, the fork of its
        own chain; its fields are copied by
        :func:`~repro.chain.blockchain.forked`."""
        twin = fork_object(self, memo)
        twin._chain_ref = weakref.ref(chain)
        return twin

    def on_tick(self, height: int) -> None:
        """Fire, in declared order, each row due at or below ``height``.

        Each due height is read at its row's turn, since an earlier row
        may have changed the state.  The chain ticks a contract only from
        its ``next_tick`` on and recomputes it after every tick, and once
        per block for a contract the block's transactions called.
        """
        for due, fire in self.timeouts:
            if due(self) <= height:
                fire(self, height)

    def _next_tick(self) -> int:
        """The minimum due height over the rows (0 when there are none)."""
        rows = self.timeouts
        if not rows:
            return 0
        nxt = NEVER
        for due, _ in rows:
            at = due(self)
            if at < nxt:
                nxt = at
        return nxt

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
