"""A single simulated blockchain.

Height is the clock: one height unit is one Δ of the synchronous model.
The simulation runner advances all chains in lockstep; transactions
submitted during round ``r`` execute at height ``r + 1`` and are visible to
every party at the start of round ``r + 1`` — exactly the paper's "valid
transactions ... will be included in a block and visible to participants
within a known, bounded time Δ".

Contracts are deployed onto a chain and may only touch that chain's ledger
(enforced by :class:`repro.chain.ledger.Ledger`).  Contract calls run inside
a journal frame; a :class:`repro.errors.ContractError` reverts the
transaction, leaving the ledger untouched and recording the failure in the
transaction receipt.

Ownership runs one way: a chain owns its contracts (its ``contracts``
dict), and a contract refers back to its chain only weakly (see
:class:`repro.contracts.base.Contract`).  A finished world therefore holds
no reference cycle and is freed by reference counting as soon as its
last user drops it.
"""

from __future__ import annotations

import itertools
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

from repro.chain.assets import Asset, asset_of, native_asset
from repro.chain.block import Transaction
from repro.chain.events import Event
from repro.chain.ledger import Ledger
from repro.errors import ChainError, ContractError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.contracts.base import Contract
    from repro.crypto.keys import KeyRegistry


#: A height no run reaches: the next tick of a contract with nothing left
#: to settle, and the wake of an actor that waits only on events.
NEVER = sys.maxsize

#: The ``next_tick`` of a contract called by the block being mined, until
#: the block's transactions are done and it is recomputed (see
#: :meth:`Blockchain.advance`).
STALE = -1


class CallContext(NamedTuple):
    """Per-call environment handed to contract methods (immutable).

    A named tuple rather than a frozen dataclass: one is built for every
    transaction, and a tuple is built at about half the cost.
    """

    sender: str
    height: int


class Blockchain:
    """One chain: ledger + contracts + event log + height."""

    def __init__(self, name: str, registry: "KeyRegistry") -> None:
        self.name = name
        #: the chain's native currency (used for premiums)
        self.native: Asset = native_asset(name)
        self.registry = registry
        self.ledger = Ledger(name)
        self.height = 0
        self.events: list[Event] = []
        self.contracts: dict[str, "Contract"] = {}
        #: the earliest ``next_tick`` of this chain's contracts
        self.next_tick = NEVER
        #: True while :meth:`advance` runs a block's transactions
        self._in_block = False
        self._addr_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # assets
    # ------------------------------------------------------------------
    def asset(self, symbol: str) -> Asset:
        """An asset managed by this chain."""
        return asset_of(self.name, symbol)

    # ------------------------------------------------------------------
    # contracts
    # ------------------------------------------------------------------
    def deploy(self, contract: "Contract") -> str:
        """Install ``contract`` and return its address."""
        address = f"{contract.kind}-{next(self._addr_counter)}"
        contract.install(self, address)
        self.contracts[address] = contract
        self.next_tick = min(self.next_tick, contract.next_tick)
        self.emit(address, "deployed", {})
        return address

    def contract_at(self, address: str) -> "Contract":
        """Look up a deployed contract."""
        try:
            return self.contracts[address]
        except KeyError:
            raise ChainError(f"no contract {address!r} on chain {self.name!r}") from None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, tx: Transaction) -> Transaction:
        """Run ``tx`` at the current height with revert semantics.

        The called contract's ``next_tick`` is recomputed afterwards,
        whether the call committed or reverted: at once for a direct
        call, and once the block's transactions are done for a call
        :meth:`advance` makes.
        """
        if tx.chain != self.name:
            raise ChainError(f"{tx} routed to wrong chain {self.name!r}")
        ctx = CallContext(tx.sender, self.height)
        ledger = self.ledger
        ledger.begin()
        events_mark = len(self.events)
        contract = None
        try:
            contract = self.contract_at(tx.contract)
            method: Callable[..., Any] = getattr(contract, tx.method, None)
            # Non-callable attributes (state fields, properties) are not an
            # ABI: calling one must read as "no such method", not as the
            # malformed-calldata TypeError the call below would raise.
            if not callable(method) or tx.method.startswith("_"):
                raise ContractError(f"no public method {tx.method!r}")
            try:
                method(ctx, **tx.args)
            except (TypeError, AttributeError) as err:
                # the ABI-decode failure of a real chain: bad calldata,
                # whether the arguments do not bind or an argument lacks
                # the fields its type promises
                raise ContractError(f"malformed arguments: {err}") from err
        except (ContractError, ChainError) as err:
            ledger.rollback()
            del self.events[events_mark:]
            tx.receipt.status = "reverted"
            tx.receipt.error = str(err)
        except BaseException:
            # A fault in the simulator itself: leave the chain as it was
            # before the call, then let the fault propagate.
            ledger.rollback()
            del self.events[events_mark:]
            raise
        else:
            ledger.commit()
            tx.receipt.status = "ok"
        if contract is not None:
            if self._in_block:
                contract.next_tick = STALE
            else:
                contract.next_tick = contract._next_tick()
                self.next_tick = min(self.next_tick, contract.next_tick)
        tx.receipt.height = self.height
        return tx

    def advance(self, transactions: Iterable[Transaction] = ()) -> list[Transaction]:
        """Mine one block: bump height, apply ``transactions``, settle.

        Settlement (`on_tick`) runs after user transactions at the same
        height, so an action with deadline ``k`` can still land at height
        ``k`` while refunds for the deadline trigger at height ``k + 1``.
        A contract is ticked only from its ``next_tick`` on, since below
        it its settlement provably does nothing; those due tick in deploy
        order and recompute their ``next_tick``.  A contract the block's
        transactions called recomputes its ``next_tick`` once, after the
        last of them, however many there were: its due heights read only
        its own state, which only its own calls change.
        """
        self.height = height = self.height + 1
        # most blocks carry no transactions: skip building the list then
        executed = []
        if transactions:
            self._in_block = True
            try:
                executed = [self.execute(tx) for tx in transactions]
            finally:
                self._in_block = False
        due = NEVER
        for contract in list(self.contracts.values()):
            nxt = contract.next_tick
            if nxt == STALE:
                nxt = contract.next_tick = contract._next_tick()
            if height >= nxt:
                contract.on_tick(height)
                nxt = contract.next_tick = contract._next_tick()
            if nxt < due:
                due = nxt
        self.next_tick = due
        return executed

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def emit(self, contract: str, name: str, data: dict[str, Any]) -> None:
        """Record an event at the current height."""
        self.events.append(Event(self.name, contract, name, self.height, dict(data)))

    def events_named(self, name: str) -> list[Event]:
        """All events with the given name, in order."""
        return [e for e in self.events if e.name == name]


class ChainView:
    """Read-only facade over a chain, handed to parties each round.

    Parties must treat everything reachable from a view as immutable; the
    facade exposes only query methods.  The view's height is the height at
    which the observation is taken (start of the party's round).
    """

    def __init__(self, chain: Blockchain) -> None:
        self._chain = chain

    @property
    def name(self) -> str:
        return self._chain.name

    @property
    def height(self) -> int:
        return self._chain.height

    @property
    def native(self) -> Asset:
        return self._chain.native

    def asset(self, symbol: str) -> Asset:
        return self._chain.asset(symbol)

    def balance(self, asset: Asset, account: str) -> int:
        return self._chain.ledger.balance(asset, account)

    def contract(self, address: str) -> "Contract":
        """The deployed contract object — read-only by convention."""
        return self._chain.contract_at(address)

    def events(self) -> tuple[Event, ...]:
        return tuple(self._chain.events)

    def events_named(self, name: str) -> list[Event]:
        return self._chain.events_named(name)
