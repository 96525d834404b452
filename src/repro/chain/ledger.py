"""A journaled single-chain ledger.

The ledger tracks integer balances per (asset, account).  All mutation goes
through :meth:`Ledger.transfer` / :meth:`Ledger.mint`, which append undo
records to the active journal frame; :class:`repro.chain.blockchain.Blockchain`
opens a frame per transaction and rolls back on contract revert.  Total
supply per asset is conserved by every operation except ``mint``/``burn``,
which only test fixtures and genesis allocation use.

Every asset a ledger holds is managed by its own chain, so balances are
keyed internally by ``(symbol, account)``: plain strings, which hash in C,
where an :class:`Asset` key would call the dataclass ``__hash__`` on every
lookup.  Queries and snapshots speak in assets, as before.

A ledger forks between transactions (:meth:`Ledger.fork`): the copy owns
its balances and starts with an empty journal.
"""

from __future__ import annotations

from collections import defaultdict

from repro.chain.assets import Asset, asset_of
from repro.errors import InsufficientFunds, LedgerError

#: a balance key: (asset symbol, account) on this ledger's chain
Key = tuple[str, str]


class Ledger:
    """Integer balances for one chain, with nested-journal rollback."""

    def __init__(self, chain: str) -> None:
        self.chain = chain
        self._balances: dict[Key, int] = defaultdict(int)
        self._journal: list[list[tuple[Key, int]]] = []

    def fork(self) -> "Ledger":
        """A copy with its own balances, taken outside any journal frame."""
        if self._journal:
            raise LedgerError("cannot fork a ledger inside a journal frame")
        twin = Ledger.__new__(Ledger)
        twin.chain = self.chain
        twin._balances = self._balances.copy()
        twin._journal = []
        return twin

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def balance(self, asset: Asset, account: str) -> int:
        """Current balance of ``account`` in ``asset``."""
        if asset.chain != self.chain:
            return 0  # chains are isolated: nobody holds a foreign asset here
        return self._balances[(asset.symbol, account)]

    def total_supply(self, asset: Asset) -> int:
        """Sum of all balances of ``asset`` (conserved by transfers)."""
        if asset.chain != self.chain:
            return 0
        return sum(v for (s, _), v in self._balances.items() if s == asset.symbol)

    def accounts_holding(self, asset: Asset) -> dict[str, int]:
        """Non-zero holders of ``asset`` mapped to their balances."""
        if asset.chain != self.chain:
            return {}
        return {
            account: amount
            for (s, account), amount in self._balances.items()
            if s == asset.symbol and amount != 0
        }

    def snapshot(self) -> dict[tuple[Asset, str], int]:
        """A copy of all non-zero balances (for payoff accounting)."""
        chain = self.chain
        return {
            (asset_of(chain, symbol), account): v
            for (symbol, account), v in self._balances.items()
            if v != 0
        }

    # ------------------------------------------------------------------
    # journaled mutation
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Open a journal frame (one per transaction)."""
        self._journal.append([])

    def commit(self) -> None:
        """Discard the innermost journal frame, keeping its effects."""
        if not self._journal:
            raise LedgerError("commit without begin")
        frame = self._journal.pop()
        if self._journal:
            # merge into the enclosing frame so an outer rollback still works
            self._journal[-1].extend(frame)

    def rollback(self) -> None:
        """Undo every write of the innermost journal frame."""
        if not self._journal:
            raise LedgerError("rollback without begin")
        frame = self._journal.pop()
        for key, old_value in reversed(frame):
            self._balances[key] = old_value

    def _write(self, key: Key, old_value: int, value: int) -> None:
        """Set ``key`` from ``old_value`` (its current balance) to ``value``."""
        if self._journal:
            self._journal[-1].append((key, old_value))
        self._balances[key] = value

    def mint(self, asset: Asset, account: str, amount: int) -> None:
        """Create ``amount`` of ``asset`` in ``account`` (genesis/fixtures)."""
        self._require_local(asset)
        if amount < 0:
            raise LedgerError(f"cannot mint negative amount {amount}")
        key = (asset.symbol, account)
        held = self._balances[key]
        self._write(key, held, held + amount)

    def burn(self, asset: Asset, account: str, amount: int) -> None:
        """Destroy ``amount`` of ``asset`` held by ``account``."""
        self._require_local(asset)
        key = (asset.symbol, account)
        held = self._require_funds(asset, key, amount)
        self._write(key, held, held - amount)

    def transfer(self, asset: Asset, source: str, dest: str, amount: int) -> None:
        """Move ``amount`` of ``asset`` from ``source`` to ``dest``."""
        self._require_local(asset)
        if amount < 0:
            raise LedgerError(f"cannot transfer negative amount {amount}")
        if source == dest:
            return
        symbol = asset.symbol
        src_key, dst_key = (symbol, source), (symbol, dest)
        held = self._require_funds(asset, src_key, amount)
        self._write(src_key, held, held - amount)
        received = self._balances[dst_key]
        self._write(dst_key, received, received + amount)

    # ------------------------------------------------------------------
    # guards
    # ------------------------------------------------------------------
    def _require_local(self, asset: Asset) -> None:
        if asset.chain != self.chain:
            raise LedgerError(
                f"asset {asset} is managed by chain {asset.chain!r}, "
                f"not {self.chain!r} — chains are isolated"
            )

    def _require_funds(self, asset: Asset, key: Key, amount: int) -> int:
        """The balance at ``key``, once it is known to cover ``amount``."""
        held = self._balances[key]
        if amount > held:
            raise InsufficientFunds(
                f"{key[1]} holds {held} {asset}, needs {amount}"
            )
        return held
