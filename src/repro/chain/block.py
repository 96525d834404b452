"""Transactions and receipts.

A :class:`Transaction` is a signed intent to call one contract method.  The
simulator collects transactions during a round and the chain executes them
at the next height in deterministic order (submission order, which the
runner derives from a fixed party ordering — real chains order by miner
policy; any deterministic order satisfies the paper's model, which only
relies on inclusion within Δ).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

_tx_counter = itertools.count()


@dataclass(slots=True)
class Receipt:
    """Execution outcome of a transaction."""

    status: str = "pending"  # pending | ok | reverted
    error: str = ""
    height: int = -1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(slots=True)
class Transaction:
    """A contract call: who calls what, with which arguments."""

    chain: str
    sender: str
    contract: str
    method: str
    args: dict[str, Any] = field(default_factory=dict)
    nonce: int = field(default_factory=_tx_counter.__next__)
    receipt: Receipt = field(default_factory=Receipt)

    def __str__(self) -> str:
        return (
            f"tx#{self.nonce} {self.sender} -> "
            f"{self.chain}/{self.contract}.{self.method}"
        )
