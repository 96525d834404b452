"""Contract event logs.

Contracts emit :class:`Event` records; the chain timestamps them with the
height at which the emitting transaction (or settlement tick) executed.
Traces, tests, and the benchmark harness all read protocol progress from
these logs rather than poking at contract internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, slots=True)
class Event:
    """One log record emitted by a contract."""

    chain: str
    contract: str
    name: str
    height: int
    data: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(self.data.items()))
        return f"[h={self.height} {self.chain}/{self.contract}] {self.name}({pairs})"
