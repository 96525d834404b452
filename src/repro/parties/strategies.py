"""Deviation strategies: the contract-constrained adversary.

The paper's threat model (§3.2) restricts Byzantine parties to transactions
that individual contracts accept, so the adversary's whole power is choosing
which protocol actions to *omit* (a sore loser halts partway) or which
extra legal actions to attempt.  :class:`Deviant` wraps any compliant actor
and filters its output:

- ``halt_round`` — submit nothing from that round on (the classic sore
  loser: "one party decides to halt participation partway through"),
- ``skip`` — drop transactions matching method-name / chain / contract
  patterns (selective deviation, e.g. "never escrow on arc (C,A)"),
- ``extra`` — inject additional transactions at given rounds (e.g. a
  cheating auctioneer publishing the losing bidder's hashkey).

The model checker enumerates these wrappers exhaustively for small
protocols.

Both wrappers forward their inner actor's wake state
(:meth:`repro.parties.base.Actor.idle_until`): an inner actor that
planned a transaction the wrapper held back or dropped is woken next
round, as it would resubmit, and a lag wrapper also wakes for its queued
releases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.chain.block import Transaction
from repro.chain.blockchain import NEVER
from repro.parties.base import Actor, next_of

if TYPE_CHECKING:  # pragma: no cover - avoids a package-level import cycle
    from repro.sim.world import WorldView

SkipPredicate = Callable[[Transaction], bool]


@dataclass(frozen=True)
class SkipRule:
    """Matches transactions to drop; ``None`` fields match anything."""

    method: str | None = None
    chain: str | None = None
    contract: str | None = None

    def matches(self, tx: Transaction) -> bool:
        return (
            (self.method is None or tx.method == self.method)
            and (self.chain is None or tx.chain == self.chain)
            and (self.contract is None or tx.contract == self.contract)
        )


class Deviant(Actor):
    """An adversarial wrapper around a compliant actor."""

    def __init__(
        self,
        inner: Actor,
        halt_round: int | None = None,
        skip_rules: tuple[SkipRule, ...] = (),
        skip_predicate: SkipPredicate | None = None,
        extra: dict[int, list[Transaction]] | None = None,
    ) -> None:
        super().__init__(inner.name, inner.keypair)
        self.inner = inner
        self.halt_round = halt_round
        self.skip_rules = skip_rules
        self.skip_predicate = skip_predicate
        self.extra = extra or {}
        #: the inner actor planned transactions in its last round
        self._inner_busy = False

    def on_round(self, rnd: int, view: "WorldView") -> list[Transaction]:
        # Lists are built only in a round that injects; callers read the
        # returned list and never mutate it, so the inner one passes as is.
        injected = self.extra.get(rnd)
        if self.halt_round is not None and rnd >= self.halt_round:
            return list(injected) if injected else []
        planned = self.inner.on_round(rnd, view)
        self._inner_busy = bool(planned)
        if self.skip_rules or self.skip_predicate:
            planned = [tx for tx in planned if not self._drops(tx)]
        return [*planned, *injected] if injected else planned

    def idle_until(self, rnd: int) -> int:
        if self.halt_round is not None and rnd >= self.halt_round:
            wake = NEVER
        elif self._inner_busy:
            return rnd + 1
        else:
            wake = self.inner.idle_until(rnd)
        return min(wake, next_of(self.extra, rnd)) if self.extra else wake

    def _drops(self, tx: Transaction) -> bool:
        if any(rule.matches(tx) for rule in self.skip_rules):
            return True
        return bool(self.skip_predicate and self.skip_predicate(tx))

    def describe(self) -> str:
        """Human-readable summary for traces and checker reports."""
        parts = []
        if self.halt_round is not None:
            parts.append(f"halts at round {self.halt_round}")
        if self.skip_rules:
            parts.append(
                "skips " + ", ".join(r.method or "<any>" for r in self.skip_rules)
            )
        if self.skip_predicate:
            parts.append("skips by predicate")
        if self.extra:
            parts.append(f"injects at rounds {sorted(self.extra)}")
        return f"{self.name}: " + ("; ".join(parts) or "compliant")


def halt_at(inner: Actor, rnd: int) -> Deviant:
    """A sore loser who stops participating from round ``rnd`` on."""
    return Deviant(inner, halt_round=rnd)


def skip_methods(inner: Actor, *methods: str) -> Deviant:
    """Drop every transaction calling one of ``methods``."""
    return Deviant(inner, skip_rules=tuple(SkipRule(method=m) for m in methods))


class Laggard(Actor):
    """Delays every action by ``lag`` rounds (§1: "parties may even have an
    incentive to run the protocol as slowly as possible").

    The paper's timeouts are tight — each step gets exactly Δ — so any
    positive lag makes a party miss its deadlines, and the contracts treat
    it exactly like a sore loser: its late transactions revert and the
    premium machinery compensates the counterparties.  This wrapper lets
    tests and the checker verify that going slow is never profitable.

    The inner actor still observes fresh views each round (it decides with
    current information); only its *submissions* are postponed.
    """

    def __init__(self, inner: Actor, lag: int) -> None:
        super().__init__(inner.name, inner.keypair)
        self.inner = inner
        self.lag = max(0, lag)
        self._queue: dict[int, list[Transaction]] = {}
        #: the inner actor planned transactions in its last round
        self._inner_busy = False

    def on_round(self, rnd: int, view: "WorldView") -> list[Transaction]:
        produced = self.inner.on_round(rnd, view)
        self._inner_busy = bool(produced)
        if produced:
            self._queue.setdefault(rnd + self.lag, []).extend(produced)
        return self._queue.pop(rnd, [])

    def idle_until(self, rnd: int) -> int:
        inner = rnd + 1 if self._inner_busy else self.inner.idle_until(rnd)
        return min(inner, next_of(self._queue, rnd)) if self._queue else inner


def lag_by(inner: Actor, lag: int) -> Laggard:
    """Convenience constructor mirroring :func:`halt_at`."""
    return Laggard(inner, lag)
