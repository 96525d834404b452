"""The synchronous round runner.

``SyncRunner.run(rounds)`` drives the world: each round every actor (in a
fixed, deterministic order) observes the world at the current height and
submits transactions; then all chains advance one height, executing the
transactions and running settlement ticks.  The result bundles executed
transactions, payoffs, and the merged event trace.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.chain.block import Transaction
from repro.chain.events import Event
from repro.errors import ChainError
from repro.parties.base import Actor
from repro.sim.payoff import PayoffSheet
from repro.sim.world import World


@dataclass
class RunResult:
    """Everything observable about a finished run."""

    world: World
    rounds: int
    transactions: list[Transaction] = field(default_factory=list)
    payoffs: PayoffSheet | None = None

    @property
    def events(self) -> list[Event]:
        """All events from all chains, ordered by height then chain name."""
        merged: list[Event] = []
        for name in sorted(self.world.chains):
            merged.extend(self.world.chains[name].events)
        merged.sort(key=lambda e: (e.height, e.chain))
        return merged

    def events_named(self, name: str) -> list[Event]:
        return [e for e in self.events if e.name == name]

    def reverted(self) -> list[Transaction]:
        """Transactions that reverted (useful for compliance assertions)."""
        return [t for t in self.transactions if t.receipt.status == "reverted"]

    def format_trace(self) -> str:
        """A printable protocol trace (one line per event)."""
        return "\n".join(str(e) for e in self.events)


class SyncRunner:
    """Round-based driver for a set of actors over a world."""

    def __init__(self, world: World, actors: list[Actor]) -> None:
        names = [a.name for a in actors]
        if len(set(names)) != len(names):
            raise ChainError(f"duplicate actor names: {names}")
        self.world = world
        # Fixed order for determinism; any order satisfies the model.
        self.actors = sorted(actors, key=lambda a: a.name)

    def run(self, rounds: int, parties: list[str] | None = None) -> RunResult:
        """Run ``rounds`` rounds and return the result.

        ``parties`` selects whose payoffs to track (defaults to actor names).
        """
        tracked = parties if parties is not None else [a.name for a in self.actors]
        sheet = PayoffSheet(self.world, tracked)
        result = RunResult(world=self.world, rounds=rounds, payoffs=sheet)
        chains = [self.world.chains[name] for name in sorted(self.world.chains)]
        transactions = result.transactions
        for rnd in range(rounds):
            view = self.world.view()
            by_chain: dict[str, list[Transaction]] = defaultdict(list)
            for actor in self.actors:
                for tx in actor.on_round(rnd, view):
                    by_chain[tx.chain].append(tx)
            for chain in chains:
                transactions.extend(chain.advance(by_chain.get(chain.name, ())))
        sheet.finish()
        return result
