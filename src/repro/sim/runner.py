"""The synchronous round runner.

``SyncRunner.run(rounds)`` drives the world: each round every actor (in a
fixed, deterministic order) observes the world at the current height and
submits transactions; then all chains advance one height, executing the
transactions and running settlement ticks.  The result bundles executed
transactions, payoffs, and the merged event trace.

Rounds are event-driven; a round in which nothing happens is not run.

- *Actors.*  After a round in which no actor submits anything, the
  runner asks each actor that ran for the next round it needs
  (:meth:`~repro.parties.base.Actor.idle_until`) and skips it until
  then.  A round in which any chain executes a transaction or emits an
  event wakes every actor for the next round.  The default wakes every
  round, so an actor that does not opt in sees every round.
- *Chains.*  A contract is ticked only from its ``next_tick`` on (see
  :meth:`repro.contracts.base.Contract.on_tick`).  A chain with no
  transaction and no contract due is not advanced; only its height moves.
- *Clock.*  After a round that changed nothing, the runner jumps the
  clock of every chain to the earliest round at which an actor wakes or a
  contract ticks.

Every run is the same as one that polls every actor and ticks every
contract each round: ``tests/test_event_rounds.py`` proves it, call by
call, on every default-matrix scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.block import Transaction
from repro.chain.events import Event
from repro.errors import ChainError
from repro.parties.base import Actor
from repro.sim.payoff import PayoffSheet
from repro.sim.world import World, WorldView


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
        world, actors = self.world, self.actors
        tracked = parties if parties is not None else [a.name for a in actors]
        sheet = PayoffSheet(world, tracked)
        result = RunResult(world=world, rounds=rounds, payoffs=sheet)
        chains = [world.chains[name] for name in sorted(world.chains)]
        transactions = result.transactions
        start = world.height
        # wake[i]: the next round in which actors[i] runs on_round
        wake = [0] * len(actors)
        rnd = 0
        while rnd < rounds:
            view = WorldView(world, start + rnd)
            by_chain: dict[str, list[Transaction]] = {}
            for i, actor in enumerate(actors):
                if wake[i] <= rnd:
                    for tx in actor.on_round(rnd, view):
                        by_chain.setdefault(tx.chain, []).append(tx)
            if not by_chain:
                # Nobody submitted, so each actor that ran names its next
                # round (a submission wakes every actor anyway).
                for i, actor in enumerate(actors):
                    if wake[i] <= rnd:
                        wake[i] = actor.idle_until(rnd)
            rnd += 1
            height = start + rnd
            changed = bool(by_chain)
            for chain in chains:
                batch = by_chain.get(chain.name)
                if batch or chain.next_tick <= height:
                    events = len(chain.events)
                    transactions.extend(chain.advance(batch or ()))
                    changed = changed or len(chain.events) != events
                else:
                    chain.height = height
            if changed:
                wake = [rnd] * len(actors)
                continue
            # Nothing happened: sleep until an actor wakes or a contract
            # ticks (the advance to height h runs in round h - 1 - start).
            target = rounds
            for due in wake:
                if due < target:
                    target = due
            for chain in chains:
                if chain.next_tick - 1 - start < target:
                    target = chain.next_tick - 1 - start
            if target > rnd:
                rnd = target
                for chain in chains:
                    chain.height = start + rnd
        sheet.finish()
        return result
