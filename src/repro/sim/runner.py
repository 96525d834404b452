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

A run can also stop between rounds and fork (:meth:`SyncRunner.fork`):
the copy plays on by itself, and its actors may be swapped for wrapped
ones first.  That is how a campaign plays a block's compliant prefix
once for all its halting scenarios (see
:func:`repro.campaign.scenario.run_scenarios`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.block import Transaction
from repro.chain.blockchain import ForkMemo
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
    """Round-based driver for a set of actors over a world.

    :meth:`run` plays a run to its end.  The same loop can also stop
    partway: :meth:`start` sets a run up, :meth:`resume` with ``until=r``
    plays it to the first round at or after ``r`` the loop reaches (it
    skips idle rounds), and :meth:`fork` hands out a copy that carries on
    from there, independently of this one.

    Why a fork can stand in for a run of its own: suppose a run's actors
    are wrapped, from round 0, in :class:`~repro.parties.strategies.Deviant`
    wrappers that only halt, the earliest at round ``r``.  Before its halt
    round such a wrapper passes its inner actor's transactions and
    ``idle_until`` answers through unchanged, so every loop iteration
    before round ``r`` runs exactly as in the compliant run, state for
    state, clock jumps included.  A fork of the compliant run stopped at
    the first iteration at or after ``r``, with the wrappers put on its
    actors there, therefore plays on exactly as the wrapped run does.
    """

    def __init__(self, world: World, actors: list[Actor]) -> None:
        names = [a.name for a in actors]
        if len(set(names)) != len(names):
            raise ChainError(f"duplicate actor names: {names}")
        self.world = world
        # Fixed order for determinism; any order satisfies the model.
        self.actors = sorted(actors, key=lambda a: a.name)
        #: the run in progress (set by start) and whether it has played
        #: its last round
        self.result: RunResult | None = None
        self.finished = False

    def run(self, rounds: int, parties: list[str] | None = None) -> RunResult:
        """Run ``rounds`` rounds and return the result.

        ``parties`` selects whose payoffs to track (defaults to actor names).
        """
        self.start(rounds, parties)
        return self.resume()

    def start(self, rounds: int, parties: list[str] | None = None) -> None:
        """Set up a run of ``rounds`` rounds (see :meth:`run`)."""
        world = self.world
        tracked = parties if parties is not None else [a.name for a in self.actors]
        self.result = RunResult(
            world=world, rounds=rounds, payoffs=PayoffSheet(world, tracked)
        )
        self.finished = False
        #: the round the run is at
        self.round = 0
        #: wake[i]: the next round in which actors[i] runs on_round
        self._wake = [0] * len(self.actors)
        #: the world's height when the run started
        self._start = world.height

    def resume(self, until: int | None = None) -> RunResult:
        """Play the started run on, to its end or, given ``until``, to the
        first round at or after it that the loop reaches.

        The result is complete (payoffs included) once the run finishes.
        """
        result = self.result
        if result is None:
            raise ChainError("resume() before start()")
        if self.finished:
            return result
        world, actors, wake = self.world, self.actors, self._wake
        rounds = result.rounds
        stop = rounds if until is None else min(until, rounds)
        chains = [world.chains[name] for name in sorted(world.chains)]
        transactions = result.transactions
        start = self._start
        rnd = self.round
        while rnd < stop:
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
        self.round, self._wake = rnd, wake
        if rnd >= rounds:
            self.finished = True
            result.payoffs.finish()
        return result

    def fork(self) -> "SyncRunner":
        """A copy of this run, stopped between rounds, that plays on by
        itself.

        The copy owns all a later round can write: a fork of the world
        (its chains' balances, heights, event lists, address counters and
        contracts, and the registry's key maps and memos), a fork of every
        actor, the wake list and clock, and the result's transaction list.
        It shares the transactions executed and events emitted so far,
        the payoff sheet's start snapshot and every frozen value (keys,
        secrets, hashlocks, paths, hashkeys, assets, graph, schedule).
        """
        if self.result is None or self.finished:
            raise ChainError("only a started, unfinished run forks")
        memo: ForkMemo = {}
        world = self.world.fork(memo)
        twin = SyncRunner(world, [actor.fork(memo) for actor in self.actors])
        done = self.result
        twin.result = RunResult(
            world=world,
            rounds=done.rounds,
            transactions=list(done.transactions),
            payoffs=done.payoffs.fork(world),
        )
        twin.round = self.round
        twin._wake = list(self._wake)
        twin._start = self._start
        return twin
