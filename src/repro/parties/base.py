"""Actor base class.

Each round the runner calls :meth:`Actor.on_round` with the round index and
a :class:`repro.sim.world.WorldView`; the actor returns the transactions it
wants included at the next height.  Compliant protocol actors are written
reactively: they inspect public chain state and perform the next enabled
protocol step, which makes them automatically robust to counterparty
deviations (they simply never see the enabling condition).

After a round in which no actor submits anything, the runner asks
:meth:`Actor.idle_until` for the next round each actor needs, and skips
it until then unless some chain executes a transaction or emits an
event (see :mod:`repro.sim.runner`).

An actor forks with the run it takes part in (:meth:`Actor.fork`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.chain.block import Transaction
from repro.chain.blockchain import NEVER, ForkMemo, fork_object
from repro.crypto.keys import KeyPair

if TYPE_CHECKING:  # pragma: no cover - avoids a package-level import cycle
    from repro.sim.world import WorldView


class Actor:
    """A protocol participant with a name and a signing key."""

    def __init__(self, name: str, keypair: KeyPair) -> None:
        self.name = name
        self.keypair = keypair

    # ------------------------------------------------------------------
    # runner interface
    # ------------------------------------------------------------------
    def on_round(self, rnd: int, view: "WorldView") -> list[Transaction]:
        """Return the transactions to submit this round (override)."""
        return []

    def idle_until(self, rnd: int) -> int:
        """The next round this actor needs, asked after a round ``rnd``
        in which it ran and no actor submitted anything.

        The runner skips the actor's :meth:`on_round` before that round,
        unless a chain executes a transaction or emits an event, which
        wakes every actor for the next round.  An override promises that
        every call it lets the runner skip would return ``[]`` and change
        no state of the actor; :data:`~repro.chain.blockchain.NEVER`
        means "only an event can give me work".  The default wakes every
        round.
        """
        return rnd + 1

    def fork(self, memo: ForkMemo) -> "Actor":
        """A copy of this actor for a fork of its run, taken between rounds.

        The copy owns its fields, the containers they are and the mutable
        records those hold (see :func:`~repro.chain.blockchain.forked`);
        an actor it wraps forks too, and a field holding one of the run's
        contracts holds the fork's copy of it, since ``memo`` has the forked
        world's objects.
        """
        twin = fork_object(self, memo)
        fields = vars(twin)
        for name, value in vars(self).items():
            if isinstance(value, Actor) and fields[name] is value:
                fields[name] = value.fork(memo)
        return twin

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def tx(self, chain: str, contract: str, method: str, **args: Any) -> Transaction:
        """Build a transaction from this actor."""
        return Transaction(
            chain=chain, sender=self.name, contract=contract, method=method, args=args
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"


def next_of(rounds, rnd: int) -> int:
    """The first of ``rounds`` after ``rnd``, or ``NEVER``: the wake of an
    actor whose timed steps fall on fixed rounds."""
    wake = NEVER
    for r in rounds:
        if rnd < r < wake:
            wake = r
    return wake
