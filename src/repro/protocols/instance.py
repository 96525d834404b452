"""Protocol instances: a uniform wrapper for every protocol in the library.

A builder (``BaseTwoPartySwap.build()``, ``HedgedMultiPartySwap.build()``,
...) returns a :class:`ProtocolInstance` holding the world, the compliant
actors, the run horizon, and a directory of deployed contracts.
:func:`execute` runs it, optionally replacing any actor with an adversarial
transform (see `repro.parties.strategies`), and returns the
:class:`repro.sim.runner.RunResult`.

:func:`execute` can also stop a run partway (``until``) and leave it
paused on the instance; a later call plays the paused run on, or plays a
fork of it (``fork=True``) and leaves the instance paused.  A campaign
uses this to run a block's compliant prefix once and fork its halting
scenarios from it (see :mod:`repro.campaign.scenario`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ProtocolError
from repro.parties.base import Actor
from repro.sim.runner import RunResult, SyncRunner
from repro.sim.world import World

ActorTransform = Callable[[Actor], Actor]


@dataclass
class ProtocolInstance:
    """A fully wired, ready-to-run protocol."""

    world: World
    actors: dict[str, Actor]
    horizon: int
    contracts: dict[str, tuple[str, str]] = field(default_factory=dict)
    meta: dict[str, object] = field(default_factory=dict)
    #: the run :func:`execute` paused on this instance, or None
    run: SyncRunner | None = field(default=None, repr=False, compare=False)

    @property
    def parties(self) -> tuple[str, ...]:
        return tuple(self.actors)

    def contract(self, label: str):
        """Look up a deployed contract object by its instance label."""
        chain_name, address = self.contracts[label]
        return self.world.chain(chain_name).contract_at(address)


def execute(
    instance: ProtocolInstance,
    deviations: dict[str, ActorTransform] | None = None,
    until: int | None = None,
    fork: bool = False,
) -> RunResult:
    """Run the instance to its horizon, applying per-party deviations.

    With ``until``, the run stops at the first round at or after it that
    the runner reaches, stays paused on the instance (``instance.run``),
    and its partial result is returned.  A later call plays the paused
    run on, with ``deviations`` wrapping its actors from there.  With
    ``fork=True`` that call plays a fork of the paused run to the horizon
    instead (see :meth:`repro.sim.runner.SyncRunner.fork`) and leaves the
    instance paused where it was; the result's ``world`` is the fork's.
    """
    deviations = deviations or {}
    unknown = set(deviations) - set(instance.actors)
    if unknown:
        raise ProtocolError(f"deviations for unknown parties: {sorted(unknown)}")
    runner = instance.run
    if fork and (runner is None or until is not None):
        raise ProtocolError("fork=True plays a paused instance on to its horizon")
    if runner is None:
        actors: list[Actor] = []
        for name, actor in instance.actors.items():
            transform = deviations.get(name)
            actors.append(transform(actor) if transform else actor)
        runner = SyncRunner(instance.world, actors)
        runner.start(instance.horizon, parties=list(instance.actors))
    else:
        if fork:
            runner = runner.fork()
        if deviations:
            runner.actors = [
                deviations[actor.name](actor) if actor.name in deviations else actor
                for actor in runner.actors
            ]
    result = runner.resume(until)
    if not fork:
        instance.run = None if runner.finished else runner
    return result
