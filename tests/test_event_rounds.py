"""Event-driven rounds against every-round polling (``repro.sim.runner``).

The runner skips an actor's ``on_round`` until the round its
``idle_until`` reports (or the round after any transaction or event),
ticks a contract only from its ``next_tick`` on, and jumps the clock over
rounds in which nothing happens.  Polling — every actor every round,
every contract every block — is the model.  :func:`polling` forces it by
patching both hooks, and the oracle runs each scenario both ways:

- the two runs execute the same transactions, emit the same events and
  have equal scenario digests;
- every ``on_round`` call the event-driven run skipped returns ``[]`` in
  the polling run and changes no state of the actor;
- every ``on_tick`` call it skipped changes no contract field, ledger
  balance or event in the polling run.

Both runs start from the same world, and while every skipped call is a
no-op they stay in the same state round by round, so the polling run's
call at a skipped (round, actor) is exactly the call that was skipped.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from test_tick_window import _halt_matrix

from repro.campaign import ScenarioMatrix, default_matrix
from repro.campaign.families import FAMILY_NAMES
from repro.campaign.scenario import condense_run
from repro.checker.properties import no_stuck_escrow
from repro.checker.strategies import NamedStrategy
from repro.contracts.base import Contract
from repro.core.hedged_multi_party import HedgedMultiPartySwap
from repro.core.hedged_two_party import HedgedTwoPartySwap
from repro.core.multi_round_deal import MultiRoundDeal
from repro.graph.digraph import ring_graph
from repro.parties.base import Actor
from repro.parties.rational import Opportunist
from repro.parties.strategies import Deviant, Laggard, SkipRule
from repro.protocols.base_broker import BaseBrokerDeal
from repro.protocols.base_multi_party import BaseMultiPartySwap
from repro.protocols.base_two_party import BaseTwoPartySwap
from repro.sim.runner import SyncRunner


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@contextmanager
def polling():
    """Every actor wakes every round and every contract ticks every block
    while the block runs: the two idle hooks, patched on every class that
    defines one."""
    with pytest.MonkeyPatch.context() as patch:
        for cls in (Actor, *_subclasses(Actor)):
            if "idle_until" in vars(cls):
                patch.setattr(cls, "idle_until", lambda self, rnd: rnd + 1)
        for cls in (Contract, *_subclasses(Contract)):
            if "_next_tick" in vars(cls):
                patch.setattr(cls, "_next_tick", lambda self: 0)
        yield


#: instance attributes the oracle itself sets
SPIES = ("on_round", "on_tick", "_chain_ref")

#: types whose values cannot change in place
PLAIN = frozenset({str, bytes, int, float, bool, tuple, frozenset, type(None)})

#: type -> whether its values are kept as they are (see _state)
_KEPT: dict[type, bool] = {}


def _kept(kind: type) -> bool:
    params = getattr(kind, "__dataclass_params__", None)
    return (
        "__dict__" not in dir(kind)
        or any("__call__" in vars(base) for base in kind.__mro__)  # functions
        or issubclass(kind, Contract)
        or (params is not None and params.frozen)
    )


def _fields(obj) -> list:
    return [
        (name, value if type(value) in PLAIN else _state(value))
        for name, value in vars(obj).items()
        if name not in SPIES
    ]


def _state(value):
    """A comparable copy of ``value``'s mutable state.

    Containers are copied and mutable objects (actors, deposits) are
    walked field by field.  Everything else (strings and numbers, tuples,
    frozen specs, graphs, functions, and contracts, whose state is not an
    actor's) is kept as it is and compared with ``==``.
    """
    kind = type(value)
    if kind in PLAIN:
        return value
    if kind is dict:
        return [
            (key, item if type(item) in PLAIN or _KEPT.get(type(item)) else _state(item))
            for key, item in value.items()
        ]
    if kind is list:
        return [_state(item) for item in value]
    if kind is set:
        return frozenset(value)
    kept = _KEPT.get(kind)
    if kept is None:
        kept = _KEPT[kind] = _kept(kind)
    return value if kept else _fields(value)


def _spy_rounds(actor: Actor, calls: set, skipped: set | None) -> None:
    """Record (or, for ``skipped`` keys, check) each round of ``actor``.

    Only the actor's own calls change it, so the fields after one checked
    call are the fields before the next.
    """
    on_round = actor.on_round
    rest = [None]  # the fields after the last call, if it was checked

    def spy(rnd, view):
        key = (rnd, actor.name)
        calls.add(key)
        before, rest[0] = rest[0], None
        if skipped is None or key not in skipped:
            return on_round(rnd, view)
        if before is None:
            before = _fields(actor)
        txs = on_round(rnd, view)
        assert txs == [], f"skipped on_round{key} submits {txs}"
        rest[0] = _fields(actor)
        assert rest[0] == before, f"skipped on_round{key} changes the actor"
        return txs

    actor.on_round = spy


def _spy_ticks(contract: Contract, calls: set, skipped: set | None, touched: set) -> None:
    """Record (or, for ``skipped`` keys, check) each tick of ``contract``.

    Polling ticks every contract every block, and between two ticks only
    a transaction to the contract (noted in ``touched``) changes it, so
    the fields after one no-op tick are the fields before the next.
    """
    on_tick = contract.on_tick
    chain = contract.chain
    ref = (chain.name, contract.address)
    rest = [None]  # the fields after the last checked tick

    def spy(height):
        key = (height, *ref)
        calls.add(key)
        if skipped is None or key not in skipped:
            rest[0] = None
            return on_tick(height)
        before = rest[0]
        if before is None or ref in touched:
            before = _fields(contract)
        touched.discard(ref)
        events = len(chain.events)
        # a journal frame records every ledger write of the tick
        chain.ledger.begin()
        on_tick(height)
        writes = list(chain.ledger._journal[-1])
        chain.ledger.commit()
        assert not writes, f"skipped on_tick{key} moves balances"
        assert len(chain.events) == events, f"skipped on_tick{key} emits"
        rest[0] = _fields(contract)
        assert rest[0] == before, f"skipped on_tick{key} changes state"

    contract.on_tick = spy


def _spy_execute(chain, touched: set) -> None:
    execute = chain.execute

    def spy(tx):
        touched.add((chain.name, tx.contract))
        return execute(tx)

    chain.execute = spy


def _run(scenario, skipped_rounds=None, skipped_ticks=None):
    """Run ``scenario`` with spies on every actor and contract.

    Returns its digest, its transactions and events, and the on_round
    and on_tick calls it skipped.
    """
    instance = scenario.builder()
    transforms = {party: strategy.transform for party, strategy in scenario.profile}
    actors = [
        transforms[name](actor) if name in transforms else actor
        for name, actor in instance.actors.items()
    ]
    rounds, ticks, touched = set(), set(), set()
    for actor in actors:
        _spy_rounds(actor, rounds, skipped_rounds)
    contracts = []
    for chain in instance.world.chains.values():
        _spy_execute(chain, touched)
        contracts.extend(chain.contracts.values())
    for contract in contracts:
        _spy_ticks(contract, ticks, skipped_ticks, touched)
    horizon = instance.horizon
    result = SyncRunner(instance.world, actors).run(
        horizon, parties=list(instance.actors)
    )
    trace = (
        [
            (tx.chain, tx.sender, tx.contract, tx.method, tx.receipt.status,
             tx.receipt.height)
            for tx in result.transactions
        ],
        [(e.chain, e.contract, e.name, e.height) for e in result.events],
    )
    every_round = {(rnd, actor.name) for rnd in range(horizon) for actor in actors}
    every_tick = {
        (height, contract.chain.name, contract.address)
        for height in range(1, horizon + 1)
        for contract in contracts
    }
    digest = condense_run(scenario, instance, result, 0.0).digest
    return digest, trace, every_round - rounds, every_tick - ticks


def _halts(builder):
    return lambda: _halt_matrix(builder)


MATRICES = {
    **{family: (lambda f=family: default_matrix(families=(f,))) for family in FAMILY_NAMES},
    "halts:base-two-party": _halts(lambda: BaseTwoPartySwap().build()),
    "halts:base-multi-party": _halts(lambda: BaseMultiPartySwap().build()),
    "halts:base-broker": _halts(lambda: BaseBrokerDeal().build()),
    "halts:multi-round-deal": _halts(lambda: MultiRoundDeal().build()),
}


@pytest.mark.parametrize("name", list(MATRICES))
def test_every_skipped_call_is_a_no_op_of_polling(name):
    scenarios = list(MATRICES[name]().scenarios())
    skipped_rounds = skipped_ticks = 0
    for scenario in scenarios:
        digest, trace, rounds, ticks = _run(scenario)
        with polling():
            polled = _run(scenario, rounds, ticks)
        assert polled[1] == trace, scenario.label
        assert polled[0] == digest, scenario.label
        assert not polled[2] and not polled[3], "polling skips nothing"
        skipped_rounds += len(rounds)
        skipped_ticks += len(ticks)
    assert skipped_ticks, f"{name}: no contract rests"
    if name in FAMILY_NAMES:
        # every campaign family's actors opt in
        assert skipped_rounds, f"{name}: no actor rests"


# ----------------------------------------------------------------------
# wake forwarding through each wrapper
# ----------------------------------------------------------------------
WRAPPERS = {
    "halt@2": lambda actor: Deviant(actor, halt_round=2),
    "skip:escrow": lambda actor: Deviant(
        actor, skip_rules=(SkipRule(method="escrow_principal"),)
    ),
    "lag+1": lambda actor: Laggard(actor, 1),
    "lag+2": lambda actor: Laggard(actor, 2),
    "walk@3": lambda actor: Opportunist(actor, lambda rnd, view: rnd < 3),
}

BUILDERS = {
    "two-party": lambda: HedgedTwoPartySwap().build(),
    "ring:3": lambda: HedgedMultiPartySwap(graph=ring_graph(3)).build(),
}


@pytest.mark.parametrize("builder", list(BUILDERS))
@pytest.mark.parametrize("wrapper", list(WRAPPERS))
def test_wrappers_forward_the_inner_wake(wrapper, builder):
    """Each wrapper, on each party in turn: the run with wake reports
    honoured has the transactions, events and digest of the run with
    every round polled."""
    matrix = ScenarioMatrix()
    parties = BUILDERS[builder]().actors
    matrix.add_block(
        family=builder,
        schedule=wrapper,
        builder=BUILDERS[builder],
        builder_id=builder,
        properties=(no_stuck_escrow,),
        strategies={party: [NamedStrategy(wrapper, WRAPPERS[wrapper])] for party in parties},
        max_adversaries=1,
    )
    scenarios = list(matrix.scenarios())
    assert len(scenarios) == len(parties) + 1
    for scenario in scenarios:
        digest, trace, rounds, ticks = _run(scenario)
        with polling():
            polled = _run(scenario, rounds, ticks)
        assert polled[1] == trace, scenario.label
        assert polled[0] == digest, scenario.label
        assert trace[0], scenario.label
