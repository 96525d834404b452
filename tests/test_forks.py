"""Forked scenarios: a block's halting scenarios fork from one base run.

:func:`repro.campaign.scenario.run_scenarios` runs each block's compliant
prefix once and forks every scenario that plays compliant up to some
round ``r > 0`` from it.  Three claims, checked here:

- *parity*: every default-matrix scenario, and every single-party halt of
  the protocols the default campaign does not sweep, gives through the
  planned path the same result (all but ``elapsed_seconds``) and the
  same transaction and event sequences as a run by itself;
- *isolation*: a fork played to its horizon leaves its base's ledgers,
  contracts, actors and registry memos as they were, and the two worlds
  share no container a later round writes;
- *fork rounds* are read off the wrappers a profile builds, never off
  labels: only a pure halt forks after round 0.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

import repro.campaign.scenario as scenario_module
from repro.campaign import ScenarioMatrix, default_matrix
from repro.campaign.families import FAMILY_NAMES
from repro.campaign.scenario import Scenario, fork_round, plan_scenarios, run_scenarios
from repro.chain.blockchain import NEVER
from repro.checker import halt_strategies
from repro.checker.strategies import NamedStrategy
from repro.contracts.base import Contract
from repro.core.hedged_broker import HedgedBrokerDeal
from repro.core.hedged_multi_party import HedgedMultiPartySwap
from repro.core.multi_round_deal import MultiRoundDeal
from repro.graph.digraph import complete_graph
from repro.parties.base import Actor
from repro.parties.rational import Opportunist
from repro.parties.strategies import Deviant, Laggard, SkipRule
from repro.protocols.base_broker import BaseBrokerDeal
from repro.protocols.base_multi_party import BaseMultiPartySwap
from repro.protocols.base_two_party import BaseTwoPartySwap
from repro.protocols.instance import execute
from test_tick_window import _halt_matrix

MATRICES = {
    **{family: (lambda f=family: default_matrix(families=(f,))) for family in FAMILY_NAMES},
    "halts:base-two-party": lambda: _halt_matrix(lambda: BaseTwoPartySwap().build()),
    "halts:base-multi-party": lambda: _halt_matrix(lambda: BaseMultiPartySwap().build()),
    "halts:base-broker": lambda: _halt_matrix(lambda: BaseBrokerDeal().build()),
    "halts:multi-round-deal": lambda: _halt_matrix(lambda: MultiRoundDeal().build()),
}


def _outcome(result) -> dict:
    fields = asdict(result)
    del fields["elapsed_seconds"]
    return fields


@pytest.fixture
def recorded_runs(monkeypatch):
    """scenario index -> the transactions and events of its run, as
    condensed by whichever path ran it."""
    runs: dict[int, tuple] = {}
    condense = scenario_module.condense_run

    def recording(scenario, instance, result, elapsed):
        runs[scenario.index] = (
            [
                (tx.chain, tx.sender, tx.contract, tx.method, tx.receipt.status,
                 tx.receipt.height, tx.receipt.error)
                for tx in result.transactions
            ],
            [(e.chain, e.contract, e.name, e.height, repr(e.data)) for e in result.events],
        )
        return condense(scenario, instance, result, elapsed)

    monkeypatch.setattr(scenario_module, "condense_run", recording)
    return runs


@pytest.mark.parametrize("name", list(MATRICES))
def test_planned_runs_match_runs_by_themselves(name, recorded_runs):
    scenarios = list(MATRICES[name]().scenarios())
    alone = [scenario_module.run_scenario(scenario) for scenario in scenarios]
    traces = dict(recorded_runs)
    recorded_runs.clear()
    planned = run_scenarios(scenarios)
    jobs = plan_scenarios(scenarios)
    assert sorted(job.position for job in jobs) == list(range(len(scenarios)))
    assert any(job.base is not None for job in jobs), f"{name}: nothing forks"
    for scenario, mine, theirs in zip(scenarios, planned, alone):
        assert _outcome(mine) == _outcome(theirs), scenario.label
        assert recorded_runs[scenario.index] == traces[scenario.index], scenario.label


def _phase_flags(instance, result, adversaries) -> list[str]:
    """A property that reads actor state: every party's ``*_done`` flags,
    reported as violations so they reach the condensed result."""
    return [
        f"{party}:{sorted((k, v) for k, v in vars(actor).items() if k.endswith('_done'))}"
        for party, actor in sorted(instance.actors.items())
    ]


def test_a_forked_scenario_is_condensed_over_the_forks_actors():
    def build():
        return HedgedMultiPartySwap(graph=complete_graph(3)).build()

    matrix = ScenarioMatrix()
    matrix.add_block(
        family="halts",
        schedule="",
        builder=build,
        builder_id="halts",
        properties=(_phase_flags,),
        strategies={party: halt_strategies(build().horizon) for party in build().actors},
    )
    scenarios = list(matrix.scenarios())
    assert any(job.base is not None for job in plan_scenarios(scenarios))
    planned = run_scenarios(scenarios)
    alone = [scenario_module.run_scenario(scenario) for scenario in scenarios]
    for scenario, mine, theirs in zip(scenarios, planned, alone):
        assert mine.violations == theirs.violations, scenario.label
    # the flags move after the fork rounds, so the base's paused actors
    # would report other flags than the fork's
    assert len({result.violations for result in alone}) > 1


# ----------------------------------------------------------------------
# isolation
# ----------------------------------------------------------------------
def _render(value):
    """A comparable copy of ``value``: containers and mutable records
    walked, a contract by its address, anything else kept (and compared
    with ``==``)."""
    kind = type(value)
    if kind is dict:
        return tuple((key, _render(item)) for key, item in value.items())
    if kind in (list, tuple):
        return tuple(_render(item) for item in value)
    if kind is set:
        return frozenset(value)
    if isinstance(value, Contract):
        return ("contract", value.address)
    if isinstance(value, Actor):
        return _fields(value)
    params = getattr(kind, "__dataclass_params__", None)
    if params is not None and not params.frozen:
        return (kind.__name__, _fields(value))
    return value


def _fields(obj) -> tuple:
    return tuple(
        (name, _render(value)) for name, value in vars(obj).items() if name != "_chain_ref"
    )


def _snapshot(instance) -> dict:
    world = instance.world
    registry = world.registry
    return {
        "ledgers": {
            name: dict(chain.ledger._balances) for name, chain in world.chains.items()
        },
        "heights": {name: chain.height for name, chain in world.chains.items()},
        "events": {name: len(chain.events) for name, chain in world.chains.items()},
        "contracts": [
            (address, _fields(contract))
            for chain in world.chains.values()
            for address, contract in chain.contracts.items()
        ],
        "actors": [_fields(actor) for actor in instance.run.actors],
        "verified": set(registry._verified),
        "validated": dict(registry._validated),
        "clock": (instance.run.round, list(instance.run._wake)),
    }


FORKED_BUILDS = {
    # redemption deposits are on the arcs when the fork is taken
    "multi-party": (lambda: HedgedMultiPartySwap(graph=complete_graph(3)).build(), "P1"),
    "broker": (lambda: HedgedBrokerDeal().build(), "Bob"),
}


@pytest.mark.parametrize("name", list(FORKED_BUILDS))
def test_a_fork_played_out_leaves_its_base_as_it_was(name):
    build, party = FORKED_BUILDS[name]
    instance = build()
    horizon = instance.horizon
    execute(instance, until=horizon // 2)
    assert instance.run is not None, "the base pauses before its horizon"
    before = _snapshot(instance)
    assert any(before["validated"]), "paths validated before the fork"

    result = execute(instance, {party: lambda actor: Deviant(actor, halt_round=0)}, fork=True)

    assert result.payoffs is not None and result.world is not instance.world
    assert _snapshot(instance) == before
    base, fork = instance.world, result.world
    assert base.registry._verified is not fork.registry._verified
    assert base.registry._validated is not fork.registry._validated
    for chain_name, chain in base.chains.items():
        twin = fork.chains[chain_name]
        assert twin.ledger._balances is not chain.ledger._balances
        assert twin.events is not chain.events
        for address, contract in chain.contracts.items():
            copy = twin.contracts[address]
            assert copy is not contract and copy.chain is twin
            for field, value in vars(contract).items():
                if type(value) in (dict, list, set):
                    assert vars(copy)[field] is not value, (address, field)
    # the fork's outcome differs from the base's: the halt took effect
    assert result.transactions != execute(instance).transactions


# ----------------------------------------------------------------------
# fork rounds
# ----------------------------------------------------------------------
def _scenario(*transforms) -> Scenario:
    profile = tuple(
        (f"P{i}", NamedStrategy(f"s{i}", transform)) for i, transform in enumerate(transforms)
    )
    return Scenario(0, "probe", builder=lambda: None, properties=(), profile=profile)


@pytest.mark.parametrize(
    "transforms, expected",
    [
        ((), NEVER),
        ((lambda actor: actor,), NEVER),
        ((lambda actor: Deviant(actor, halt_round=3),), 3),
        ((lambda actor: Deviant(actor, halt_round=5), lambda actor: Deviant(actor, halt_round=2)), 2),
        ((lambda actor: Deviant(actor, halt_round=5), lambda actor: actor), 5),
        ((lambda actor: Deviant(actor, halt_round=3, skip_rules=(SkipRule("redeem"),)),), 0),
        ((lambda actor: Deviant(actor, skip_rules=(SkipRule("redeem"),)),), 0),
        ((lambda actor: Deviant(actor, halt_round=3, skip_predicate=lambda tx: False),), 0),
        ((lambda actor: Deviant(actor, halt_round=3, extra={1: []}),), 0),
        ((lambda actor: Laggard(actor, 1),), 0),
        ((lambda actor: Opportunist(actor, lambda rnd, view: True),), 0),
        ((lambda actor: Deviant(Laggard(actor, 1), halt_round=3),), 0),
        ((lambda actor: Deviant(actor, halt_round=5), lambda actor: Laggard(actor, 2)), 0),
    ],
)
def test_only_a_pure_halt_forks_after_round_zero(transforms, expected):
    assert fork_round(_scenario(*transforms)) == expected


def test_round_zero_deviations_and_lone_scenarios_run_by_themselves():
    scenarios = list(default_matrix(families=("two-party",)).scenarios())
    for job in plan_scenarios(scenarios):
        at = fork_round(job.scenario)
        if job.base is None:
            assert at == 0 or at == NEVER
        else:
            assert at > 0
    lone = [scenarios[0]]
    assert [job.base for job in plan_scenarios(lone)] == [None]
