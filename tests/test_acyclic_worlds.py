"""Simulated worlds are acyclic: reference counting frees them.

A chain owns its contracts and a contract refers back to its chain only
weakly, and the premium and graph recursions keep no self-referencing
closures.  So a finished scenario leaves nothing for the cycle
collector: each test below runs its work with the collector off and then
asserts that a collection finds no garbage.
"""

import gc
from contextlib import contextmanager

import pytest

from repro.campaign import default_matrix
from repro.campaign.ablation import ablation_cell
from repro.campaign.ablation.kernels import KernelEngine
from repro.campaign.families import FAMILY_NAMES
from repro.campaign.scenario import plan_scenarios, run_scenario, run_scenarios
from repro.chain.assets import native_asset
from repro.contracts.base import Contract
from repro.core.hedged_two_party import HedgedTwoPartySwap
from repro.errors import StateError


@contextmanager
def collector_off():
    """Run the body with the cycle collector disabled, starting clean."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_a_scenario_leaves_no_cyclic_garbage(family):
    scenarios = list(default_matrix(families=(family,)).scenarios())
    # the compliant run and the matrix's last deviation
    chosen = (scenarios[0], scenarios[-1])
    with collector_off():
        results = [run_scenario(scenario) for scenario in chosen]
        assert gc.collect() == 0
    assert all(result.digest for result in results)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_forked_scenarios_leave_no_cyclic_garbage(family):
    # the family's first block: its base run, the forks, and the lone
    # scenarios run beside them
    matrix = default_matrix(families=(family,))
    first = matrix.blocks[0].builder
    scenarios = [s for s in matrix.scenarios() if s.builder is first]
    assert any(job.base is not None for job in plan_scenarios(scenarios))
    with collector_off():
        results = run_scenarios(scenarios)
        assert gc.collect() == 0
    assert all(result.digest for result in results)


def test_a_dropped_kernel_engine_leaves_no_cyclic_garbage():
    scenarios = list(ablation_cell("two-party", 0.0125, 0.015, "staked").scenarios())
    with collector_off():
        engine = KernelEngine()
        results = engine.run(scenarios)
        del engine
        assert gc.collect() == 0
    assert len(results) == len(scenarios)


def test_a_dropped_engine_with_derived_cells_leaves_no_cyclic_garbage():
    # p = 5 is evaluated on the (p = 1, p = 2) pair's lines; a hard shock
    # makes the rational arm walk, so a walk template is derived too.
    scenarios = list(ablation_cell("broker", 0.05, 0.9, "staked").scenarios())
    with collector_off():
        engine = KernelEngine()
        results = engine.run(scenarios)
        del engine
        assert gc.collect() == 0
    assert len(results) == len(scenarios)


def test_deployed_contracts_reach_their_chain():
    instance = HedgedTwoPartySwap().build()
    world = instance.world
    deployed = [
        (name, contract)
        for name, chain in world.chains.items()
        for contract in chain.contracts.values()
    ]
    assert deployed
    for name, contract in deployed:
        assert contract.chain is world.chain(name)
        assert contract.balance(world.chain(name).native) >= 0


def test_an_undeployed_contract_raises_state_error():
    contract = Contract()
    assert contract.chain is None
    with pytest.raises(StateError, match="before deployment"):
        contract.balance(native_asset("a-chain"))


def test_a_contract_outliving_its_world_raises_state_error():
    instance = HedgedTwoPartySwap().build()
    chain = next(iter(instance.world.chains.values()))
    contract = next(iter(chain.contracts.values()))
    native = chain.native
    with collector_off():
        # reference counting alone frees the world: no cycle holds it
        del instance, chain
        assert contract.chain is None
    with pytest.raises(StateError, match="before deployment"):
        contract.balance(native)
