"""The settlement tick window (``Contract.next_tick``).

``Blockchain.advance`` skips a contract's ``on_tick`` at every height
below its ``next_tick``: the earliest due height of the contract's
timeout rows, read from its current state.  The chain recomputes it once
per block for each contract the block's transactions called, and after
every tick.  Two checks per contract class:

- *the window is quiet*: driving deployed contracts through the states a
  protocol takes them (compliant runs and sore-loser halts), ``on_tick(h)``
  changes no contract state, ledger balance or event log at any height
  ``h`` after the chain's and below ``next_tick`` (up to
  :data:`PROBE_SPAN` heights ahead when the window never closes);
- *skipping changes nothing*: every scenario of the class's family has
  the same digest whether the window is used or forced to 0 (tick every
  block, as before the window existed).

``tests/test_event_rounds.py`` checks the same claim for every contract
at once, call by call, on every default-matrix scenario.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignRunner, ScenarioMatrix, default_matrix
from repro.chain.blockchain import Blockchain
from repro.checker.strategies import halt_strategies
from repro.contracts.auction import AuctionContractBase
from repro.contracts.broker import BaseBrokerContract, HedgedBrokerContract
from repro.contracts.deal import PipelineDealContract
from repro.contracts.hedged_escrow import HedgedEscrow
from repro.contracts.htlc import HTLC
from repro.contracts.swap_arc import BaseSwapArc, HedgedSwapArc
from repro.core.multi_round_deal import MultiRoundDeal
from repro.protocols.base_broker import BaseBrokerDeal
from repro.protocols.base_multi_party import BaseMultiPartySwap
from repro.protocols.base_two_party import BaseTwoPartySwap


def _halt_matrix(builder) -> ScenarioMatrix:
    """Compliant run plus every single-party halt at every round: the
    family of a protocol the default campaign does not sweep."""
    instance = builder()
    matrix = ScenarioMatrix()
    matrix.add_block(
        family="halts",
        schedule="",
        builder=builder,
        builder_id="halts",
        properties=(),
        strategies={
            party: halt_strategies(instance.horizon) for party in instance.actors
        },
    )
    return matrix


def _family(*families: str):
    return lambda: default_matrix(families=families)


#: each contract class -> (its family's matrix, the subsample size the
#: window probe runs; None = every scenario)
WINDOWS = {
    HTLC: (lambda: _halt_matrix(lambda: BaseTwoPartySwap().build()), None),
    HedgedEscrow: (_family("two-party", "bootstrap"), 80),
    BaseSwapArc: (lambda: _halt_matrix(lambda: BaseMultiPartySwap().build()), None),
    HedgedSwapArc: (_family("multi-party"), 24),
    AuctionContractBase: (_family("auction", "sealed-auction"), 80),
    BaseBrokerContract: (lambda: _halt_matrix(lambda: BaseBrokerDeal().build()), None),
    HedgedBrokerContract: (_family("broker"), None),
    PipelineDealContract: (lambda: _halt_matrix(lambda: MultiRoundDeal().build()), None),
}

IDS = [cls.__name__ for cls in WINDOWS]

#: heights probed past the chain's when a window never closes: beyond
#: every deadline of the families above.
PROBE_SPAN = 64


def _observed(contract) -> tuple:
    """Everything ``on_tick`` could change: the contract's own fields
    (containers by their rendering, since they mutate in place), its
    chain's ledger and its chain's event log."""
    chain = contract.chain
    fields = tuple(
        (name, repr(value) if isinstance(value, (dict, list, set)) else value)
        for name, value in vars(contract).items()
        if name != "_chain_ref"
    )
    return fields, chain.ledger.snapshot(), len(chain.events)


def _state(fields: tuple) -> tuple:
    """The scalar part of ``_observed``'s fields: the contract's state."""
    return tuple(
        (name, value) for name, value in fields if isinstance(value, (str, int, type(None)))
    )


@pytest.mark.parametrize("cls", list(WINDOWS), ids=IDS)
def test_on_tick_is_a_no_op_inside_the_window(cls, monkeypatch):
    matrix_of, limit = WINDOWS[cls]
    probed: list[int] = []
    states: set = set()
    advance = Blockchain.advance

    def advance_then_probe(self, transactions=()):
        executed = advance(self, transactions)
        for contract in list(self.contracts.values()):
            # only contracts of ``cls`` (or a subclass that extends its rows)
            if not isinstance(contract, cls):
                continue
            before = _observed(contract)
            states.add(_state(before[0]))
            window = range(
                self.height + 1, min(contract.next_tick, self.height + PROBE_SPAN)
            )
            for height in window:
                contract.on_tick(height)
                assert _observed(contract) == before, (
                    f"{type(contract).__name__}.on_tick({height}) acted inside "
                    f"its window (next_tick={contract.next_tick})"
                )
            probed.append(len(window))
        return executed

    monkeypatch.setattr(Blockchain, "advance", advance_then_probe)
    CampaignRunner(matrix_of(), backend="serial", limit=limit).run()
    assert probed, f"no {cls.__name__} was deployed by its family"
    assert max(probed) >= 1, "the window should cover at least one height"
    assert len(states) > 1, "the family should move the contract between states"


@pytest.mark.parametrize("cls", list(WINDOWS), ids=IDS)
def test_skipping_the_window_keeps_every_scenario_digest(cls, monkeypatch):
    matrix_of, _ = WINDOWS[cls]
    windowed = CampaignRunner(matrix_of(), backend="serial").run()
    monkeypatch.setattr(cls, "_next_tick", lambda self: 0)
    ticking = CampaignRunner(matrix_of(), backend="serial").run()
    assert windowed.scenarios == ticking.scenarios > 0
    assert [r.digest for r in windowed.results] == [r.digest for r in ticking.results]
    assert windowed.run_digest == ticking.run_digest
