"""Contracts declare each timed transition once (``Contract.timeouts``).

A contract lists its timeout settlement as ``(due, fire)`` rows, and the
base class derives both ``on_tick`` and ``next_tick`` from them, so the
height a contract ticks at and the height it acts at cannot drift apart.
Two checks:

- *one copy*: no contract class under ``repro`` defines its own
  ``on_tick`` or ``_next_tick``, and every row is a pair of plain
  functions on the class (a bound method kept on the instance would make
  a contract -> contract cycle);
- *derived*: after every block of a pass over each default family (and
  the halt families of the protocols the default campaign does not
  sweep), every deployed contract's ``next_tick`` is the minimum of its
  rows' due heights, every row due at or below the block's height has
  fired, and the chain's ``next_tick`` is the minimum over its contracts.
"""

from __future__ import annotations

import importlib
import pkgutil
import types

import pytest
from test_tick_window import _halt_matrix

import repro
from repro.campaign import CampaignRunner, default_matrix
from repro.campaign.families import FAMILY_NAMES
from repro.chain.blockchain import NEVER, Blockchain
from repro.contracts.base import Contract
from repro.core.multi_round_deal import MultiRoundDeal
from repro.protocols.base_broker import BaseBrokerDeal
from repro.protocols.base_multi_party import BaseMultiPartySwap
from repro.protocols.base_two_party import BaseTwoPartySwap

#: scenarios run per family (a stratified sample)
LIMIT = 150

#: families the default campaign does not sweep: every single-party halt
HALTS = {
    "htlc-halts": lambda: _halt_matrix(lambda: BaseTwoPartySwap().build()),
    "swap-arc-halts": lambda: _halt_matrix(lambda: BaseMultiPartySwap().build()),
    "broker-halts": lambda: _halt_matrix(lambda: BaseBrokerDeal().build()),
    "deal-halts": lambda: _halt_matrix(lambda: MultiRoundDeal().build()),
}

MATRICES = {
    **{family: (lambda f=family: default_matrix(families=(f,))) for family in FAMILY_NAMES},
    **HALTS,
}


def _contract_classes() -> list[type]:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found, todo = [], [Contract]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("repro.") and sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def test_no_contract_class_restates_the_tick_hooks():
    classes = _contract_classes()
    assert len(classes) >= 9
    restated = [
        f"{cls.__module__}.{cls.__qualname__}.{name}"
        for cls in classes
        for name in ("on_tick", "_next_tick")
        if name in vars(cls)
    ]
    assert restated == []
    for cls in classes:
        # every deployable class (one with its own kind) settles something
        assert cls.timeouts or "kind" not in vars(cls), cls.__qualname__
        for row in cls.timeouts:
            assert len(row) == 2
            assert all(isinstance(f, types.FunctionType) for f in row), row


@pytest.mark.parametrize("name", list(MATRICES))
def test_next_tick_is_the_earliest_due_row(name, monkeypatch):
    checked: set[type] = set()
    advance = Blockchain.advance

    def advance_then_check(self, transactions=()):
        executed = advance(self, transactions)
        earliest = NEVER
        for contract in self.contracts.values():
            first = min(due(contract) for due, _ in type(contract).timeouts)
            assert contract.next_tick == first, (
                f"{type(contract).__name__} at height {self.height}: next_tick "
                f"{contract.next_tick}, earliest due row {first}"
            )
            assert first > self.height, (
                f"{type(contract).__name__} left a row due at {first} unfired "
                f"at height {self.height}"
            )
            earliest = min(earliest, first)
            checked.add(type(contract))
        assert self.next_tick == earliest
        return executed

    monkeypatch.setattr(Blockchain, "advance", advance_then_check)
    report = CampaignRunner(MATRICES[name](), backend="serial", limit=LIMIT).run()
    assert report.scenarios > 0
    assert checked, f"no contract was deployed by {name}"
