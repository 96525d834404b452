"""Unit tests for the pipeline deal contract (contracts/deal.py)."""

import pytest

from repro.chain.block import Transaction
from repro.chain.blockchain import NEVER
from repro.contracts.deal import DealDeadlines, PipelineDealContract, TradeStep
from repro.core.multi_round_deal import DealSpec, MultiRoundDeal, deal_premium_tables
from repro.crypto.hashkeys import HashKey
from repro.protocols.instance import execute
from repro.sim.runner import SyncRunner

SPEC = DealSpec()  # two brokers


def _fresh(run_rounds=0):
    instance = MultiRoundDeal(SPEC, premium=1).build()
    if run_rounds:
        runner = SyncRunner(instance.world, list(instance.actors.values()))
        runner.run(run_rounds, parties=list(instance.actors))
    return instance


def _call(instance, chain_name, address, sender, method, **args):
    chain = instance.world.chain(chain_name)
    return chain.execute(
        Transaction(chain=chain_name, sender=sender, contract=address, method=method, args=args)
    )


def _ticket(instance):
    return instance.contracts["ticket"]


# ----------------------------------------------------------------------
# deadlines schedule
# ----------------------------------------------------------------------
def test_deadlines_layout_for_two_rounds():
    d = DealDeadlines.for_rounds(2, 4)
    assert d.escrow_premium == 1
    assert d.trading_premium_base == 1  # T_k by 1 + k
    assert d.redemption_premium_base == 3
    assert d.activation == 7
    assert d.escrow == 8
    assert d.trade_base == 8
    assert d.hashkey_base == 10
    assert d.end == 14
    assert d.horizon == 16


def test_deadlines_scale_with_rounds():
    d1 = DealDeadlines.for_rounds(1, 3)
    d3 = DealDeadlines.for_rounds(3, 5)
    assert d3.end > d1.end
    assert d3.hashkey_base - d3.trade_base == 3


# ----------------------------------------------------------------------
# pipeline mechanics
# ----------------------------------------------------------------------
def test_trade_requires_prior_rounds():
    instance = _fresh(run_rounds=8)  # escrows have just landed
    chain_name, address = _ticket(instance)
    # Mike tries round 2 before Ann's round 1
    tx = _call(instance, chain_name, address, "Mike", "trade", round=2)
    assert tx.receipt.status == "reverted"
    assert "earlier rounds" in tx.receipt.error


def test_trade_round_only_by_its_trader():
    instance = _fresh(run_rounds=8)
    chain_name, address = _ticket(instance)
    tx = _call(instance, chain_name, address, "Mike", "trade", round=1)
    assert tx.receipt.status == "reverted"
    assert "only Ann" in tx.receipt.error


def test_trade_before_escrow_rejected():
    instance = _fresh(run_rounds=4)
    chain_name, address = _ticket(instance)
    tx = _call(instance, chain_name, address, "Ann", "trade", round=1)
    assert tx.receipt.status == "reverted"


def test_unknown_round_rejected():
    instance = _fresh(run_rounds=8)
    chain_name, address = _ticket(instance)
    tx = _call(instance, chain_name, address, "Ann", "trade", round=9)
    assert tx.receipt.status == "reverted"


def test_direct_own_key_accepted_anywhere():
    """Any leader may present its own key directly on either contract."""
    instance = _fresh(run_rounds=10)
    seller = instance.actors["Seller"]
    own = HashKey.originate(seller.secret, seller.keypair, "Seller")
    chain_name, address = _ticket(instance)
    # Seller is NOT a redeemer on the ticket contract, but |q| = 1 is fine.
    tx = _call(instance, chain_name, address, "Seller", "present_hashkey", hashkey=own)
    assert tx.receipt.ok


def test_forwarded_key_needs_redeemer_path():
    """A forwarded (|q| > 1) key must start at one of the contract's
    redeemers."""
    instance = _fresh(run_rounds=10)
    seller = instance.actors["Seller"]
    buyer = instance.actors["Buyer"]
    # path (Buyer, Seller): not a graph path (no arc Buyer->Seller)
    forged = HashKey.originate(seller.secret, seller.keypair, "Seller").extend(
        buyer.keypair, "Buyer"
    )
    chain_name, address = _ticket(instance)
    tx = _call(instance, chain_name, address, "Buyer", "present_hashkey", hashkey=forged)
    assert tx.receipt.status == "reverted"


def test_escrow_premium_shares_sum():
    instance = _fresh()
    contract = instance.world.chain(SPEC.ticket_chain).contract_at(
        instance.contracts["ticket"][1]
    )
    assert contract.escrow_premium_amount == sum(
        amount for _, amount in contract.escrow_premium_shares
    )


def test_contract_activation_requires_full_structure():
    instance = _fresh(run_rounds=4)  # E, T posted; R originations landing
    contract = instance.world.chain(SPEC.ticket_chain).contract_at(
        instance.contracts["ticket"][1]
    )
    assert not contract.contract_activated  # extensions still propagating
    instance2 = _fresh(run_rounds=8)
    contract2 = instance2.world.chain(SPEC.ticket_chain).contract_at(
        instance2.contracts["ticket"][1]
    )
    assert contract2.contract_activated


def test_trading_premium_refunds_on_trade():
    instance = _fresh()
    result = execute(instance)
    ticket = instance.contract("ticket")
    assert all(state == "refunded" for state in ticket.trading_premium_state.values())
    assert ticket.escrow_premium_state == "refunded"


def test_compliant_deal_leaves_nothing_to_tick():
    # next_tick is derived from state: once every premium and the asset
    # have settled, no row can fire and the chain never ticks the deal again
    instance = _fresh()
    execute(instance)
    deals = [
        contract
        for chain in instance.world.chains.values()
        for contract in chain.contracts.values()
        if isinstance(contract, PipelineDealContract)
    ]
    assert len(deals) == 2
    assert all(deal.escrow_state == "redeemed" for deal in deals)
    assert [deal.next_tick for deal in deals] == [NEVER, NEVER]


def test_premium_tables_scale_with_p():
    t1 = deal_premium_tables(SPEC, 1)
    t3 = deal_premium_tables(SPEC, 3)
    for arc, amount in t1["trading"].items():
        assert t3["trading"][arc] == 3 * amount
