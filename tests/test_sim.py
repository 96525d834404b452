"""Tests for the world, runner, payoff accounting, and deviation wrappers."""

import os
import subprocess
import sys

import pytest

from repro.chain.block import Transaction
from repro.contracts.base import Contract
from repro.errors import ChainError, ProtocolError
from repro.parties.base import Actor
from repro.parties.strategies import Deviant, SkipRule, halt_at, skip_methods
from repro.protocols.instance import ProtocolInstance, execute
from repro.sim.payoff import PayoffSheet, Valuation
from repro.sim.runner import SyncRunner
from repro.sim.world import World


class Spender(Actor):
    """Sends 1 native coin to a sink every round."""

    def __init__(self, name, keypair, chain_name):
        super().__init__(name, keypair)
        self.chain_name = chain_name

    def on_round(self, rnd, view):
        return [self.tx(self.chain_name, "sink-1", "receive")]


# ----------------------------------------------------------------------
# world
# ----------------------------------------------------------------------
def test_world_lockstep(world):
    assert world.height == 0
    for chain in world.chains.values():
        chain.advance()
    assert world.height == 1


def test_world_detects_out_of_lockstep(world):
    world.chain("apricot").advance()
    with pytest.raises(ChainError):
        _ = world.height


def test_world_unknown_chain(world):
    with pytest.raises(ChainError):
        world.chain("mango")


class Note(Contract):
    """A contract with nothing in it, for deployment checks."""

    kind = "note"


def test_world_view_hands_out_one_view_per_chain(world):
    first, second = world.view(), world.view()
    assert first.chain("apricot") is second.chain("apricot")
    assert first.chain("apricot") is not first.chain("banana")


def test_cached_chain_view_reads_live_state(world):
    view = world.view().chain("apricot")
    assert view.height == 0
    for chain in world.chains.values():
        chain.advance()
    address = world.chain("apricot").deploy(Note())
    # the view handed out before the block and the deployment sees both
    assert view.height == 1
    assert isinstance(view.contract(address), Note)
    assert world.view().chain("apricot") is view


def test_world_view_unknown_chain(world):
    with pytest.raises(ChainError, match="mango"):
        world.view().chain("mango")
    with pytest.raises(ChainError):
        world.chain_view("mango")


def test_register_party_publishes_key(world):
    keys = world.register_party("Alice")
    assert world.public_of["Alice"] == keys.public
    assert world.registry.knows(keys.public)


def test_fund_mints(world):
    world.fund("apricot", "Alice", "apricot-token", 5)
    chain = world.chain("apricot")
    assert chain.ledger.balance(chain.asset("apricot-token"), "Alice") == 5


# ----------------------------------------------------------------------
# payoff accounting
# ----------------------------------------------------------------------
def test_payoff_sheet_deltas(world):
    world.fund("apricot", "Alice", "native", 10)
    sheet = PayoffSheet(world, ["Alice", "Bob"])
    chain = world.chain("apricot")
    chain.ledger.transfer(chain.native, "Alice", "Bob", 4)
    sheet.finish()
    assert sheet.premium_net("Alice") == -4
    assert sheet.premium_net("Bob") == 4


def test_payoff_separates_principal_and_premium(world):
    world.fund("apricot", "Alice", "native", 10)
    world.fund("apricot", "Alice", "apricot-token", 3)
    sheet = PayoffSheet(world, ["Alice"])
    chain = world.chain("apricot")
    chain.ledger.transfer(chain.asset("apricot-token"), "Alice", "Bob", 3)
    sheet.finish()
    assert sheet.premium_net("Alice") == 0
    assert sheet.principal_delta("Alice") == {chain.asset("apricot-token"): -3}


DELTA_ORDER = """
from repro.core.hedged_broker import HedgedBrokerDeal
from repro.protocols.instance import execute
for premium in (0, 1):
    instance = HedgedBrokerDeal(premium=premium).build()
    payoffs = execute(instance).payoffs
    for party in sorted(instance.actors):
        print(premium, party, [str(asset) for asset in payoffs.delta(party)])
"""


def test_delta_order_does_not_follow_the_hash_seed():
    """A party's deltas come in first-seen ledger order: the same in the
    broker's p = 0 and p = 1 compliant runs and under any PYTHONHASHSEED
    (realized_utility folds floats in this order)."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outputs = []
    for seed in ("0", "7"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        outputs.append(
            subprocess.run(
                [sys.executable, "-c", DELTA_ORDER],
                capture_output=True, text=True, env=env, check=True,
            ).stdout
        )
    assert outputs[0] == outputs[1]
    orders: dict[str, set] = {}
    for line in outputs[0].splitlines():
        _, party, assets = line.split(" ", 2)
        orders.setdefault(party, set()).add(assets)
    assert len(orders) == 3
    assert all(len(seen) == 1 for seen in orders.values()), orders


def test_valuation_defaults():
    val = Valuation()
    from repro.chain.assets import Asset, native_asset

    assert val.value_of(native_asset("x")) == 1.0
    assert val.value_of(Asset("x", "token")) == 0.0
    val.set(Asset("x", "token"), 2.5)
    assert val.value_of(Asset("x", "token")) == 2.5


def test_total_value_weighs_assets(world):
    from repro.chain.assets import Asset

    world.fund("apricot", "Alice", "apricot-token", 2)
    sheet = PayoffSheet(world, ["Alice", "Bob"])
    chain = world.chain("apricot")
    token = chain.asset("apricot-token")
    chain.ledger.transfer(token, "Alice", "Bob", 2)
    sheet.finish()
    valuation = Valuation().set(token, 10.0)
    assert sheet.total_value("Bob", valuation) == 20.0


def test_payoff_table_shape(world):
    sheet = PayoffSheet(world, ["Alice"])
    sheet.finish()
    assert sheet.table() == {"Alice": {"premium_net": 0, "principals": {}}}


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def test_runner_runs_rounds_and_collects_txs(world):
    world.fund("apricot", "S", "native", 100)
    keys = world.register_party("S")

    class Once(Actor):
        def on_round(self, rnd, view):
            if rnd == 0:
                return [self.tx("apricot", "nowhere-1", "noop")]
            return []

    runner = SyncRunner(world, [Once("S", keys)])
    result = runner.run(3)
    assert world.height == 3
    assert len(result.transactions) == 1
    assert result.transactions[0].receipt.status == "reverted"  # no contract


def test_runner_rejects_duplicate_names(world):
    keys = world.register_party("S")
    with pytest.raises(ChainError):
        SyncRunner(world, [Actor("S", keys), Actor("S", keys)])


# ----------------------------------------------------------------------
# deviation wrappers
# ----------------------------------------------------------------------
class Chatty(Actor):
    def on_round(self, rnd, view):
        return [
            self.tx("apricot", "c-1", "ping"),
            self.tx("banana", "c-1", "pong"),
        ]


def test_halt_at_silences_from_round(world):
    keys = world.register_party("X")
    deviant = halt_at(Chatty("X", keys), 2)
    view = world.view()
    assert len(deviant.on_round(0, view)) == 2
    assert len(deviant.on_round(1, view)) == 2
    assert deviant.on_round(2, view) == []
    assert deviant.on_round(5, view) == []


def test_skip_methods_filters(world):
    keys = world.register_party("X")
    deviant = skip_methods(Chatty("X", keys), "ping")
    txs = deviant.on_round(0, world.view())
    assert [t.method for t in txs] == ["pong"]


def test_skip_rule_by_chain_and_contract():
    rule = SkipRule(chain="apricot", contract="c-1")
    tx = Transaction(chain="apricot", sender="X", contract="c-1", method="m")
    assert rule.matches(tx)
    assert not rule.matches(
        Transaction(chain="banana", sender="X", contract="c-1", method="m")
    )


def test_deviant_extra_injection(world):
    keys = world.register_party("X")
    extra_tx = Transaction(chain="apricot", sender="X", contract="c-9", method="sneak")
    deviant = Deviant(Chatty("X", keys), halt_round=0, extra={1: [extra_tx]})
    assert deviant.on_round(0, world.view()) == []
    assert deviant.on_round(1, world.view()) == [extra_tx]


def test_deviant_describe():
    keys_world = World(["apricot"])
    keys = keys_world.register_party("X")
    d = Deviant(Chatty("X", keys), halt_round=3, skip_rules=(SkipRule(method="ping"),))
    text = d.describe()
    assert "halts at round 3" in text and "ping" in text


def test_execute_rejects_unknown_deviator(world):
    keys = world.register_party("X")
    instance = ProtocolInstance(world=world, actors={"X": Actor("X", keys)}, horizon=1)
    with pytest.raises(ProtocolError):
        execute(instance, {"Y": lambda a: a})
