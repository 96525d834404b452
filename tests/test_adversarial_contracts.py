"""Adversarial contract-level tests: forged hashkeys, replay, injections.

The threat model (§3.2) says contracts enforce ordering, timing, and
well-formedness so Byzantine parties can only choose among *legal* actions.
These tests attack the contracts directly with illegal ones — forged
signatures, replayed chains, stolen premiums — and verify they all revert.
"""

import pytest

from repro.chain.block import Transaction
from repro.core.hedged_multi_party import (
    HedgedMultiPartySwap,
    extract_multi_party_outcome,
)
from repro.crypto.hashing import Secret
from repro.crypto.hashkeys import HashKey, SignedPath
from repro.crypto.keys import KeyPair
from repro.graph.digraph import figure3_graph
from repro.parties.strategies import Deviant
from repro.protocols.instance import execute
from repro.sim.runner import SyncRunner


def _build():
    return HedgedMultiPartySwap(graph=figure3_graph(), leaders=("A",)).build()


def _run_until(instance, rounds):
    runner = SyncRunner(instance.world, list(instance.actors.values()))
    return runner.run(rounds, parties=list(instance.actors))


def _call(instance, chain_name, address, sender, method, **args):
    chain = instance.world.chain(chain_name)
    return chain.execute(
        Transaction(chain=chain_name, sender=sender, contract=address, method=method, args=args)
    )


# ----------------------------------------------------------------------
# hashkey forgery and replay against arc contracts
# ----------------------------------------------------------------------
def test_forged_secret_rejected():
    """Presenting a made-up secret for the leader's lock reverts."""
    instance = _build()
    _run_until(instance, 9)  # through phase 3, before the real release lands
    chain_name, address = instance.meta["addresses"][("B", "A")]
    fake = HashKey.originate(Secret.from_text("not-the-secret"), instance.actors["A"].keypair, "A")
    tx = _call(instance, chain_name, address, "A", "present_hashkey", hashkey=fake)
    assert tx.receipt.status == "reverted"
    assert "unknown leader" in tx.receipt.error or "verification" in tx.receipt.error


def test_hashkey_with_wrong_redeemer_rejected():
    """A hashkey whose path starts at the wrong vertex is refused."""
    instance = _build()
    _run_until(instance, 10)
    secret = instance.actors["A"].secret
    # path (A) is valid on (B,A) and (C,A) but NOT on (B,C) (redeemer C)
    key = HashKey.originate(secret, instance.actors["A"].keypair, "A")
    chain_name, address = instance.meta["addresses"][("B", "C")]
    tx = _call(instance, chain_name, address, "A", "present_hashkey", hashkey=key)
    assert tx.receipt.status == "reverted"
    assert "redeemer" in tx.receipt.error


def test_hashkey_extension_without_key_impossible():
    """B cannot extend a hashkey chain as C (signature check)."""
    instance = _build()
    _run_until(instance, 10)
    secret = instance.actors["A"].secret
    b_keys = instance.actors["B"].keypair
    # B signs an extension but names C as the extender
    forged = HashKey.originate(secret, instance.actors["A"].keypair, "A").extend(b_keys, "C")
    chain_name, address = instance.meta["addresses"][("B", "C")]
    tx = _call(instance, chain_name, address, "B", "present_hashkey", hashkey=forged)
    assert tx.receipt.status == "reverted"


def test_premium_chain_cannot_unlock_hashkeys():
    """A redemption-premium chain replayed as a hashkey fails payload
    binding (different payload namespace)."""
    instance = _build()
    _run_until(instance, 10)
    a = instance.actors["A"]
    premium_chain = SignedPath.create(
        f"rpremium:{a.secret.hashlock.digest}", a.keypair, "A"
    )
    spliced = HashKey(a.secret, premium_chain)
    chain_name, address = instance.meta["addresses"][("B", "A")]
    tx = _call(instance, chain_name, address, "A", "present_hashkey", hashkey=spliced)
    assert tx.receipt.status == "reverted"


# ----------------------------------------------------------------------
# premium deposit attacks
# ----------------------------------------------------------------------
def test_redemption_premium_from_wrong_sender_rejected():
    instance = _build()
    _run_until(instance, 4)  # into phase 2
    a = instance.actors["A"]
    chain = SignedPath.create(f"rpremium:{a.secret.hashlock.digest}", a.keypair, "A")
    # arc (B,A): only the redeemer A may deposit; B tries
    chain_name, address = instance.meta["addresses"][("B", "A")]
    tx = _call(
        instance, chain_name, address, "B", "deposit_redemption_premium", path_chain=chain
    )
    assert tx.receipt.status == "reverted"
    assert "only A" in tx.receipt.error


def test_duplicate_redemption_premium_rejected():
    instance = _build()
    _run_until(instance, 5)  # leader origination landed
    a = instance.actors["A"]
    chain = SignedPath.create(f"rpremium:{a.secret.hashlock.digest}", a.keypair, "A")
    chain_name, address = instance.meta["addresses"][("B", "A")]
    tx = _call(
        instance, chain_name, address, "A", "deposit_redemption_premium", path_chain=chain
    )
    assert tx.receipt.status == "reverted"
    assert "already posted" in tx.receipt.error


def test_escrow_premium_wrong_sender_rejected():
    instance = _build()
    chain_name, address = instance.meta["addresses"][("B", "A")]
    instance.world.chain(chain_name).advance()
    tx = _call(instance, chain_name, address, "C", "deposit_escrow_premium")
    assert tx.receipt.status == "reverted"


def test_principal_escrow_before_activation_rejected():
    """Phase ordering is contract-enforced: no escrow before activation."""
    instance = _build()
    _run_until(instance, 2)  # phase 1 only
    chain_name, address = instance.meta["addresses"][("B", "A")]
    tx = _call(instance, chain_name, address, "B", "escrow_principal")
    assert tx.receipt.status == "reverted"
    assert "not activated" in tx.receipt.error


# ----------------------------------------------------------------------
# injection through the Deviant wrapper during a live run
# ----------------------------------------------------------------------
def test_injected_premature_hashkey_release_is_harmless():
    """The leader releasing its key EARLY (during phase 3) is legal but
    cannot hurt anyone: redemption still requires every arc's full set."""
    instance = _build()
    a = instance.actors["A"]
    secret = a.secret
    chain_name, address = instance.meta["addresses"][("B", "A")]
    early = Transaction(
        chain=chain_name,
        sender="A",
        contract=address,
        method="present_hashkey",
        args={"hashkey": HashKey.originate(secret, a.keypair, "A")},
    )
    result = execute(instance, {"A": lambda actor: Deviant(actor, extra={7: [early]})})
    out = extract_multi_party_outcome(instance, result)
    assert out.all_redeemed  # protocol still completes normally
    assert all(net == 0 for net in out.premium_net.values())


def test_stranger_cannot_touch_contracts():
    """An account that is not a protocol party can trigger nothing."""
    instance = _build()
    instance.world.register_party("Mallory")
    _run_until(instance, 7)
    chain_name, address = instance.meta["addresses"][("B", "A")]
    for method in ("escrow_principal", "deposit_escrow_premium"):
        tx = _call(instance, chain_name, address, "Mallory", method)
        assert tx.receipt.status == "reverted"


def test_contract_funds_unreachable_by_direct_transfer():
    """Ledger funds held by a contract move only through its methods."""
    instance = _build()
    result = _run_until(instance, 8)  # premiums + principals in escrow
    chain = instance.world.chain("a-chain")
    address = instance.meta["addresses"][("A", "B")][1]
    held = chain.ledger.balance(chain.native, address)
    assert held > 0
    # nothing in the public API lets Mallory name a contract as source;
    # transactions execute contract methods only, and the arc contract has
    # no method paying arbitrary senders — sweep all public methods:
    contract = chain.contract_at(address)
    public = [m for m in dir(contract) if not m.startswith("_") and callable(getattr(contract, m))]
    for method in public:
        if method in ("install", "on_tick", "require", "emit", "pull", "push",
                      "balance", "contract_at", "arc_activated"):
            continue
        tx = _call(instance, "a-chain", address, "Mallory", method)
        assert tx.receipt.status == "reverted", method
    assert chain.ledger.balance(chain.native, address) == held


# ----------------------------------------------------------------------
# malformed calldata: every shape of bad argument is a revert
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "sender, method, args",
    [
        ("A", "present_hashkey", {"hashkey": 123}),
        ("A", "deposit_redemption_premium", {"path_chain": 7}),
        ("A", "present_hashkey", {"hashkey": "not-a-hashkey"}),
        ("A", "deposit_redemption_premium", {"path_chain": None}),
        ("A", "present_hashkey", {}),
    ],
)
def test_malformed_calldata_reverts_without_leaking_a_journal_frame(sender, method, args):
    """An argument of the wrong type is bad calldata, whether it fails to
    bind (TypeError) or lacks the fields its type promises
    (AttributeError): a reverted receipt, never an exception out of the
    chain, and the ledger's journal is left empty."""
    instance = _build()
    _run_until(instance, 4)  # into phase 2: the deposit's sender checks pass
    chain_name, address = instance.meta["addresses"][("B", "A")]
    chain = instance.world.chain(chain_name)
    events = len(chain.events)
    for _ in range(3):  # the same call again must not nest deeper
        tx = _call(instance, chain_name, address, sender, method, **args)
        assert tx.receipt.status == "reverted"
        assert tx.receipt.error.startswith("malformed arguments: ")
        assert len(chain.ledger._journal) == 0
        assert len(chain.events) == events


def test_unexpected_fault_in_a_contract_rolls_back_and_propagates():
    """A fault that is not a revert (a bug in the simulator) leaves the
    chain as it was before the call, then propagates unchanged."""
    from repro.chain.blockchain import Blockchain
    from repro.contracts.base import Contract
    from repro.crypto.keys import KeyRegistry

    class Faulty(Contract):
        kind = "faulty"

        def grab_then_fail(self, ctx):
            self.pull(self._chain().native, ctx.sender, 5)
            self.emit("grabbed", amount=5)
            raise ZeroDivisionError("simulator bug")

    chain = Blockchain("x-chain", KeyRegistry())
    chain.ledger.mint(chain.native, "alice", 10)
    address = chain.deploy(Faulty())
    events = len(chain.events)
    tx = Transaction(
        chain="x-chain", sender="alice", contract=address, method="grab_then_fail"
    )
    with pytest.raises(ZeroDivisionError, match="simulator bug"):
        chain.execute(tx)
    assert len(chain.ledger._journal) == 0
    assert chain.ledger.balance(chain.native, "alice") == 10
    assert chain.ledger.balance(chain.native, address) == 0
    assert len(chain.events) == events
