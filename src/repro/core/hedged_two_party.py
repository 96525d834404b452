"""The hedged two-party atomic swap — §5.2, Figure 1.

Timeline (heights; one height = Δ; a transaction submitted in round *r*
lands at height *r + 1*):

======  =======================================================  =========
round   action                                                   deadline
======  =======================================================  =========
0       Alice deposits premium ``p_a + p_b`` on the **banana**   1
        chain's escrow contract
1       Bob deposits premium ``p_b`` on the **apricot** chain    2
2       Alice escrows her principal on the apricot chain         ``t_a,e`` = 3
3       Bob escrows his principal on the banana chain            ``t_b,e`` = 4
4       Alice redeems Bob's principal, revealing ``s``           ``t_A`` = 5
5       Bob redeems Alice's principal with ``s``                 ``t_B`` = 6
==========================================================================

Premium rules (enforced by :class:`repro.contracts.hedged_escrow.HedgedEscrow`):
a premium refunds to its payer when the same-chain principal is redeemed (or
never escrowed), and is awarded to the principal's owner when an escrowed
principal goes unredeemed.  Consequences, as in the paper: if Bob reneges
after Alice escrows, he pays Alice ``p_b``; if Alice reneges after Bob
escrows, she pays ``p_a + p_b`` to Bob and receives ``p_b`` back, a net
transfer of ``p_a`` to Bob.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.chain.block import Transaction
from repro.chain.blockchain import NEVER
from repro.contracts.hedged_escrow import HedgedEscrow
from repro.crypto.hashing import Secret
from repro.parties.base import Actor
from repro.protocols.instance import ProtocolInstance
from repro.sim.world import World, WorldView


@dataclass(frozen=True)
class HedgedTwoPartySpec:
    """Parameters of the hedged two-party swap (Figure 1)."""

    alice: str = "Alice"
    bob: str = "Bob"
    chain_a: str = "apricot"
    chain_b: str = "banana"
    token_a: str = "apricot-token"
    token_b: str = "banana-token"
    amount_a: int = 100
    amount_b: int = 100
    premium_a: int = 2  # p_a — compensates Bob if Alice reneges
    premium_b: int = 1  # p_b — compensates Alice if Bob reneges

    # deadlines in heights (Δ units), §5.2 verbatim
    alice_premium_deadline: int = 1
    bob_premium_deadline: int = 2
    alice_escrow_deadline: int = 3  # t_a,e
    bob_escrow_deadline: int = 4  # t_b,e
    alice_redeem_deadline: int = 5  # t_A (banana chain timelock)
    bob_redeem_deadline: int = 6  # t_B (apricot chain timelock)

    def stretched(self, k: int) -> "HedgedTwoPartySpec":
        """The same swap with every deadline stretched to ``k`` Δ-heights.

        §5.2 prices premiums off the time value of locked assets, so the
        deadline spacing is a real axis: a slower chain (or a cautious
        confirmation policy) multiplies every timeout by ``k`` while the
        compliant happy path still finishes at the original pace — only
        deviant runs see the longer escrow windows.
        """
        if k < 1:
            raise ValueError(f"stretch factor must be >= 1, got {k}")
        return replace(
            self,
            alice_premium_deadline=self.alice_premium_deadline * k,
            bob_premium_deadline=self.bob_premium_deadline * k,
            alice_escrow_deadline=self.alice_escrow_deadline * k,
            bob_escrow_deadline=self.bob_escrow_deadline * k,
            alice_redeem_deadline=self.alice_redeem_deadline * k,
            bob_redeem_deadline=self.bob_redeem_deadline * k,
        )

    @property
    def alice_premium(self) -> int:
        """Alice deposits ``p_a + p_b`` (the passthrough pattern, §5.2)."""
        return self.premium_a + self.premium_b

    @property
    def bob_premium(self) -> int:
        return self.premium_b


class HedgedSwapAlice(Actor):
    """Compliant Alice for the hedged swap (reactive)."""

    def __init__(self, name, keypair, spec, secret: Secret, addrs):
        super().__init__(name, keypair)
        self.spec = spec
        self.secret = secret
        self.apricot_escrow, self.banana_escrow = addrs

    def idle_until(self, rnd: int) -> int:
        # Every step waits on escrow state, which only an event changes,
        # and a deadline that, once passed, stays passed.
        return NEVER

    def on_round(self, rnd: int, view: WorldView) -> list[Transaction]:
        spec, txs = self.spec, []
        lands = view.height + 1
        apricot = view.chain(spec.chain_a).contract(self.apricot_escrow)
        banana = view.chain(spec.chain_b).contract(self.banana_escrow)

        # Step 1: deposit premium p_a + p_b on the banana chain.
        if banana.premium_state == "absent" and lands <= spec.alice_premium_deadline:
            txs.append(self.tx(spec.chain_b, self.banana_escrow, "deposit_premium"))

        # Step 3: escrow principal once Bob's premium is visible.
        if (
            apricot.premium_state == "held"
            and apricot.principal_state == "absent"
            and lands <= spec.alice_escrow_deadline
        ):
            txs.append(self.tx(spec.chain_a, self.apricot_escrow, "escrow_principal"))

        # Step 5: redeem Bob's principal, revealing the secret.
        if (
            banana.principal_state == "escrowed"
            and lands <= spec.alice_redeem_deadline
        ):
            txs.append(
                self.tx(
                    spec.chain_b,
                    self.banana_escrow,
                    "redeem",
                    preimage=self.secret.preimage,
                )
            )
        return txs


class HedgedSwapBob(Actor):
    """Compliant Bob for the hedged swap (reactive)."""

    def __init__(self, name, keypair, spec, addrs):
        super().__init__(name, keypair)
        self.spec = spec
        self.apricot_escrow, self.banana_escrow = addrs

    def idle_until(self, rnd: int) -> int:
        return NEVER  # as Alice's

    def on_round(self, rnd: int, view: WorldView) -> list[Transaction]:
        spec, txs = self.spec, []
        lands = view.height + 1
        apricot = view.chain(spec.chain_a).contract(self.apricot_escrow)
        banana = view.chain(spec.chain_b).contract(self.banana_escrow)

        # Step 2: deposit premium p_b once Alice's premium is visible.
        if (
            banana.premium_state == "held"
            and apricot.premium_state == "absent"
            and lands <= spec.bob_premium_deadline
        ):
            txs.append(self.tx(spec.chain_a, self.apricot_escrow, "deposit_premium"))

        # Step 4: escrow principal once Alice's principal is visible.
        if (
            apricot.principal_state == "escrowed"
            and banana.principal_state == "absent"
            and lands <= spec.bob_escrow_deadline
        ):
            txs.append(self.tx(spec.chain_b, self.banana_escrow, "escrow_principal"))

        # Step 6: redeem Alice's principal with the revealed secret.
        if (
            banana.revealed_preimage is not None
            and apricot.principal_state == "escrowed"
            and lands <= spec.bob_redeem_deadline
        ):
            txs.append(
                self.tx(
                    spec.chain_a,
                    self.apricot_escrow,
                    "redeem",
                    preimage=banana.revealed_preimage,
                )
            )
        return txs


class HedgedTwoPartySwap:
    """Builder for the hedged §5.2 swap (Figure 1)."""

    def __init__(
        self,
        spec: HedgedTwoPartySpec | None = None,
        secret: Secret | None = None,
    ) -> None:
        self.spec = spec or HedgedTwoPartySpec()
        self.secret = secret or Secret.generate("alice-hedged-secret")

    def build(self) -> ProtocolInstance:
        spec = self.spec
        world = World([spec.chain_a, spec.chain_b])
        alice_keys = world.register_party(spec.alice)
        bob_keys = world.register_party(spec.bob)

        # Principals plus exactly the native currency each premium requires.
        world.fund(spec.chain_a, spec.alice, spec.token_a, spec.amount_a)
        world.fund(spec.chain_b, spec.bob, spec.token_b, spec.amount_b)
        world.fund(spec.chain_b, spec.alice, "native", spec.alice_premium)
        world.fund(spec.chain_a, spec.bob, "native", spec.bob_premium)

        hashlock = self.secret.hashlock
        apricot = world.chain(spec.chain_a)
        banana = world.chain(spec.chain_b)

        # Apricot contract: Alice's principal + Bob's premium p_b.
        apricot_addr = apricot.deploy(
            HedgedEscrow(
                principal_asset=apricot.asset(spec.token_a),
                principal_amount=spec.amount_a,
                principal_owner=spec.alice,
                redeemer=spec.bob,
                hashlock=hashlock,
                premium_amount=spec.bob_premium,
                premium_deadline=spec.bob_premium_deadline,
                principal_deadline=spec.alice_escrow_deadline,
                redemption_timelock=spec.bob_redeem_deadline,
            )
        )
        # Banana contract: Bob's principal + Alice's premium p_a + p_b.
        banana_addr = banana.deploy(
            HedgedEscrow(
                principal_asset=banana.asset(spec.token_b),
                principal_amount=spec.amount_b,
                principal_owner=spec.bob,
                redeemer=spec.alice,
                hashlock=hashlock,
                premium_amount=spec.alice_premium,
                premium_deadline=spec.alice_premium_deadline,
                principal_deadline=spec.bob_escrow_deadline,
                redemption_timelock=spec.alice_redeem_deadline,
            )
        )

        addrs = (apricot_addr, banana_addr)
        actors = {
            spec.alice: HedgedSwapAlice(spec.alice, alice_keys, spec, self.secret, addrs),
            spec.bob: HedgedSwapBob(spec.bob, bob_keys, spec, addrs),
        }
        horizon = spec.bob_redeem_deadline + 2
        return ProtocolInstance(
            world=world,
            actors=actors,
            horizon=horizon,
            contracts={
                "apricot_escrow": (spec.chain_a, apricot_addr),
                "banana_escrow": (spec.chain_b, banana_addr),
            },
            meta={"spec": spec, "secret": self.secret},
        )
