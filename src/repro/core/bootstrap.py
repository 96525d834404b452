"""Premium bootstrapping — §6, Figure 2.

When the principals are large, the premium a hedged swap needs
(``(A + B)/P`` on one side) can exceed what a counterparty will expose to
lockup risk.  Bootstrapping runs ``r`` rounds of premium exchanges in which
smaller premiums protect the distribution of larger premiums:

- the level amounts follow ``A_i = ⌈A_{i-1}/P⌉`` and
  ``B_i = ⌈(A_{i-1} + B_{i-1})/P⌉`` with ``A_0 = A, B_0 = B`` — in closed
  (real-valued) form ``B_i = (iA + B)/P^i``, the paper's
  "initial premium is (rA + B)/P^r and A/P^r",
- round ``j`` (for levels ℓ = r-1 … 1) exchanges the level-ℓ deposits
  protected by level-(ℓ+1) premiums, leadership alternating between Alice
  and Bob (Figure 2); the final stage is the real hedged swap protected by
  the level-1 premiums,
- only the very first deposits (level ``r``) are unprotected — the
  residual, irreducible sore-loser exposure.  With 1% premiums (P = 100)
  and a $4 initial risk, 3 rounds suffice to hedge a $1,000,000 swap
  (``(3·10^6 + 10^6)/100^3 = 4``): see :func:`rounds_needed` and EXP-T2.

Implementation note (documented substitution): the paper threads each
round's redeemed deposits directly into the next round's escrow contracts;
we model each round as a *deposit exchange* (a hedged two-party swap whose
"principals" are native deposits released back to their owners on success
— ``HedgedEscrow(redeem_to_owner=True)``), run back-to-back on the same
two chains.  A compliant party enters round ``j+1`` only if round ``j``
completed, so the loss and lockup bounds per round are identical to the
paper's: a renege at any round costs the deviator that round's premium and
locks the victim's deposits for at most one swap duration plus Δ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.chain.block import Transaction
from repro.contracts.hedged_escrow import HedgedEscrow
from repro.crypto.hashing import Secret
from repro.errors import ProtocolError
from repro.chain.blockchain import NEVER
from repro.parties.base import Actor
from repro.protocols.instance import ProtocolInstance
from repro.sim.runner import RunResult
from repro.sim.world import World, WorldView

#: heights consumed by one stage (six deadlines + settlement tick).
STAGE_SPAN = 8


# ----------------------------------------------------------------------
# ladder arithmetic
# ----------------------------------------------------------------------
def premium_ladder(amount_a: int, amount_b: int, rate: int, rounds: int) -> list[tuple[int, int]]:
    """Level amounts ``[(A_0, B_0), (A_1, B_1), ..., (A_rounds, B_rounds)]``.

    ``rate`` is ``P`` (premium ratio: a premium is 1/P of what it
    protects).  Integer amounts round up so protection never falls short.
    """
    if rate < 2:
        raise ProtocolError("premium rate P must be at least 2")
    levels = [(amount_a, amount_b)]
    for _ in range(rounds):
        a, b = levels[-1]
        levels.append((math.ceil(a / rate), math.ceil((a + b) / rate)))
    return levels


def initial_risk(amount_a: int, amount_b: int, rate: int, rounds: int) -> int:
    """The unprotected first deposit ``B_r ≈ (rA + B)/P^r``.

    The paper counts the plain §5.2 swap's own premium phase as round 1, so
    ``rounds = 1`` gives the unbootstrapped premium ``(A + B)/P`` and each
    further round divides the exposure by another factor of ``P``.
    """
    if rounds < 1:
        raise ProtocolError("rounds starts at 1 (the plain hedged swap)")
    return premium_ladder(amount_a, amount_b, rate, rounds)[-1][1]


def rounds_needed(amount_a: int, amount_b: int, rate: int, acceptable_risk: int) -> int:
    """Smallest ``r ≥ 1`` whose initial deposit is within the acceptable
    risk — the paper's ``log_P((A + B)/p)`` estimate (§6)."""
    r = 1
    while initial_risk(amount_a, amount_b, rate, r) > acceptable_risk:
        r += 1
        if r > 64:
            raise ProtocolError("no feasible round count (risk too small?)")
    return r


def rounds_estimate(amount_a: int, amount_b: int, rate: int, acceptable_risk: int) -> float:
    """The paper's closed-form estimate ``log_P((A + B)/p)``."""
    return math.log((amount_a + amount_b) / acceptable_risk, rate)


# ----------------------------------------------------------------------
# staged protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BootstrapSpec:
    """Parameters for a bootstrapped swap."""

    alice: str = "Alice"
    bob: str = "Bob"
    chain_a: str = "apricot"
    chain_b: str = "banana"
    token_a: str = "apricot-token"
    token_b: str = "banana-token"
    amount_a: int = 1_000_000
    amount_b: int = 1_000_000
    rate: int = 100  # P: premiums are 1% of what they protect
    rounds: int = 3  # r bootstrap rounds before the swap


@dataclass(frozen=True)
class StagePlan:
    """One stage: a deposit exchange (or the final swap) with premiums."""

    index: int
    level: int  # ladder level of the principals this stage locks
    is_final_swap: bool
    leader: str  # plays the "Alice" role (larger premium, redeems first)
    follower: str
    principal_a: int  # locked on chain_a by the follower-side owner
    principal_b: int  # locked on chain_b by the leader-side owner
    premium_combined: int  # leader deposit: the (p_a + p_b) analogue
    premium_single: int  # follower deposit: the p_b analogue
    offset: int  # height offset of the stage


def plan_stages(spec: BootstrapSpec) -> list[StagePlan]:
    """Lay out the ``r`` bootstrap stages plus the final swap stage."""
    ladder = premium_ladder(spec.amount_a, spec.amount_b, spec.rate, spec.rounds)
    stages: list[StagePlan] = []
    total = spec.rounds  # stages before the final swap: levels r-1 .. 1
    for index, level in enumerate(range(spec.rounds - 1, 0, -1)):
        a_lvl, b_lvl = ladder[level]
        a_prem, b_prem = ladder[level + 1]
        # Leadership alternates backwards from Alice on the final swap.
        stage_from_end = total - index  # final swap = 0
        leader = spec.alice if stage_from_end % 2 == 0 else spec.bob
        follower = spec.bob if leader == spec.alice else spec.alice
        stages.append(
            StagePlan(
                index=index,
                level=level,
                is_final_swap=False,
                leader=leader,
                follower=follower,
                principal_a=a_lvl,
                principal_b=b_lvl,
                premium_combined=b_prem,
                premium_single=a_prem,
                offset=index * STAGE_SPAN,
            )
        )
    a1, b1 = ladder[1] if spec.rounds >= 1 else (
        math.ceil(spec.amount_a / spec.rate),
        math.ceil((spec.amount_a + spec.amount_b) / spec.rate),
    )
    stages.append(
        StagePlan(
            index=len(stages),
            level=0,
            is_final_swap=True,
            leader=spec.alice,
            follower=spec.bob,
            principal_a=spec.amount_a,
            principal_b=spec.amount_b,
            premium_combined=b1,
            premium_single=a1,
            offset=len(stages) * STAGE_SPAN,
        )
    )
    return stages


class BootstrapParty(Actor):
    """Walks the stage ladder, aborting if the previous stage failed."""

    def __init__(self, name, keypair, spec, stages, secrets, addresses):
        super().__init__(name, keypair)
        self.spec = spec
        self.stages = stages
        self.secrets = secrets  # stage index -> Secret (leader holds it)
        self.addresses = addresses  # stage index -> (apricot addr, banana addr)
        self.aborted = False

    def _stage_for_round(self, rnd: int) -> StagePlan | None:
        idx = rnd // STAGE_SPAN
        return self.stages[idx] if idx < len(self.stages) else None

    def _previous_completed(self, view: WorldView, stage: StagePlan) -> bool:
        if stage.index == 0:
            return True
        prev_a, prev_b = self.addresses[stage.index - 1]
        apricot = view.chain(self.spec.chain_a).contract(prev_a)
        banana = view.chain(self.spec.chain_b).contract(prev_b)
        return (
            apricot.principal_state == "redeemed"
            and banana.principal_state == "redeemed"
        )

    def idle_until(self, rnd: int) -> int:
        # Each stage opens at a fixed round and then runs as a two-party
        # swap, whose steps wait on escrow state.
        start = (rnd // STAGE_SPAN + 1) * STAGE_SPAN
        if self.aborted or start >= len(self.stages) * STAGE_SPAN:
            return NEVER
        return start

    def on_round(self, rnd: int, view: WorldView) -> list[Transaction]:
        if self.aborted:
            return []
        stage = self._stage_for_round(rnd)
        if stage is None:
            return []
        local = rnd - stage.offset
        if local == 0 and not self._previous_completed(view, stage):
            self.aborted = True
            return []
        spec = self.spec
        addr_a, addr_b = self.addresses[stage.index]
        apricot = view.chain(spec.chain_a).contract(addr_a)
        banana = view.chain(spec.chain_b).contract(addr_b)
        lands = view.height + 1
        txs: list[Transaction] = []

        if self.name == stage.leader:
            # The "Alice" role of the hedged swap template.
            if banana.premium_state == "absent" and lands <= banana.premium_deadline:
                txs.append(self.tx(spec.chain_b, addr_b, "deposit_premium"))
            if (
                apricot.premium_state == "held"
                and apricot.principal_state == "absent"
                and apricot.principal_owner == self.name
                and lands <= apricot.principal_deadline
            ):
                txs.append(self.tx(spec.chain_a, addr_a, "escrow_principal"))
            if (
                banana.principal_state == "escrowed"
                and lands <= banana.redemption_timelock
            ):
                secret = self.secrets[stage.index]
                txs.append(
                    self.tx(spec.chain_b, addr_b, "redeem", preimage=secret.preimage)
                )
        else:
            # The "Bob" role.
            if (
                banana.premium_state == "held"
                and apricot.premium_state == "absent"
                and lands <= apricot.premium_deadline
            ):
                txs.append(self.tx(spec.chain_a, addr_a, "deposit_premium"))
            if (
                apricot.principal_state == "escrowed"
                and banana.principal_state == "absent"
                and banana.principal_owner == self.name
                and lands <= banana.principal_deadline
            ):
                txs.append(self.tx(spec.chain_b, addr_b, "escrow_principal"))
            if (
                banana.revealed_preimage is not None
                and apricot.principal_state == "escrowed"
                and lands <= apricot.redemption_timelock
            ):
                txs.append(
                    self.tx(
                        spec.chain_a, addr_a, "redeem",
                        preimage=banana.revealed_preimage,
                    )
                )
        return txs


@dataclass
class BootstrapOutcome:
    """Result of a bootstrapped swap run."""

    stages_completed: int
    total_stages: int
    swapped: bool
    premium_net: dict[str, int]
    max_lockup: int

    @property
    def failed_stage(self) -> int | None:
        if self.stages_completed == self.total_stages:
            return None
        return self.stages_completed


def extract_bootstrap_outcome(instance: ProtocolInstance, result: RunResult) -> BootstrapOutcome:
    spec: BootstrapSpec = instance.meta["spec"]
    stages: list[StagePlan] = instance.meta["stages"]
    payoffs = result.payoffs
    assert payoffs is not None
    completed = 0
    max_lockup = 0
    for stage in stages:
        apricot = instance.contract(f"stage{stage.index}-apricot")
        banana = instance.contract(f"stage{stage.index}-banana")
        for contract in (apricot, banana):
            if contract.principal_lockup is not None:
                max_lockup = max(max_lockup, contract.principal_lockup)
            if contract.premium_lockup is not None:
                max_lockup = max(max_lockup, contract.premium_lockup)
        if (
            apricot.principal_state == "redeemed"
            and banana.principal_state == "redeemed"
        ):
            completed += 1
    token_a = instance.world.chain(spec.chain_a).asset(spec.token_a)
    token_b = instance.world.chain(spec.chain_b).asset(spec.token_b)
    alice_delta = payoffs.delta(spec.alice)
    swapped = (
        alice_delta.get(token_b, 0) >= spec.amount_b
        and payoffs.delta(spec.bob).get(token_a, 0) >= spec.amount_a
    )
    return BootstrapOutcome(
        stages_completed=completed,
        total_stages=len(stages),
        swapped=swapped,
        premium_net={
            spec.alice: payoffs.premium_net(spec.alice),
            spec.bob: payoffs.premium_net(spec.bob),
        },
        max_lockup=max_lockup,
    )


class BootstrappedSwap:
    """Builder: ``r`` bootstrap stages then the hedged swap (§6, Fig. 2)."""

    def __init__(self, spec: BootstrapSpec | None = None) -> None:
        self.spec = spec or BootstrapSpec()
        if self.spec.rounds < 1:
            raise ProtocolError("bootstrapping needs at least one round")
        self.stages = plan_stages(self.spec)
        self.secrets = {
            stage.index: Secret.generate(f"stage-{stage.index}") for stage in self.stages
        }

    def build(self) -> ProtocolInstance:
        spec, stages = self.spec, self.stages
        world = World([spec.chain_a, spec.chain_b])
        keys = {
            spec.alice: world.register_party(spec.alice),
            spec.bob: world.register_party(spec.bob),
        }
        world.fund(spec.chain_a, spec.alice, spec.token_a, spec.amount_a)
        world.fund(spec.chain_b, spec.bob, spec.token_b, spec.amount_b)
        # Native funding: every deposit a party could ever make, summed
        # (refunds recycle between stages; the sum is a safe upper bound).
        need_a: dict[str, int] = {spec.alice: 0, spec.bob: 0}
        need_b: dict[str, int] = {spec.alice: 0, spec.bob: 0}
        for stage in stages:
            need_b[stage.leader] += stage.premium_combined
            need_a[stage.follower] += stage.premium_single
            if not stage.is_final_swap:
                need_a[stage.leader] += stage.principal_a
                need_b[stage.follower] += stage.principal_b
        for name in (spec.alice, spec.bob):
            world.fund(spec.chain_a, name, "native", need_a[name])
            world.fund(spec.chain_b, name, "native", need_b[name])

        apricot = world.chain(spec.chain_a)
        banana = world.chain(spec.chain_b)
        addresses: dict[int, tuple[str, str]] = {}
        contracts: dict[str, tuple[str, str]] = {}
        for stage in stages:
            o = stage.offset
            hashlock = self.secrets[stage.index].hashlock
            exchange = not stage.is_final_swap
            asset_a = (
                apricot.native if exchange else apricot.asset(spec.token_a)
            )
            asset_b = banana.native if exchange else banana.asset(spec.token_b)
            addr_a = apricot.deploy(
                HedgedEscrow(
                    principal_asset=asset_a,
                    principal_amount=stage.principal_a,
                    principal_owner=stage.leader,
                    redeemer=stage.follower,
                    hashlock=hashlock,
                    premium_amount=stage.premium_single,
                    premium_deadline=o + 2,
                    principal_deadline=o + 3,
                    redemption_timelock=o + 6,
                    redeem_to_owner=exchange,
                )
            )
            addr_b = banana.deploy(
                HedgedEscrow(
                    principal_asset=asset_b,
                    principal_amount=stage.principal_b,
                    principal_owner=stage.follower,
                    redeemer=stage.leader,
                    hashlock=hashlock,
                    premium_amount=stage.premium_combined,
                    premium_deadline=o + 1,
                    principal_deadline=o + 4,
                    redemption_timelock=o + 5,
                    redeem_to_owner=exchange,
                )
            )
            addresses[stage.index] = (addr_a, addr_b)
            contracts[f"stage{stage.index}-apricot"] = (spec.chain_a, addr_a)
            contracts[f"stage{stage.index}-banana"] = (spec.chain_b, addr_b)

        actors = {
            name: BootstrapParty(name, keys[name], spec, stages, self.secrets, addresses)
            for name in (spec.alice, spec.bob)
        }
        # Leaders hold the secrets; strip them from the follower's copy so
        # a deviant follower cannot redeem early (parties are autonomous).
        for name, actor in actors.items():
            actor.secrets = {
                idx: secret
                for idx, secret in self.secrets.items()
                if stages[idx].leader == name
            }

        horizon = stages[-1].offset + STAGE_SPAN + 1
        return ProtocolInstance(
            world=world,
            actors=actors,
            horizon=horizon,
            contracts=contracts,
            meta={"spec": spec, "stages": stages},
        )
