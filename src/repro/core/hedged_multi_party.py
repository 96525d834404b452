"""The hedged multi-party swap — §7.1.

Four phases, each mirroring the base protocol's flows:

1. **escrow premiums** (forward): leaders deposit ``E(L, v)`` on outgoing
   arcs; a follower deposits on its outgoing arcs once every incoming arc
   carries its escrow premium,
2. **redemption premiums** (backward, per leader): each leader that saw all
   its incoming escrow premiums originates redemption premiums on its
   incoming arcs; every other party, on first seeing a premium for ``k_i``
   on an outgoing arc, extends the authenticated path and deposits on all
   its incoming arcs (amounts from Equation 1),
3. **principal escrow** (forward): like base Phase One, but only on
   *activated* arcs (all redemption premiums present),
4. **hashkeys** (backward): like base Phase Two — with the Lemma 3/4
   leader rule: a leader releases its key iff all its incoming arcs hold
   principals *or* it escrowed nothing; otherwise it withholds the key,
   turning the redemption premiums on its escrowed arcs into compensation.

If premium distribution fails, parties execute exactly the truncated runs
the lemmas describe — the actors below implement those recovery rules, and
`repro.checker` verifies the lemma bounds under exhaustive deviations.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.chain.block import Transaction
from repro.contracts.swap_arc import HedgedSwapArc
from repro.core.premiums import (
    default_leaders,
    escrow_premium_amounts,
    swap_schedule,
    worst_case_funding,
)
from repro.crypto.hashing import Secret
from repro.crypto.hashkeys import SignedPath
from repro.errors import ProtocolError
from repro.graph.digraph import Arc, SwapGraph
from repro.parties.base import Actor, next_of
from repro.protocols.base_multi_party import AddrMap, MultiPartyActorBase
from repro.protocols.instance import ProtocolInstance
from repro.sim.runner import RunResult
from repro.sim.world import World, WorldView


class HedgedMultiPartyActor(MultiPartyActorBase):
    """Compliant actor for the hedged protocol, including recovery rules."""

    def __init__(self, name, keypair, graph, schedule, addresses, secret, hashlocks):
        super().__init__(name, keypair, graph, schedule, addresses, secret)
        self.hashlocks = hashlocks
        self.p1_done = False
        self.rpremium_done: set[str] = set()
        self.p3_done = False

    # -- phase-1 helpers ---------------------------------------------------
    def all_incoming_escrow_premiums(self, view: WorldView) -> bool:
        return all(
            self.arc_contract(view, arc).escrow_premium_state == "held"
            for arc in self.in_arcs
        )

    def _deposit_escrow_premiums(self) -> list[Transaction]:
        txs = []
        for arc in self.out_arcs:
            chain_name, address = self.addresses[arc]
            txs.append(self.tx(chain_name, address, "deposit_escrow_premium"))
        self.p1_done = True
        return txs

    # -- phase-2 helpers ---------------------------------------------------
    def _originate_redemption_premiums(self, view: WorldView) -> list[Transaction]:
        payload = f"rpremium:{self.hashlocks[self.name].digest}"
        chain = SignedPath.create(payload, self.keypair, self.name)
        return self._deposit_rpremium_on_in_arcs(view, self.name, chain)

    def _deposit_rpremium_on_in_arcs(
        self, view: WorldView, leader: str, chain: SignedPath
    ) -> list[Transaction]:
        self.rpremium_done.add(leader)
        txs = []
        for arc in self.in_arcs:
            contract = self.arc_contract(view, arc)
            if leader in contract.redemption_deposits:
                continue
            chain_name, address = self.addresses[arc]
            txs.append(
                self.tx(chain_name, address, "deposit_redemption_premium", path_chain=chain)
            )
        return txs

    def _forward_redemption_premiums(self, view: WorldView) -> list[Transaction]:
        """First premium for k_i on an outgoing arc triggers the extension."""
        txs: list[Transaction] = []
        for leader in self.leaders:
            if leader in self.rpremium_done:
                continue
            for arc in self.out_arcs:
                deposits = self.arc_contract(view, arc).redemption_deposits
                if leader in deposits:
                    seen = deposits[leader].chain
                    if self.name in seen.vertices:
                        self.rpremium_done.add(leader)
                        break
                    extended = seen.extend(self.keypair, self.name)
                    txs.extend(self._deposit_rpremium_on_in_arcs(view, leader, extended))
                    break
        return txs

    # -- phase-3 helpers ---------------------------------------------------
    def _escrow_principals(self, view: WorldView) -> list[Transaction]:
        txs = []
        for arc in self.out_arcs:
            if not self.arc_contract(view, arc).activated:
                continue
            chain_name, address = self.addresses[arc]
            txs.append(self.tx(chain_name, address, "escrow_principal"))
            self.escrowed_arcs.add(arc)
        self.p3_done = True
        return txs

    # -- driver -------------------------------------------------------------
    def idle_until(self, rnd: int) -> int:
        # A leader's timed steps open the phases; every other step waits
        # on arc state, which only an event changes.
        s = self.schedule
        return next_of((s.p2_start, s.p3_start, s.p4_start), rnd)

    def on_round(self, rnd: int, view: WorldView) -> list[Transaction]:
        s = self.schedule
        txs: list[Transaction] = []

        # Phase 1 — escrow premiums (forward flow).
        if rnd < s.p2_start and not self.p1_done:
            ready = rnd == 0 if self.is_leader else self.all_incoming_escrow_premiums(view)
            if ready:
                txs.extend(self._deposit_escrow_premiums())

        # Phase 2 — redemption premiums (backward flow).
        if s.p2_start <= rnd < s.p3_start:
            if (
                self.is_leader
                and rnd == s.p2_start
                and self.name not in self.rpremium_done
            ):
                if self.all_incoming_escrow_premiums(view):
                    txs.extend(self._originate_redemption_premiums(view))
                else:
                    # Lemma 5 recovery: skip origination entirely.
                    self.rpremium_done.add(self.name)
            txs.extend(self._forward_redemption_premiums(view))

        # Phase 3 — principal escrow (forward flow, activated arcs only).
        if s.p3_start <= rnd < s.p4_start and not self.p3_done:
            ready = rnd == s.p3_start if self.is_leader else self.all_incoming_escrowed(view)
            if ready:
                txs.extend(self._escrow_principals(view))

        # Phase 4 — hashkeys (backward flow).
        if rnd >= s.p4_start:
            if self.is_leader and self.name not in self.released and rnd == s.p4_start:
                if self.all_incoming_escrowed(view) or not self.escrowed_arcs:
                    # Normal release, or Lemma 4 recovery (nothing escrowed:
                    # release to recover own redemption premium deposits).
                    txs.extend(self._originate_hashkey(view))
                else:
                    # Lemma 3 recovery: withhold the key; redemption
                    # premiums on escrowed outgoing arcs become compensation.
                    self.released.add(self.name)
            txs.extend(self._forward_hashkeys(view))
        return txs


@dataclass
class MultiPartyOutcome:
    """Condensed result of a multi-party run (base or hedged)."""

    parties: tuple[str, ...]
    premium: int
    premium_net: dict[str, int]
    arc_states: dict[Arc, str]
    escrowers: dict[Arc, str] = field(default_factory=dict)

    @property
    def all_redeemed(self) -> bool:
        return all(state == "redeemed" for state in self.arc_states.values())

    def out_arcs_of(self, party: str) -> list[Arc]:
        return [arc for arc in self.arc_states if arc[0] == party]

    def in_arcs_of(self, party: str) -> list[Arc]:
        return [arc for arc in self.arc_states if arc[1] == party]

    def unredeemed_escrow_count(self, party: str) -> int:
        """Outgoing arcs whose principal was escrowed but refunded."""
        return sum(
            1 for arc in self.out_arcs_of(party) if self.arc_states[arc] == "refunded"
        )

    def safety_holds(self, party: str) -> bool:
        """If any outgoing principal was taken, all incoming were received."""
        gave = any(self.arc_states[a] == "redeemed" for a in self.out_arcs_of(party))
        if not gave:
            return True
        return all(self.arc_states[a] == "redeemed" for a in self.in_arcs_of(party))

    def hedged_holds(self, party: str) -> bool:
        """Lemma 6: net premium ≥ p per escrowed-but-unredeemed asset."""
        return self.premium_net[party] >= self.premium * self.unredeemed_escrow_count(party)


def extract_multi_party_outcome(
    instance: ProtocolInstance, result: RunResult
) -> MultiPartyOutcome:
    """Read arc states and premium flows after a run."""
    graph: SwapGraph = instance.meta["graph"]
    addresses: AddrMap = instance.meta["addresses"]
    payoffs = result.payoffs
    assert payoffs is not None
    arc_states = {}
    for arc, (chain_name, address) in addresses.items():
        contract = instance.world.chain(chain_name).contract_at(address)
        arc_states[arc] = contract.principal_state
    return MultiPartyOutcome(
        parties=tuple(graph.parties),
        premium=int(instance.meta.get("premium", 0)),
        premium_net={p: payoffs.premium_net(p) for p in graph.parties},
        arc_states=arc_states,
        escrowers={arc: arc[0] for arc in addresses},
    )


class HedgedMultiPartySwap:
    """Builder for the hedged multi-party swap (§7.1)."""

    def __init__(
        self,
        graph: SwapGraph | None = None,
        leaders: tuple[str, ...] | None = None,
        premium: int = 1,
        secrets: dict[str, Secret] | None = None,
    ) -> None:
        from repro.graph.digraph import figure3_graph

        self.graph = graph or figure3_graph()
        self.leaders = tuple(leaders or default_leaders(self.graph))
        self.schedule = swap_schedule(self.graph, self.leaders)
        self.premium = premium
        self.secrets = secrets or {
            leader: Secret.generate(f"{leader}-secret") for leader in self.leaders
        }
        if set(self.secrets) != set(self.leaders):
            raise ProtocolError("need exactly one secret per leader")

    def build(self) -> ProtocolInstance:
        graph, schedule, p = self.graph, self.schedule, self.premium
        world = World(graph.chains)
        keys = {name: world.register_party(name) for name in graph.parties}
        hashlocks = {leader: self.secrets[leader].hashlock for leader in self.leaders}
        escrow_premiums = escrow_premium_amounts(graph, self.leaders, p)

        # Token funding: each escrower holds what its outgoing arcs move.
        token_need: dict[tuple[str, str, str], int] = defaultdict(int)
        for (u, v), spec in graph.specs.items():
            token_need[(spec.chain, u, spec.token)] += spec.amount
        for (chain_name, account, token), amount in token_need.items():
            world.fund(chain_name, account, token, amount)

        # Native funding: worst-case premium exposure per party per chain.
        native_need: dict[tuple[str, str], int] = defaultdict(int)
        for arc, amount in escrow_premiums.items():
            u, _ = arc
            native_need[(graph.specs[arc].chain, u)] += amount
        # v may owe up to the worst case on (u, v) for each leader's key;
        # the graph's premium plan keeps that worst case per arc.
        for arc, worst in worst_case_funding(graph, self.leaders, p).items():
            native_need[(graph.specs[arc].chain, arc[1])] += worst * len(self.leaders)
        for (chain_name, account), amount in native_need.items():
            world.fund(chain_name, account, "native", amount)

        addresses: AddrMap = {}
        contracts: dict[str, tuple[str, str]] = {}
        for arc in sorted(graph.arcs):
            spec = graph.specs[arc]
            host = world.chain(spec.chain)
            address = host.deploy(
                HedgedSwapArc(
                    graph=graph,
                    schedule=schedule,
                    public_of=world.public_of,
                    hashlocks=hashlocks,
                    arc=arc,
                    asset=host.asset(spec.token),
                    amount=spec.amount,
                    premium=p,
                    escrow_premium_amount=escrow_premiums[arc],
                )
            )
            addresses[arc] = (spec.chain, address)
            contracts[f"arc:{arc[0]}->{arc[1]}"] = (spec.chain, address)

        actors: dict[str, Actor] = {}
        for name in graph.parties:
            actors[name] = HedgedMultiPartyActor(
                name,
                keys[name],
                graph,
                schedule,
                addresses,
                self.secrets.get(name),
                hashlocks,
            )

        return ProtocolInstance(
            world=world,
            actors=actors,
            horizon=schedule.horizon,
            contracts=contracts,
            meta={
                "graph": graph,
                "schedule": schedule,
                "leaders": self.leaders,
                "addresses": addresses,
                "premium": p,
                "escrow_premiums": escrow_premiums,
            },
        )
