"""The base multi-party swap (Herlihy PODC '18), summarized in §7.

Phase One: each leader escrows on every outgoing arc; each follower waits
until assets appear on all incoming arcs, then escrows on its outgoing
arcs.  Phase Two: each leader whose incoming arcs hold the expected assets
releases its hashkey on those arcs; every party that observes a new hashkey
on an outgoing arc extends the path and presents it on its incoming arcs
(Figure 3b).  An arc pays out to its redeemer once it holds a valid hashkey
from every leader.

Actors are reactive: they act as soon as the enabling condition is visible,
which reproduces the canonical schedule when everyone complies and degrades
safely under deviation (contract deadlines do the rest).
"""

from __future__ import annotations

from collections import defaultdict

from repro.chain.block import Transaction
from repro.contracts.swap_arc import BaseSwapArc
from repro.core.premiums import default_leaders, swap_schedule
from repro.crypto.hashing import Secret
from repro.crypto.hashkeys import HashKey
from repro.errors import ProtocolError
from repro.graph.digraph import Arc, SwapGraph
from repro.graph.schedule import MultiPartySchedule
from repro.parties.base import Actor
from repro.protocols.instance import ProtocolInstance
from repro.sim.world import World, WorldView

AddrMap = dict[Arc, tuple[str, str]]


class MultiPartyActorBase(Actor):
    """Shared observation helpers for base and hedged multi-party actors."""

    def __init__(
        self,
        name: str,
        keypair,
        graph: SwapGraph,
        schedule: MultiPartySchedule,
        addresses: AddrMap,
        secret: Secret | None,
    ) -> None:
        super().__init__(name, keypair)
        self.graph = graph
        self.schedule = schedule
        self.addresses = addresses
        self.secret = secret  # None for followers
        self.is_leader = secret is not None
        self.released: set[str] = set()
        self.escrowed_arcs: set[Arc] = set()
        self.escrow_done = False
        # The actor's arcs and the leaders, in the order it acts on them.
        self.in_arcs: tuple[Arc, ...] = tuple(sorted(graph.in_arcs(name)))
        self.out_arcs: tuple[Arc, ...] = tuple(sorted(graph.out_arcs(name)))
        self.leaders: tuple[str, ...] = tuple(sorted(schedule.leaders))
        # A deployed contract never moves, so each arc is resolved once.
        self._contracts: dict[Arc, BaseSwapArc] = {}

    # -- observation -----------------------------------------------------
    def arc_contract(self, view: WorldView, arc: Arc):
        contract = self._contracts.get(arc)
        if contract is None:
            chain_name, address = self.addresses[arc]
            contract = view.chain(chain_name).contract(address)
            self._contracts[arc] = contract
        return contract

    def all_incoming_escrowed(self, view: WorldView) -> bool:
        return all(
            self.arc_contract(view, arc).principal_state in ("escrowed", "redeemed")
            for arc in self.in_arcs
        )

    # -- hashkey release / forwarding -------------------------------------
    def _originate_hashkey(self, view: WorldView) -> list[Transaction]:
        assert self.secret is not None
        hashkey = HashKey.originate(self.secret, self.keypair, self.name)
        self.released.add(self.name)
        return self._present_on_in_arcs(view, hashkey)

    def _forward_hashkeys(self, view: WorldView) -> list[Transaction]:
        """Extend any newly observed hashkey from outgoing arcs (Fig. 3b)."""
        txs: list[Transaction] = []
        for leader in self.leaders:
            if leader in self.released:
                continue
            for arc in self.out_arcs:
                accepted = self.arc_contract(view, arc).accepted
                if leader in accepted:
                    seen = accepted[leader]
                    if self.name in seen.chain.vertices:
                        self.released.add(leader)
                        break
                    extended = seen.extend(self.keypair, self.name)
                    self.released.add(leader)
                    txs.extend(self._present_on_in_arcs(view, extended, leader))
                    break
        return txs

    def _present_on_in_arcs(
        self, view: WorldView, hashkey: HashKey, leader: str | None = None
    ) -> list[Transaction]:
        leader = leader or hashkey.leader
        txs = []
        for arc in self.in_arcs:
            contract = self.arc_contract(view, arc)
            if leader in contract.accepted:
                continue
            chain_name, address = self.addresses[arc]
            txs.append(self.tx(chain_name, address, "present_hashkey", hashkey=hashkey))
        return txs


class BaseMultiPartyActor(MultiPartyActorBase):
    """Compliant actor for the unhedged Herlihy '18 protocol."""

    def on_round(self, rnd: int, view: WorldView) -> list[Transaction]:
        txs: list[Transaction] = []

        # Phase One: escrow principals.
        if not self.escrow_done:
            ready = rnd == 0 if self.is_leader else self.all_incoming_escrowed(view)
            if ready:
                for arc in self.out_arcs:
                    chain_name, address = self.addresses[arc]
                    txs.append(self.tx(chain_name, address, "escrow_principal"))
                    self.escrowed_arcs.add(arc)
                self.escrow_done = True

        # Phase Two: leaders release once their incoming arcs are full.
        if (
            self.is_leader
            and self.name not in self.released
            and self.escrow_done
            and self.all_incoming_escrowed(view)
        ):
            txs.extend(self._originate_hashkey(view))

        # Everyone: forward observed hashkeys.
        txs.extend(self._forward_hashkeys(view))
        return txs


class BaseMultiPartySwap:
    """Builder for the base multi-party swap on an arbitrary digraph."""

    def __init__(
        self,
        graph: SwapGraph | None = None,
        leaders: tuple[str, ...] | None = None,
        secrets: dict[str, Secret] | None = None,
    ) -> None:
        from repro.graph.digraph import figure3_graph

        self.graph = graph or figure3_graph()
        self.leaders = tuple(leaders or default_leaders(self.graph))
        self.schedule = swap_schedule(self.graph, self.leaders)
        self.secrets = secrets or {
            leader: Secret.generate(f"{leader}-secret") for leader in self.leaders
        }
        if set(self.secrets) != set(self.leaders):
            raise ProtocolError("need exactly one secret per leader")

    def build(self) -> ProtocolInstance:
        graph, schedule = self.graph, self.schedule
        world = World(graph.chains)
        keys = {name: world.register_party(name) for name in graph.parties}

        hashlocks = {leader: self.secrets[leader].hashlock for leader in self.leaders}

        # Fund every escrower with the tokens its outgoing arcs move.
        need: dict[tuple[str, str, str], int] = defaultdict(int)
        for (u, v), spec in graph.specs.items():
            need[(spec.chain, u, spec.token)] += spec.amount
        for (chain_name, account, token), amount in need.items():
            world.fund(chain_name, account, token, amount)

        addresses: AddrMap = {}
        contracts: dict[str, tuple[str, str]] = {}
        for arc in sorted(graph.arcs):
            spec = graph.specs[arc]
            host = world.chain(spec.chain)
            address = host.deploy(
                BaseSwapArc(
                    graph=graph,
                    schedule=schedule,
                    public_of=world.public_of,
                    hashlocks=hashlocks,
                    arc=arc,
                    asset=host.asset(spec.token),
                    amount=spec.amount,
                )
            )
            addresses[arc] = (spec.chain, address)
            contracts[f"arc:{arc[0]}->{arc[1]}"] = (spec.chain, address)

        actors: dict[str, Actor] = {}
        for name in graph.parties:
            actors[name] = BaseMultiPartyActor(
                name,
                keys[name],
                graph,
                schedule,
                addresses,
                self.secrets.get(name),
            )

        return ProtocolInstance(
            world=world,
            actors=actors,
            horizon=schedule.base_horizon,
            contracts=contracts,
            meta={
                "graph": graph,
                "schedule": schedule,
                "leaders": tuple(self.leaders),
                "addresses": addresses,
                "premium": 0,
            },
        )
