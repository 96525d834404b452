"""The hedged broker protocol — §8.2.

Premiums are deposited in three phases mirroring the base protocol:

1. **escrow premiums** — Bob posts ``E(B, A)`` and Carol ``E(C, A)``, each
   equal to ``T(A) = T(A,B) + T(A,C)`` (the broker's total forced trading
   premiums: whoever blocks the deal reimburses Alice's passthrough),
2. **trading premiums** — Alice posts ``T(A, B) = R_B(B)`` and
   ``T(A, C) = R_C(C)``,
3. **redemption premiums** — backward flow per leader exactly as in the
   multi-party swap; with ``optimize=True`` (default) the footnote-7
   pruning drops deposits whose forwarding target shares a contract with
   the arc where the key is observed.

Compliant release rule in the redemption phase: Alice always releases her
key (she escrows nothing — releasing only recovers her deposits).  An
escrower releases when both contracts are traded (happy path), or when the
contract holding *its* asset is untraded (nothing can be redeemed, so
releasing merely recovers premiums); it withholds exactly when its asset's
contract is traded but the other is not — the case where release would let
its asset go without the counter-payment.

The module also implements the §8.2 multi-round extension: premiums for an
``r``-round trading schedule obey ``E(v,w) = T_1(w)``,
``T_k(v,w) = T_{k+1}(w)`` for ``k < r`` and ``T_r(v,w) = R_w(w)`` —
see :func:`multi_round_trading_premiums`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.block import Transaction
from repro.contracts.broker import BrokerDeadlines, HedgedBrokerContract
from repro.core.premiums import (
    pruned_redemption_premium_amount,
    required_redemption_keys,
)
from repro.crypto.hashing import Secret
from repro.crypto.hashkeys import SignedPath
from repro.graph.digraph import Arc
from repro.parties.base import next_of
from repro.protocols.base_broker import BrokerActorBase, BrokerSpec
from repro.protocols.instance import ProtocolInstance
from repro.sim.runner import RunResult
from repro.sim.world import World, WorldView


def broker_premium_tables(
    spec: BrokerSpec, premium: int, optimize: bool = True
) -> dict[str, object]:
    """All premium amounts for one deal: R flows, T, and E tables."""
    graph = spec.graph()
    contract_of = spec.contract_of() if optimize else None
    a, b, c = spec.broker, spec.seller, spec.buyer

    def origination_total(leader: str) -> int:
        """R_w(w): the leader's own-key deposits on its incoming arcs."""
        total = 0
        seen_contracts: set[str] = set()
        for arc in sorted(graph.in_arcs(leader)):
            if contract_of is not None:
                host = contract_of[arc]
                if host in seen_contracts:
                    continue
                seen_contracts.add(host)
            total += pruned_redemption_premium_amount(
                graph, (leader,), arc[0], premium, contract_of
            )
        return total

    trading = {(a, b): origination_total(b), (a, c): origination_total(c)}
    t_total = sum(trading.values())
    escrow = {(b, a): t_total, (c, a): t_total}
    return {
        "trading": trading,
        "escrow": escrow,
        "required_keys": required_redemption_keys(graph, (a, b, c), contract_of),
        "contract_of": contract_of,
    }


def multi_round_trading_premiums(
    rounds: list[list[Arc]],
    escrow_arcs: list[Arc],
    origination_totals: dict[str, int],
) -> dict[str, dict[Arc, int]]:
    """The §8.2 multi-round recurrence.

    ``rounds[k]`` lists the arcs traded in round ``k+1`` (1-based phases);
    ``origination_totals`` maps each party ``w`` to ``R_w(w)``.  Returns the
    escrow premium table ``E`` and per-round trading premium tables
    ``T_1 .. T_r``.
    """
    r = len(rounds)
    tables: dict[int, dict[Arc, int]] = {}
    # T_r first, then backward.
    for k in range(r, 0, -1):
        table: dict[Arc, int] = {}
        for (v, w) in rounds[k - 1]:
            if k == r:
                table[(v, w)] = origination_totals[w]
            else:
                next_total = sum(
                    amount for (x, y), amount in tables[k + 1].items() if x == w
                )
                table[(v, w)] = next_total
        tables[k] = table
    escrow: dict[Arc, int] = {}
    for (v, w) in escrow_arcs:
        escrow[(v, w)] = sum(amount for (x, y), amount in tables[1].items() if x == w)
    out: dict[str, dict[Arc, int]] = {"E": escrow}
    for k in range(1, r + 1):
        out[f"T_{k}"] = tables[k]
    return out


class HedgedBrokerActorBase(BrokerActorBase):
    """Premium-phase machinery shared by all three hedged broker parties."""

    def __init__(self, name, keypair, spec, secret, addrs, deadlines, contract_of):
        super().__init__(name, keypair, spec, secret, addrs)
        self.deadlines = deadlines
        self.contract_of = contract_of  # None when optimize=False
        self.rpremium_done: set[str] = set()

    def _addr_for_arc(self, arc: Arc) -> tuple[str, str]:
        hosting = (self.spec.contract_of())[arc]
        if hosting == "ticket":
            return (self.spec.ticket_chain, self.ticket_addr)
        return (self.spec.coin_chain, self.coin_addr)

    def _contract_for_arc(self, view: WorldView, arc: Arc):
        chain_name, address = self._addr_for_arc(arc)
        return view.chain(chain_name).contract(address)

    def _all_pre_premiums_present(self, view: WorldView) -> bool:
        """Both escrow premiums and both trading premiums are held."""
        ticket, coin = self.contracts(view)
        return all(
            state == "held"
            for state in (
                ticket.escrow_premium_state,
                coin.escrow_premium_state,
                ticket.trading_premium_state,
                coin.trading_premium_state,
            )
        )

    def _originate_rpremiums(self, view: WorldView) -> list[Transaction]:
        """Deposit my own-key redemption premiums on my incoming arcs."""
        self.rpremium_done.add(self.name)
        payload = f"rpremium:{self.secret.hashlock.digest}"
        chain = SignedPath.create(payload, self.keypair, self.name)
        txs = []
        seen_contracts: set[str] = set()
        for arc in sorted(self.graph.in_arcs(self.name)):
            if self.contract_of is not None:
                host = self.spec.contract_of()[arc]
                if host in seen_contracts:
                    continue
                seen_contracts.add(host)
            chain_name, address = self._addr_for_arc(arc)
            txs.append(
                self.tx(
                    chain_name, address, "deposit_redemption_premium",
                    arc=arc, path_chain=chain,
                )
            )
        return txs

    def _forward_rpremiums(self, view: WorldView) -> list[Transaction]:
        """Extend the first-seen premium for each leader (backward flow)."""
        txs: list[Transaction] = []
        for leader in sorted(self.graph.parties):
            if leader in self.rpremium_done:
                continue
            for out_arc in sorted(self.graph.out_arcs(self.name)):
                contract = self._contract_for_arc(view, out_arc)
                deposit = contract.rdeposits.get((out_arc, leader))
                if deposit is None:
                    continue
                self.rpremium_done.add(leader)
                seen = deposit.chain
                if self.name in seen.vertices:
                    break
                extended = seen.extend(self.keypair, self.name)
                observe_host = self.spec.contract_of()[out_arc]
                for in_arc in sorted(self.graph.in_arcs(self.name)):
                    in_host = self.spec.contract_of()[in_arc]
                    if self.contract_of is not None and in_host == observe_host:
                        continue  # footnote 7 pruning
                    in_contract = self._contract_for_arc(view, in_arc)
                    if (in_arc, leader) in in_contract.rdeposits:
                        continue
                    chain_name, address = self._addr_for_arc(in_arc)
                    txs.append(
                        self.tx(
                            chain_name, address, "deposit_redemption_premium",
                            arc=in_arc, path_chain=extended,
                        )
                    )
                break
        return txs


class HedgedBrokerAlice(HedgedBrokerActorBase):
    """The broker: premiums, trades, unconditional key release."""

    def idle_until(self, rnd: int) -> int:
        # Timed steps open the premium and key phases; every other step
        # waits on contract state, which only an event changes.
        d = self.deadlines
        return next_of((d.trading_premium, d.hashkey_base), rnd)

    def on_round(self, rnd: int, view: WorldView) -> list[Transaction]:
        spec, d, txs = self.spec, self.deadlines, []
        ticket, coin = self.contracts(view)

        # Trading premiums once both escrow premiums are visible.
        if (
            rnd + 1 <= d.trading_premium
            and ticket.trading_premium_state == "absent"
            and ticket.escrow_premium_state == "held"
            and coin.escrow_premium_state == "held"
        ):
            txs.append(self.tx(spec.ticket_chain, self.ticket_addr, "deposit_trading_premium"))
            txs.append(self.tx(spec.coin_chain, self.coin_addr, "deposit_trading_premium"))

        # Redemption premium origination + forwarding.
        if d.trading_premium <= rnd < d.escrow:
            if self.name not in self.rpremium_done:
                if self._all_pre_premiums_present(view):
                    txs.extend(self._originate_rpremiums(view))
                else:
                    self.rpremium_done.add(self.name)
            txs.extend(self._forward_rpremiums(view))

        # Trade both contracts once both principals are escrowed.
        both_escrowed = (
            ticket.escrow_state == "escrowed" and coin.escrow_state == "escrowed"
        )
        if both_escrowed and not ticket.traded and rnd + 1 <= d.trade:
            if ticket.contract_activated and coin.contract_activated:
                txs.append(self.tx(spec.ticket_chain, self.ticket_addr, "trade"))
                txs.append(self.tx(spec.coin_chain, self.coin_addr, "trade"))

        # Redemption phase: always release (recovers deposits), and forward.
        if rnd >= d.hashkey_base:
            if not self.released_own:
                txs.extend(
                    self._release_own(
                        view,
                        [
                            (spec.ticket_chain, self.ticket_addr),
                            (spec.coin_chain, self.coin_addr),
                        ],
                    )
                )
            txs.extend(self._forward_keys(view))
        return txs


class HedgedBrokerEscrower(HedgedBrokerActorBase):
    """Bob or Carol: escrow premium, principal, guarded key release."""

    def __init__(self, name, keypair, spec, secret, addrs, deadlines, contract_of, side):
        super().__init__(name, keypair, spec, secret, addrs, deadlines, contract_of)
        self.side = side  # "ticket" for Bob, "coin" for Carol

    def idle_until(self, rnd: int) -> int:
        d = self.deadlines  # as the broker's, plus the escrow window
        return next_of((d.trading_premium, d.escrow - 1, d.hashkey_base), rnd)

    def _my_contract(self, view: WorldView):
        ticket, coin = self.contracts(view)
        return ticket if self.side == "ticket" else coin

    def _my_chain_addr(self) -> tuple[str, str]:
        if self.side == "ticket":
            return (self.spec.ticket_chain, self.ticket_addr)
        return (self.spec.coin_chain, self.coin_addr)

    def on_round(self, rnd: int, view: WorldView) -> list[Transaction]:
        d, txs = self.deadlines, []
        ticket, coin = self.contracts(view)
        mine = self._my_contract(view)
        chain_name, address = self._my_chain_addr()

        # Phase 1: my escrow premium, immediately.
        if rnd == 0 and mine.escrow_premium_state == "absent":
            txs.append(self.tx(chain_name, address, "deposit_escrow_premium"))

        # Phases 2-3 premium flow.
        if d.trading_premium <= rnd < d.escrow:
            if self.name not in self.rpremium_done:
                if self._all_pre_premiums_present(view):
                    txs.extend(self._originate_rpremiums(view))
                else:
                    self.rpremium_done.add(self.name)
            txs.extend(self._forward_rpremiums(view))

        # Escrow my principal once my contract's premium structure is live.
        if (
            d.escrow - 1 <= rnd < d.trade
            and mine.escrow_state == "absent"
            and mine.contract_activated
        ):
            txs.append(self.tx(chain_name, address, "escrow_asset"))

        # Redemption phase: guarded release + forwarding.  Release when both
        # trades landed (happy path) or when my asset was never locked
        # (recovering premium deposits is then free); withhold when my asset
        # sits escrowed without both trades — the Lemma-3 rule that turns
        # the counterparties' redemption premiums into my compensation.
        if rnd >= d.hashkey_base:
            both_traded = ticket.traded and coin.traded
            safe = both_traded or mine.escrowed_at is None
            if safe and not self.released_own:
                # Present my own key on my incoming arc's contract (the
                # *other* asset's contract, where I am the trading redeemer).
                other_chain, other_addr = (
                    (self.spec.coin_chain, self.coin_addr)
                    if self.side == "ticket"
                    else (self.spec.ticket_chain, self.ticket_addr)
                )
                txs.extend(self._release_own(view, [(other_chain, other_addr)]))
            txs.extend(self._forward_keys(view))
        return txs


@dataclass
class BrokerOutcome:
    """Condensed result of a broker run."""

    premium: int
    premium_net: dict[str, int]
    tickets_delta: dict[str, int]
    coins_delta: dict[str, int]
    ticket_state: str
    coin_state: str
    traded: tuple[bool, bool]

    @property
    def completed(self) -> bool:
        return self.ticket_state == "redeemed" and self.coin_state == "redeemed"


def extract_broker_outcome(instance: ProtocolInstance, result: RunResult) -> BrokerOutcome:
    spec: BrokerSpec = instance.meta["spec"]
    payoffs = result.payoffs
    assert payoffs is not None
    ticket = instance.contract("ticket")
    coin = instance.contract("coin")
    ticket_asset = instance.world.chain(spec.ticket_chain).asset(spec.ticket_token)
    coin_asset = instance.world.chain(spec.coin_chain).asset(spec.coin_token)
    parties = (spec.broker, spec.seller, spec.buyer)
    return BrokerOutcome(
        premium=int(instance.meta.get("premium", 0)),
        premium_net={p: payoffs.premium_net(p) for p in parties},
        tickets_delta={p: payoffs.delta(p).get(ticket_asset, 0) for p in parties},
        coins_delta={p: payoffs.delta(p).get(coin_asset, 0) for p in parties},
        ticket_state=ticket.escrow_state,
        coin_state=coin.escrow_state,
        traded=(ticket.traded, coin.traded),
    )


class HedgedBrokerDeal:
    """Builder for the hedged §8.2 broker protocol."""

    def __init__(
        self,
        spec: BrokerSpec | None = None,
        premium: int = 1,
        optimize: bool = True,
        secrets: dict[str, Secret] | None = None,
    ) -> None:
        self.spec = spec or BrokerSpec()
        self.premium = premium
        self.optimize = optimize
        parties = (self.spec.broker, self.spec.seller, self.spec.buyer)
        self.secrets = secrets or {p: Secret.generate(f"{p}-secret") for p in parties}

    def build(self) -> ProtocolInstance:
        spec, p = self.spec, self.premium
        graph = spec.graph()
        a, b, c = spec.broker, spec.seller, spec.buyer
        tables = broker_premium_tables(spec, p, self.optimize)
        trading = tables["trading"]
        escrow = tables["escrow"]
        required = tables["required_keys"]
        contract_of = tables["contract_of"]

        world = World([spec.ticket_chain, spec.coin_chain])
        keys = {name: world.register_party(name) for name in (a, b, c)}
        world.fund(spec.ticket_chain, b, spec.ticket_token, spec.tickets)
        world.fund(spec.coin_chain, c, spec.coin_token, spec.buyer_price)
        # Native funding: generous bound (all premiums both chains).
        bound = 4 * (sum(trading.values()) + sum(escrow.values())) + 16 * p
        for chain_name in (spec.ticket_chain, spec.coin_chain):
            for name in (a, b, c):
                world.fund(chain_name, name, "native", bound)

        hashlocks = {name: self.secrets[name].hashlock for name in (a, b, c)}
        deadlines = BrokerDeadlines.hedged()
        ticket_host = world.chain(spec.ticket_chain)
        coin_host = world.chain(spec.coin_chain)

        ticket_addr = ticket_host.deploy(
            HedgedBrokerContract(
                graph=graph,
                public_of=world.public_of,
                hashlocks=hashlocks,
                escrow_arc=(b, a),
                trading_arc=(a, c),
                asset=ticket_host.asset(spec.ticket_token),
                amount=spec.tickets,
                payouts=((c, spec.tickets),),
                deadlines=deadlines,
                premium=p,
                escrow_premium_amount=escrow[(b, a)],
                trading_premium_amount=trading[(a, c)],
                required_keys=required,
                contract_of=contract_of,
            )
        )
        coin_addr = coin_host.deploy(
            HedgedBrokerContract(
                graph=graph,
                public_of=world.public_of,
                hashlocks=hashlocks,
                escrow_arc=(c, a),
                trading_arc=(a, b),
                asset=coin_host.asset(spec.coin_token),
                amount=spec.buyer_price,
                payouts=((b, spec.seller_price), (a, spec.markup)),
                deadlines=deadlines,
                premium=p,
                escrow_premium_amount=escrow[(c, a)],
                trading_premium_amount=trading[(a, b)],
                required_keys=required,
                contract_of=contract_of,
            )
        )

        addrs = (ticket_addr, coin_addr)
        actors = {
            a: HedgedBrokerAlice(
                a, keys[a], spec, self.secrets[a], addrs, deadlines, contract_of
            ),
            b: HedgedBrokerEscrower(
                b, keys[b], spec, self.secrets[b], addrs, deadlines, contract_of, "ticket"
            ),
            c: HedgedBrokerEscrower(
                c, keys[c], spec, self.secrets[c], addrs, deadlines, contract_of, "coin"
            ),
        }
        return ProtocolInstance(
            world=world,
            actors=actors,
            horizon=deadlines.horizon,
            contracts={
                "ticket": (spec.ticket_chain, ticket_addr),
                "coin": (spec.coin_chain, coin_addr),
            },
            meta={
                "spec": spec,
                "graph": graph,
                "deadlines": deadlines,
                "premium": p,
                "tables": tables,
            },
        )
