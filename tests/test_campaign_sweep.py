"""Deviation-point sweep: the paper's exact compensation at EVERY round.

The paper's quantitative claim is that a sore-loser abort at *any* protocol
step leaves every compliant party compensated by the matching premium.
These tests drive a halt at every round of the two-party (§5.2),
multi-party (§7.1), and broker (§8.2) protocols through the
:class:`ScenarioMatrix` and pin the exact premium transfers:

- two-party: Bob reneging after Alice escrows costs him exactly ``p_b``
  (paid to Alice); Alice reneging after Bob escrows costs her a net ``p_a``
  (she forfeits ``p_a + p_b`` and recovers ``p_b``),
- multi-party / broker: the per-round flows of the figure-3 graph and the
  default brokered deal, plus the invariants behind them — premium flows
  are zero-sum, deviating is never profitable, and every compliant party
  meets its lemma bound.
"""

import pytest

from repro.campaign import CampaignRunner, ScenarioMatrix
from repro.checker import halt_strategies, properties
from repro.core.hedged_broker import HedgedBrokerDeal
from repro.core.hedged_multi_party import HedgedMultiPartySwap
from repro.core.hedged_two_party import HedgedTwoPartySwap


def halt_sweep(builder, props, parties, horizon):
    """Every (party, halt round) scenario for one protocol, via the matrix."""
    matrix = ScenarioMatrix()
    matrix.add_block(
        family="sweep",
        schedule="halt",
        builder=builder,
        builder_id="sweep",
        properties=props,
        strategies={p: halt_strategies(horizon) for p in parties},
        max_adversaries=1,
        include_compliant=False,
    )
    report = CampaignRunner(matrix).run()
    assert report.ok, [f"{v.scenario}: {v.message}" for v in report.violations]
    table = {}
    for result in report.results:
        axes = dict(result.axes)
        table[(axes["adversaries"], int(axes["round"]))] = dict(result.premium_net)
    return table


def expand(rows):
    """{(party, (lo, hi)): nets} → {(party, round): nets}."""
    out = {}
    for (party, (lo, hi)), nets in rows.items():
        for rnd in range(lo, hi + 1):
            out[(party, rnd)] = nets
    return out


# ----------------------------------------------------------------------
# two-party (§5.2): p_a = 2 compensates Bob, p_b = 1 compensates Alice
# ----------------------------------------------------------------------
TWO_PARTY_EXPECTED = expand({
    # Before Alice escrows (rounds 0-1) nothing is at risk: all refunds.
    ("Bob", (0, 1)): {"Alice": 0, "Bob": 0},
    # Bob reneges while Alice's principal is escrowed: he pays her p_b = 1.
    ("Bob", (2, 5)): {"Alice": 1, "Bob": -1},
    # Halting after his last required action is not a deviation that bites.
    ("Bob", (6, 7)): {"Alice": 0, "Bob": 0},
    # Alice halting before escrowing anything costs no one anything.
    ("Alice", (0, 2)): {"Alice": 0, "Bob": 0},
    # Alice reneges after Bob escrows: she forfeits p_a + p_b = 3 and
    # recovers p_b = 1 — a net transfer of p_a = 2 to Bob.
    ("Alice", (3, 4)): {"Alice": -2, "Bob": 2},
    # From round 5 on she has already redeemed; the swap completes.
    ("Alice", (5, 7)): {"Alice": 0, "Bob": 0},
})


def test_two_party_compensation_at_every_deviation_round():
    table = halt_sweep(
        builder=lambda: HedgedTwoPartySwap().build(),
        props=(properties.no_stuck_escrow, properties.two_party_hedged),
        parties=("Alice", "Bob"),
        horizon=8,
    )
    assert len(table) == 16
    for key, nets in TWO_PARTY_EXPECTED.items():
        assert table[key] == nets, f"{key}: {table[key]} != {nets}"


# ----------------------------------------------------------------------
# multi-party (§7.1): figure-3 graph, premium p = 1, horizon 13
# ----------------------------------------------------------------------
MULTI_PARTY_EXPECTED = expand({
    # The leader halting before Phase 3 just truncates the run (Lemma 5).
    ("A", (0, 3)): {"A": 0, "B": 0, "C": 0},
    # A escrowed on (A,B) and (A,C) then withheld its hashkey: the
    # redemption premiums on both arcs (sized by Equation 1) compensate.
    ("A", (4, 9)): {"A": -4, "B": 3, "C": 1},
    ("A", (10, 12)): {"A": 0, "B": 0, "C": 0},
    ("B", (0, 1)): {"A": 0, "B": 0, "C": 0},
    # B reneges during premium distribution: its escrow premium E(B, v) is
    # forfeited to the blocked counterparty (Lemma 2).
    ("B", (2, 4)): {"A": 10, "B": -10, "C": 0},
    ("B", (5, 7)): {"A": 6, "B": -7, "C": 1},
    ("B", (8, 10)): {"A": 1, "B": -1, "C": 0},
    ("B", (11, 12)): {"A": 0, "B": 0, "C": 0},
    ("C", (0, 2)): {"A": 0, "B": 0, "C": 0},
    ("C", (3, 4)): {"A": 1, "B": 1, "C": -2},
    ("C", (5, 8)): {"A": 1, "B": 3, "C": -4},
    ("C", (9, 10)): {"A": 0, "B": 2, "C": -2},
    ("C", (11, 12)): {"A": 0, "B": 0, "C": 0},
})


def test_multi_party_compensation_at_every_deviation_round():
    horizon = HedgedMultiPartySwap().build().horizon
    assert horizon == 13
    table = halt_sweep(
        builder=lambda: HedgedMultiPartySwap().build(),
        props=(properties.no_stuck_escrow, properties.multi_party_lemmas),
        parties=("A", "B", "C"),
        horizon=horizon,
    )
    assert len(table) == 3 * horizon
    for key, nets in MULTI_PARTY_EXPECTED.items():
        assert table[key] == nets, f"{key}: {table[key]} != {nets}"


# ----------------------------------------------------------------------
# broker (§8.2): default deal, premium p = 1, horizon 12
# ----------------------------------------------------------------------
BROKER_EXPECTED = expand({
    ("Alice", (0, 2)): {"Alice": 0, "Bob": 0, "Carol": 0},
    # The broker walks after posting trading premiums: they are forfeited
    # to the escrowers she blocked (T(A,B) + T(A,C) split).
    ("Alice", (3, 3)): {"Alice": -2, "Bob": 1, "Carol": 1},
    # She walks after both principals are locked: every redemption premium
    # she and the escrowers staked on her keys becomes compensation.
    ("Alice", (4, 6)): {"Alice": -8, "Bob": 4, "Carol": 4},
    ("Alice", (7, 7)): {"Alice": -6, "Bob": 3, "Carol": 3},
    ("Alice", (8, 8)): {"Alice": -2, "Bob": 1, "Carol": 1},
    ("Alice", (9, 11)): {"Alice": 0, "Bob": 0, "Carol": 0},
    ("Bob", (0, 2)): {"Alice": 0, "Bob": 0, "Carol": 0},
    # The seller blocks the deal mid-premium-phase: his escrow premium
    # E(B, A) = T(A) reimburses Alice's passthrough, Carol her deposits.
    ("Bob", (3, 3)): {"Alice": 3, "Bob": -5, "Carol": 2},
    ("Bob", (4, 5)): {"Alice": 1, "Bob": -3, "Carol": 2},
    ("Bob", (6, 7)): {"Alice": 0, "Bob": -1, "Carol": 1},
    # From round 8 Bob's remaining actions are already done: deal completes.
    ("Bob", (8, 11)): {"Alice": 0, "Bob": 0, "Carol": 0},
    ("Carol", (0, 2)): {"Alice": 0, "Bob": 0, "Carol": 0},
    ("Carol", (3, 3)): {"Alice": 3, "Bob": 2, "Carol": -5},
    ("Carol", (4, 5)): {"Alice": 1, "Bob": 2, "Carol": -3},
    ("Carol", (6, 7)): {"Alice": 0, "Bob": 1, "Carol": -1},
    ("Carol", (8, 11)): {"Alice": 0, "Bob": 0, "Carol": 0},
})


def test_broker_compensation_at_every_deviation_round():
    horizon = HedgedBrokerDeal().build().horizon
    assert horizon == 12
    table = halt_sweep(
        builder=lambda: HedgedBrokerDeal().build(),
        props=(properties.no_stuck_escrow, properties.broker_bounds),
        parties=("Alice", "Bob", "Carol"),
        horizon=horizon,
    )
    assert len(table) == 3 * horizon
    for key, nets in BROKER_EXPECTED.items():
        assert table[key] == nets, f"{key}: {table[key]} != {nets}"


# ----------------------------------------------------------------------
# cross-cutting invariants behind the exact tables
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "builder,parties,horizon",
    [
        (lambda: HedgedTwoPartySwap().build(), ("Alice", "Bob"), 8),
        (lambda: HedgedMultiPartySwap().build(), ("A", "B", "C"), 13),
        (lambda: HedgedBrokerDeal().build(), ("Alice", "Bob", "Carol"), 12),
    ],
    ids=["two-party", "multi-party", "broker"],
)
def test_premiums_zero_sum_and_deviation_never_profits(builder, parties, horizon):
    table = halt_sweep(builder, (properties.no_stuck_escrow,), parties, horizon)
    for (adversary, rnd), nets in table.items():
        assert sum(nets.values()) == 0, f"{adversary}@{rnd}: flows not zero-sum"
        assert nets[adversary] <= 0, f"{adversary}@{rnd}: deviation profited"
        for party, net in nets.items():
            if party != adversary:
                assert net >= 0, f"{adversary}@{rnd}: compliant {party} paid {net}"
