"""Unit tests for Equations 1 and 2 and the premium flow machinery."""

import pytest

from repro.core.premiums import (
    escrow_premium_amounts,
    leader_redemption_total,
    path_member_sets,
    premium_plan,
    pruned_redemption_premium_amount,
    redemption_premium_amount,
    redemption_premium_flow,
    redemption_premium_table,
    required_redemption_keys,
    worst_case_leader_premium,
    worst_case_redemption_amount,
)
from repro.errors import GraphError
from repro.graph.digraph import ArcSpec, SwapGraph, complete_graph, figure3_graph, ring_graph


# ----------------------------------------------------------------------
# Equation 1 on Figure 3a (hand-computed values)
# ----------------------------------------------------------------------
def test_eq1_leader_origination_amounts(fig3):
    # A's deposit on (B,A): beneficiary B passes through to (A,B) only -> 2p
    assert redemption_premium_amount(fig3, ("A",), "B", 1) == 2
    # A's deposit on (C,A): C passes to (B,C), B to (A,B) -> 3p
    assert redemption_premium_amount(fig3, ("A",), "C", 1) == 3


def test_eq1_passthrough_amounts(fig3):
    # B's deposit on (A,B) with path (B,A): beneficiary A on the path -> p
    assert redemption_premium_amount(fig3, ("B", "A"), "A", 1) == 1
    # C's deposit on (B,C) with path (C,A): B passes to (A,B) -> 2p
    assert redemption_premium_amount(fig3, ("C", "A"), "B", 1) == 2


def test_eq1_scales_linearly_in_p(fig3):
    assert redemption_premium_amount(fig3, ("A",), "C", 5) == 15


def test_eq1_rejects_non_paths(fig3):
    with pytest.raises(GraphError):
        redemption_premium_amount(fig3, ("C", "B"), "A", 1)
    with pytest.raises(GraphError):
        redemption_premium_amount(fig3, (), "A", 1)


def test_leader_total_figure3(fig3):
    assert leader_redemption_total(fig3, "A", 1) == 5


def test_redemption_table_covers_all_paths(fig3):
    table = redemption_premium_table(fig3, "A", 1)
    assert table[("A", "B")] == {("B", "A"): 1, ("B", "C", "A"): 1}
    assert table[("C", "A")] == {("A",): 3}


# ----------------------------------------------------------------------
# Equation 2 on Figure 3a
# ----------------------------------------------------------------------
def test_eq2_figure3(fig3):
    premiums = escrow_premium_amounts(fig3, ("A",), 1)
    assert premiums == {
        ("B", "A"): 5,  # enters the leader: R(A)
        ("C", "A"): 5,
        ("B", "C"): 5,  # enters follower C: covers E(C,A)
        ("A", "B"): 10,  # enters follower B: covers E(B,A) + E(B,C)
    }


def test_eq2_requires_fvs(fig3):
    with pytest.raises(GraphError):
        escrow_premium_amounts(fig3, ("C",), 1)


def test_ring_premiums_linear():
    """Unique paths: leader premium grows linearly with n (§7.1)."""
    totals = [leader_redemption_total(ring_graph(n), "P0", 1) for n in range(2, 7)]
    assert totals == [n for n in range(2, 7)]
    diffs = [b - a for a, b in zip(totals, totals[1:])]
    assert all(d == diffs[0] for d in diffs)


def test_complete_premiums_superlinear():
    """Complete digraphs: worst-case leader premium grows exponentially."""
    leaders = {n: tuple(f"P{i}" for i in range(n - 1)) for n in (3, 4, 5)}
    totals = [
        worst_case_leader_premium(complete_graph(n), leaders[n], 1) for n in (3, 4, 5)
    ]
    assert totals[0] < totals[1] < totals[2]
    # growth ratio increases (super-linear growth)
    assert totals[2] / totals[1] > totals[1] / totals[0]


# ----------------------------------------------------------------------
# pruned (footnote 7) variants and the flow simulation
# ----------------------------------------------------------------------
@pytest.fixture
def broker_graph():
    arcs = [("B", "A"), ("C", "A"), ("A", "B"), ("A", "C")]
    specs = {a: ArcSpec("x", "t", 1) for a in arcs}
    graph = SwapGraph(("A", "B", "C"), tuple(arcs), specs)
    contract_of = {
        ("B", "A"): "ticket",
        ("A", "C"): "ticket",
        ("C", "A"): "coin",
        ("A", "B"): "coin",
    }
    return graph, contract_of


def test_pruned_amount_matches_footnote7(broker_graph):
    graph, contract_of = broker_graph
    # unpruned: B's origination on (A,B) costs 4p (A forwards to both arcs)
    assert pruned_redemption_premium_amount(graph, ("B",), "A", 1, None) == 4
    # pruned: forwarding to (C,A) shares the coin contract -> 2p
    assert pruned_redemption_premium_amount(graph, ("B",), "A", 1, contract_of) == 2


def test_pruned_none_equals_eq1(fig3):
    for path, beneficiary in [(("A",), "B"), (("A",), "C"), (("C", "A"), "B")]:
        assert pruned_redemption_premium_amount(
            fig3, path, beneficiary, 3, None
        ) == redemption_premium_amount(fig3, path, beneficiary, 3)


def test_flow_simulation_unpruned_covers_all_arcs(broker_graph):
    graph, _ = broker_graph
    flow = redemption_premium_flow(graph, ("A", "B", "C"), 1)
    per_leader = {leader: {d.arc for d in flow if d.leader == leader} for leader in "ABC"}
    # unpruned: every leader's premium reaches every arc
    for leader, arcs in per_leader.items():
        assert arcs == set(graph.arcs)


def test_flow_simulation_pruned_required_sets(broker_graph):
    graph, contract_of = broker_graph
    required = required_redemption_keys(graph, ("A", "B", "C"), contract_of)
    assert required[("B", "A")] == frozenset({"A", "B"})
    assert required[("A", "C")] == frozenset({"A", "C"})
    assert required[("C", "A")] == frozenset({"A", "C"})
    assert required[("A", "B")] == frozenset({"A", "B"})


def test_flow_rounds_are_consistent(fig3):
    """Deposits happen one round after the premium they extend."""
    flow = redemption_premium_flow(fig3, ("A",), 1)
    by_arc = {d.arc: d for d in flow}
    assert by_arc[("B", "A")].round == 0  # leader origination
    assert by_arc[("B", "C")].round == 1  # C extends
    assert by_arc[("A", "B")].round == 1  # B extends
    assert by_arc[("B", "C")].path == ("C", "A")


def test_flow_amounts_match_eq1(fig3):
    for deposit in redemption_premium_flow(fig3, ("A",), 2):
        expected = redemption_premium_amount(fig3, deposit.path, deposit.arc[0], 2)
        assert deposit.amount == expected


# ----------------------------------------------------------------------
# Equation-1 memoization (the complete:6 enabler)
# ----------------------------------------------------------------------
def test_eq1_amount_depends_only_on_path_membership():
    """The memo key is (member set, beneficiary, p): two paths with the
    same vertex set must price identically — the invariant the shared
    cache relies on."""
    from repro.graph.digraph import complete_graph

    graph = complete_graph(4)
    a = redemption_premium_amount(graph, ("P1", "P2", "P0"), "P3", 2)
    b = redemption_premium_amount(graph, ("P2", "P1", "P0"), "P3", 2)
    assert a == b


def test_eq1_plan_is_per_graph_and_p_free():
    from repro.graph.digraph import complete_graph

    graph = complete_graph(4)
    one = redemption_premium_amount(graph, ("P1", "P0"), "P2", 1)
    entries = dict(premium_plan(graph).redemption)
    assert entries  # populated, at p = 1
    assert redemption_premium_amount(graph, ("P1", "P0"), "P2", 3) == 3 * one
    assert premium_plan(graph).redemption == entries  # no entry per premium
    fresh = complete_graph(4)
    assert "_premium_plan" not in fresh.__dict__  # never shared


def test_complete6_premium_sizing_is_feasible_and_consistent():
    import time

    from repro.graph.digraph import complete_graph

    graph = complete_graph(6)
    leaders = tuple(sorted(graph.parties)[:-1])  # n-1 leaders for a clique
    start = time.perf_counter()
    escrow = escrow_premium_amounts(graph, leaders, 1)
    worst = max(
        redemption_premium_amount(graph, q, u, 1)
        for (u, v) in graph.arcs
        for leader in leaders
        for q in graph.simple_paths(v, leader)
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0  # exponential pre-memo, ~ms now
    assert len(escrow) == 30 and all(v > 0 for v in escrow.values())
    assert worst > 1


# ----------------------------------------------------------------------
# member-subset worst-case enumeration (perf satellite, ISSUE 4)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "graph_fn",
    [figure3_graph, lambda: ring_graph(5), lambda: complete_graph(4),
     lambda: complete_graph(5)],
)
def test_path_member_sets_match_simple_path_vertex_sets(graph_fn):
    graph = graph_fn()
    for source in graph.parties:
        for target in graph.parties:
            expected = {frozenset(q) for q in graph.simple_paths(source, target)}
            assert set(path_member_sets(graph, source, target)) == expected


@pytest.mark.parametrize(
    "graph_fn",
    [figure3_graph, lambda: ring_graph(5), lambda: complete_graph(5)],
)
@pytest.mark.parametrize("p", [1, 3])
def test_worst_case_amount_equals_path_enumeration_max(graph_fn, p):
    graph = graph_fn()
    for (u, v) in graph.arcs:
        for leader in graph.parties:
            by_paths = max(
                (
                    redemption_premium_amount(graph, q, u, p)
                    for q in graph.simple_paths(v, leader)
                ),
                default=0,
            )
            assert worst_case_redemption_amount(graph, v, u, leader, p) == by_paths


def test_worst_case_amount_unreachable_target_is_zero():
    graph = SwapGraph.build(
        ["A", "B", "C"], [("A", "B"), ("B", "A"), ("B", "C"), ("C", "A")]
    )
    # no forward path from A to ... itself-only cases: A -> A is trivial
    assert path_member_sets(graph, "A", "A") == (frozenset({"A"}),)
    # C has no arc into B: paths C->B must route via A
    assert all("A" in s for s in path_member_sets(graph, "C", "B"))


def test_complete8_builds_fast_enough_for_campaigns():
    import time

    from repro.core.hedged_multi_party import HedgedMultiPartySwap

    start = time.perf_counter()
    instance = HedgedMultiPartySwap(graph=complete_graph(8), premium=1).build()
    elapsed = time.perf_counter() - start
    # ~4 s before the member-subset enumeration, ~0.1 s after; the loose
    # bound only guards against regressing to path enumeration
    assert elapsed < 2.0
    assert instance.horizon > 0


def test_complete7_and_complete8_join_the_default_multi_party_family():
    from itertools import islice

    from repro.campaign import default_matrix, run_scenario

    matrix = default_matrix(families=["multi-party"])
    schedules = {block.schedule for block in matrix.blocks}
    assert {"complete7/p1", "complete8/p1"} <= schedules
    complete8 = (
        scenario
        for scenario in matrix.scenarios()
        if ("schedule", "complete8/p1") in scenario.axes
    )
    results = [run_scenario(scenario) for scenario in islice(complete8, 3)]
    assert len(results) == 3
    assert all(result.ok for result in results)


def test_complete6_joins_the_default_multi_party_family():
    from itertools import islice

    from repro.campaign import default_matrix, run_scenario

    matrix = default_matrix(families=["multi-party"])
    schedules = {block.schedule for block in matrix.blocks}
    assert "complete6/p1" in schedules
    complete6 = (
        scenario
        for scenario in matrix.scenarios()
        if ("schedule", "complete6/p1") in scenario.axes
    )
    results = [run_scenario(scenario) for scenario in islice(complete6, 8)]
    assert len(results) == 8
    assert all(result.ok for result in results)


# ----------------------------------------------------------------------
# shared-graph memos: per-deal invariants computed once per graph
# ----------------------------------------------------------------------
def _genesis_balances(instance) -> str:
    """Every funded balance of a freshly built instance, canonically."""
    return repr(
        sorted(
            (name, str(asset), account, amount)
            for name, chain in instance.world.chains.items()
            for (asset, account), amount in chain.ledger.snapshot().items()
        )
    )


@pytest.mark.parametrize(
    "graph_fn",
    [figure3_graph, lambda: ring_graph(5), lambda: complete_graph(5)],
)
def test_second_build_on_a_shared_graph_adds_no_memo_entries(graph_fn):
    from repro.core.hedged_multi_party import HedgedMultiPartySwap

    graph = graph_fn()
    first = HedgedMultiPartySwap(graph=graph, premium=2).build()
    plan = premium_plan(graph)
    sizes = plan.sizes()
    assert all(sizes.values()), sizes
    states = plan.search_states
    second = HedgedMultiPartySwap(graph=graph, premium=2).build()
    other = HedgedMultiPartySwap(graph=graph, premium=7).build()
    # neither a repeat nor another premium adds an entry or a search
    assert premium_plan(graph) is plan
    assert plan.sizes() == sizes and plan.search_states == states
    assert second.meta["graph"] is first.meta["graph"] is graph
    assert {arc: 2 * amount for arc, amount in other.meta["escrow_premiums"].items()} == {
        arc: 7 * amount for arc, amount in first.meta["escrow_premiums"].items()
    }

    fresh_graph = graph_fn()
    fresh = HedgedMultiPartySwap(graph=fresh_graph, premium=2).build()
    assert premium_plan(fresh_graph) is not plan
    assert premium_plan(fresh_graph).sizes() == sizes
    assert "native" in _genesis_balances(second)
    assert _genesis_balances(second) == _genesis_balances(fresh)


def test_plan_amounts_scale_exactly_with_the_premium():
    graph = complete_graph(4)
    one = worst_case_redemption_amount(graph, "P1", "P2", "P0", 1)
    plan = premium_plan(graph)
    entries = dict(plan.worst)
    assert entries[("P1", "P2", "P0")] == one
    for p in (0, 2, 7, 100):
        assert worst_case_redemption_amount(graph, "P1", "P2", "P0", p) == p * one
    # every premium reads the one p = 1 entry
    assert plan.worst == entries
    fresh = complete_graph(4)
    assert worst_case_redemption_amount(fresh, "P1", "P2", "P0", 2) == 2 * one
    assert premium_plan(fresh) is not plan


def test_default_leaders_are_derived_once_per_graph(monkeypatch):
    """Every construction over one graph reads the leaders the first one
    derived; a fresh graph derives its own."""
    from repro.core import premiums
    from repro.core.hedged_multi_party import HedgedMultiPartySwap

    derived = []
    search = premiums.minimum_feedback_vertex_set
    monkeypatch.setattr(
        premiums,
        "minimum_feedback_vertex_set",
        lambda graph: derived.append(graph) or search(graph),
    )
    graph = complete_graph(5)
    first = HedgedMultiPartySwap(graph=graph)
    second = HedgedMultiPartySwap(graph=graph, premium=3)
    assert derived == [graph]
    assert first.leaders == second.leaders == search(graph)
    HedgedMultiPartySwap(graph=complete_graph(5))
    assert len(derived) == 2


def test_worst_case_refuses_a_negative_premium():
    """The maximum over member sets does not commute with a negative
    scale, so a negative premium is refused rather than mis-sized."""
    with pytest.raises(GraphError):
        worst_case_redemption_amount(complete_graph(4), "P1", "P2", "P0", -1)


def test_default_multi_party_blocks_share_one_graph_per_block():
    from repro.campaign import default_matrix

    matrix = default_matrix(families=["multi-party"])
    graphs = []
    for block in matrix.blocks:
        graph = block.builder().meta["graph"]
        assert block.builder().meta["graph"] is graph, block.schedule
        graphs.append(graph)
    # one graph per block, never one per matrix
    assert len({id(g) for g in graphs}) == len(matrix.blocks)


def test_parse_graph_family_shares_one_graph_per_name():
    from repro.campaign.ablation.grid import parse_graph_family

    for family in ("figure3", "ring:4", "complete:4"):
        assert parse_graph_family(family) is parse_graph_family(family)
    assert parse_graph_family("ring:4")[0] is not parse_graph_family("ring:5")[0]
    assert parse_graph_family("ring:x") is None
