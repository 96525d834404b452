"""Equations 1–2 edge cases: multi-leader graphs, base cases, scale, depth.

The quote engine leans on the premium recurrences in corners the
original §7.1 walkthrough never exercises: graphs whose minimum feedback
vertex set has several leaders, beneficiaries already on the premium
path, dense graphs where only the member-subset memo keeps Equation 1
tractable, and rings long enough that a recursive evaluation would
exhaust the interpreter's recursion limit.  These tests pin that
territory.
"""

import random

import pytest

from repro.core.premiums import (
    escrow_premium_amounts,
    leader_redemption_total,
    premium_plan,
    pruned_redemption_premium_amount,
    redemption_premium_amount,
    redemption_premium_flow,
)
from repro.errors import GraphError
from repro.graph.digraph import SwapGraph, complete_graph, figure3_graph, ring_graph
from repro.graph.feedback import (
    is_feedback_vertex_set,
    minimum_feedback_vertex_set,
)


# ----------------------------------------------------------------------
# multi-leader graphs
# ----------------------------------------------------------------------
class TestMultiLeader:
    def test_ring4_with_two_leaders(self):
        """{P0, P2} is a (non-minimum) feedback vertex set of the 4-ring:
        both equations stay well-defined with the extra leader."""
        graph = ring_graph(4)
        leaders = ("P0", "P2")
        assert is_feedback_vertex_set(graph, frozenset(leaders))
        escrow = escrow_premium_amounts(graph, leaders, 1)
        # each arc into a leader carries that leader's redemption total;
        # each arc into a follower covers the follower's outgoing escrows
        for (u, v), amount in escrow.items():
            if v in leaders:
                assert amount == leader_redemption_total(graph, v, 1)
            else:
                assert amount == sum(
                    escrow[arc] for arc in graph.out_arcs(v)
                )

    def test_ring4_two_leader_flow_covers_both_origins(self):
        graph = ring_graph(4)
        deposits = redemption_premium_flow(graph, ("P0", "P2"), 3)
        by_leader = {}
        for deposit in deposits:
            by_leader.setdefault(deposit.leader, []).append(deposit)
        assert set(by_leader) == {"P0", "P2"}
        for leader, flow in by_leader.items():
            # round 0 is the leader's own origination on its in-arcs
            origin = [d for d in flow if d.round == 0]
            assert all(d.depositor == leader for d in origin)
            assert all(d.path == (leader,) for d in origin)
            # each leader's premium propagates independently around the
            # whole ring: one deposit per arc, paths ending at the leader
            assert {d.arc for d in flow} == set(graph.arcs)
            assert all(d.path[-1] == leader for d in flow)

    def test_complete4_minimum_fvs_is_multi_leader(self):
        """A complete digraph needs n-1 leaders (any two survivors form
        a 2-cycle) — the densest multi-leader configuration we quote."""
        graph = complete_graph(4)
        leaders = minimum_feedback_vertex_set(graph)
        assert len(leaders) == 3
        escrow = escrow_premium_amounts(graph, leaders, 1)
        assert set(escrow) == set(graph.arcs)
        assert all(amount >= 1 for amount in escrow.values())

    def test_non_fvs_leader_set_rejected(self):
        with pytest.raises(GraphError):
            escrow_premium_amounts(complete_graph(4), ("P0",), 1)


# ----------------------------------------------------------------------
# Equation 1 base cases
# ----------------------------------------------------------------------
class TestBeneficiaryOnPath:
    def test_beneficiary_on_path_pays_exactly_p(self):
        """The paper's cycle clause: a beneficiary already on the path
        passes nothing through, for leaders and followers alike."""
        graph = ring_graph(3)
        # leader case: path ends at the leader
        assert redemption_premium_amount(graph, ("P1", "P2", "P0"), "P0", 7) == 7
        # follower case on a dense graph: P1 is mid-path, still just p
        dense = complete_graph(4)
        assert redemption_premium_amount(dense, ("P1", "P2", "P3"), "P3", 7) == 7
        assert redemption_premium_amount(dense, ("P1", "P2", "P3"), "P2", 7) == 7

    def test_amount_depends_only_on_path_members(self):
        """Equation 1's recursion tests path membership, never order —
        the member-subset memo's correctness condition."""
        dense = complete_graph(4)
        via_one = redemption_premium_amount(dense, ("P1", "P2", "P0"), "P3", 5)
        via_other = redemption_premium_amount(dense, ("P2", "P1", "P0"), "P3", 5)
        assert via_one == via_other

    def test_empty_and_broken_paths_rejected(self):
        graph = ring_graph(3)
        with pytest.raises(GraphError):
            redemption_premium_amount(graph, (), "P0", 1)
        with pytest.raises(GraphError):
            redemption_premium_amount(graph, ("P0", "P2"), "P1", 1)


# ----------------------------------------------------------------------
# complete:6 — exactness at memo-required scale
# ----------------------------------------------------------------------
class TestCompleteSixExactness:
    def test_integer_exactness_and_linearity(self):
        """complete:6 is intractable without the member-subset memo; with
        it, amounts stay exact integers and perfectly linear in p."""
        graph = complete_graph(6)
        leaders = minimum_feedback_vertex_set(graph)
        assert len(leaders) == 5
        unit = escrow_premium_amounts(graph, leaders, 1)
        scaled = escrow_premium_amounts(graph, leaders, 13)
        for arc, amount in unit.items():
            assert isinstance(amount, int)
            assert scaled[arc] == 13 * amount  # no float drift anywhere

    def test_memo_is_shared_across_calls(self):
        graph = complete_graph(6)
        two = redemption_premium_amount(graph, ("P5",), "P0", 2)
        memo = premium_plan(graph).redemption
        filled = len(memo)
        assert filled > 0
        # a second query over the same territory adds no new states, at
        # the same premium or another
        assert redemption_premium_amount(graph, ("P5",), "P0", 2) == two
        assert redemption_premium_amount(graph, ("P5",), "P0", 9) * 2 == two * 9
        assert len(memo) == filled
        # distinct graph instances never share entries
        other = complete_graph(6)
        assert "_premium_plan" not in other.__dict__

    def test_flow_is_deterministic_and_integral(self):
        graph = complete_graph(6)
        leaders = minimum_feedback_vertex_set(graph)
        first = redemption_premium_flow(graph, leaders, 3)
        second = redemption_premium_flow(graph, leaders, 3)
        assert first == second
        assert all(isinstance(d.amount, int) for d in first)
        assert all(d.depositor == d.path[0] for d in first)


# ----------------------------------------------------------------------
# deep rings: the recursions run as loops
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [5, 400])
def test_ring_sizing_is_linear_at_any_depth(n):
    """On a ring led by P0 every deposit chains through all n parties, so
    each escrow premium and the leader's total are exactly n·p."""
    graph = ring_graph(n)
    p = 3
    assert leader_redemption_total(graph, "P0", p) == n * p
    escrow = escrow_premium_amounts(graph, ("P0",), p)
    assert set(escrow.values()) == {n * p}
    # footnote-7 pruning with one contract per arc prunes nothing
    own = {arc: f"{arc[0]}>{arc[1]}" for arc in graph.arcs}
    assert pruned_redemption_premium_amount(graph, ("P0",), f"P{n - 1}", p, own) == n * p


def test_feedback_check_and_depths_on_a_1200_ring():
    graph = ring_graph(1200)
    assert is_feedback_vertex_set(graph, ("P0",))
    assert not is_feedback_vertex_set(graph, ())
    depths = graph.follower_depths(("P0",))
    assert depths["P0"] == 0 and depths["P1199"] == 1199


def test_analytic_hint_prices_a_199_ring():
    from repro.quote.analytic import analytic_pi_star_hint

    assert analytic_pi_star_hint("ring:199", 0.05) is not None


# ----------------------------------------------------------------------
# the loops agree with the recursions they replaced
# ----------------------------------------------------------------------
def _random_digraph(seed: int, n: int = 6) -> SwapGraph:
    """A strongly connected digraph: a ring plus random chords."""
    rng = random.Random(seed)
    parties = [f"P{i}" for i in range(n)]
    arcs = {(parties[i], parties[(i + 1) % n]) for i in range(n)}
    arcs |= {(u, v) for u in parties for v in parties if u != v and rng.random() < 0.3}
    return SwapGraph.build(parties, sorted(arcs))


GRAPHS = [figure3_graph(), ring_graph(5), complete_graph(5)] + [
    _random_digraph(seed) for seed in range(6)
]


def _recursive_equation1(graph, memo, members, u, p):
    if u in members:
        return p
    key = (members, u)
    if key not in memo:
        extended = members | {u}
        memo[key] = p + sum(
            _recursive_equation1(graph, memo, extended, x, p)
            for x in graph.in_neighbors(u)
        )
    return memo[key]


def _recursive_pruned(graph, contract_of, q, u, p):
    if u in q:
        return p
    observe = contract_of[(u, q[0])]
    return p + sum(
        _recursive_pruned(graph, contract_of, (u,) + q, x, p)
        for x in graph.in_neighbors(u)
        if contract_of[(x, u)] != observe
    )


@pytest.mark.parametrize("graph", GRAPHS, ids=range(len(GRAPHS)))
def test_equation1_memo_matches_the_recursion(graph):
    """Same amounts as the recursion at p = 2, and the very same plan
    entries as the recursion at p = 1."""
    reference: dict = {}
    for leader in graph.parties:
        for u in graph.in_neighbors(leader):
            expected = _recursive_equation1(graph, {}, frozenset((leader,)), u, 2)
            assert redemption_premium_amount(graph, (leader,), u, 2) == expected
            _recursive_equation1(graph, reference, frozenset((leader,)), u, 1)
    assert premium_plan(graph).redemption == reference


@pytest.mark.parametrize("graph", GRAPHS, ids=range(len(GRAPHS)))
def test_equation2_and_pruning_match_the_recursion(graph):
    p = 5
    leaders = minimum_feedback_vertex_set(graph)
    leader_set = frozenset(leaders)

    def need(v):
        if v in leader_set:
            return leader_redemption_total(graph, v, p)
        return sum(need(w) for w in graph.out_neighbors(v))

    escrow = escrow_premium_amounts(graph, leaders, p)
    assert escrow == {(u, v): need(v) for (u, v) in graph.arcs}
    # three shared contracts, so footnote 7 prunes some forwarding steps
    contract_of = {arc: f"c{i % 3}" for i, arc in enumerate(graph.arcs)}
    for leader in leaders:
        for u in graph.in_neighbors(leader):
            assert pruned_redemption_premium_amount(
                graph, (leader,), u, p, contract_of
            ) == _recursive_pruned(graph, contract_of, (leader,), u, p)
