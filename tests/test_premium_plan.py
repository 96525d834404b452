"""The premium plan against brute force.

The plan evaluates Equations 1–2 once per graph at ``p = 1`` and takes
each worst-case deposit over inclusion-minimal path member sets only.
The oracle here does neither: it unrolls Equation 1 over explicit paths
at the premium asked for, takes the worst case over every simple path,
and sums Equation 2 from those amounts.  Every premium of
:data:`PREMIUMS` is checked on every premium-sizing graph of
``tests/test_premiums_edges.py`` and on small strongly connected
digraphs drawn by Hypothesis.
"""

from collections import Counter
from graphlib import TopologicalSorter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hedged_multi_party import HedgedMultiPartySwap
from repro.core.premiums import (
    escrow_premium_amounts,
    minimal_path_member_sets,
    path_member_sets,
    premium_plan,
    redemption_premium_amount,
    unit_redemption_amount,
    worst_case_funding,
    worst_case_redemption_amount,
)
from repro.graph.digraph import SwapGraph, complete_graph, ring_graph
from repro.errors import GraphError, ProtocolError
from repro.graph import schedule as schedule_module
from repro.graph.feedback import minimum_feedback_vertex_set
from repro.protocols.base_multi_party import BaseMultiPartySwap

from test_premiums_edges import GRAPHS as EDGE_GRAPHS

PREMIUMS = (0, 1, 2, 7, 100)


def brute_equation1(graph, path, beneficiary, p):
    """Equation 1 unrolled: ``p`` per call of the recursion over explicit
    paths (no member-set memo, no scaling).  A depth-first walk of the
    call tree keeps the current path's vertices in ``on_path``."""
    on_path = set(path)
    total = 0
    stack = [(beneficiary, False)]
    while stack:
        u, leaving = stack.pop()
        if leaving:
            on_path.remove(u)
            continue
        total += p
        if u not in on_path:
            on_path.add(u)
            stack.append((u, True))
            stack.extend((x, False) for x in graph.in_neighbors(u))
    return total


def brute_sizing(graph, leaders, simple_paths, p):
    """Every deposit amount, the worst case per (redeemer, beneficiary,
    leader) and Equation 2, all from explicit paths at premium ``p``;
    ``simple_paths`` maps ``(v, leader)`` to every simple path."""
    amounts = {}
    worst = {}
    for leader in leaders:
        for v in graph.parties:
            paths = simple_paths[(v, leader)]
            for u in graph.in_neighbors(v):
                for q in paths:
                    amounts[(q, u)] = brute_equation1(graph, q, u, p)
                worst[(v, u, leader)] = max(
                    (amounts[(q, u)] for q in paths), default=0
                )
    need = {
        leader: sum(amounts[((leader,), u)] for u in graph.in_neighbors(leader))
        for leader in leaders
    }
    followers = {
        v: {w for w in graph.out_neighbors(v) if w not in leaders}
        for v in graph.parties
        if v not in leaders
    }
    for v in TopologicalSorter(followers).static_order():
        need[v] = sum(need[w] for w in graph.out_neighbors(v))
    escrow = {(u, v): need[v] for (u, v) in graph.arcs}
    return amounts, worst, escrow


def assert_plan_matches_brute_force(graph, leaders):
    simple_paths = {
        (v, leader): graph.simple_paths(v, leader)
        for leader in leaders
        for v in graph.parties
    }
    for p in PREMIUMS:
        amounts, worst, escrow = brute_sizing(graph, leaders, simple_paths, p)
        for (q, u), amount in amounts.items():
            assert redemption_premium_amount(graph, q, u, p) == amount, (q, u, p)
        for (v, u, leader), amount in worst.items():
            assert worst_case_redemption_amount(graph, v, u, leader, p) == amount, (
                v, u, leader, p,
            )
        assert escrow_premium_amounts(graph, leaders, p) == escrow
        assert worst_case_funding(graph, leaders, p) == {
            (u, v): max(worst[(v, u, leader)] for leader in leaders)
            for (u, v) in graph.arcs
        }


ORACLE_GRAPHS = [
    (graph, minimum_feedback_vertex_set(graph))
    for graph in EDGE_GRAPHS
    + [ring_graph(3), ring_graph(4), complete_graph(4), complete_graph(6),
       ring_graph(199), ring_graph(400)]
] + [(ring_graph(4), ("P0", "P2"))]


@pytest.mark.parametrize(
    ("graph", "leaders"),
    ORACLE_GRAPHS,
    ids=[f"{len(g.parties)}v{len(g.arcs)}a-{'+'.join(ls)}" for g, ls in ORACLE_GRAPHS],
)
def test_plan_equals_brute_force_on_the_edge_graphs(graph, leaders):
    assert_plan_matches_brute_force(graph, leaders)


@st.composite
def small_strongly_connected_graphs(draw):
    """A ring over 3–6 parties (strong connectivity) plus random chords."""
    n = draw(st.integers(min_value=3, max_value=6))
    parties = [f"P{i}" for i in range(n)]
    arcs = {(parties[i], parties[(i + 1) % n]) for i in range(n)}
    chords = [(u, v) for u in parties for v in parties if u != v]
    arcs |= set(draw(st.lists(st.sampled_from(chords), max_size=2 * n)))
    return SwapGraph.build(parties, sorted(arcs))


@given(small_strongly_connected_graphs())
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
def test_plan_equals_brute_force_on_random_digraphs(graph):
    assert_plan_matches_brute_force(graph, minimum_feedback_vertex_set(graph))


def _subset_pairs(parties):
    """Every pair ``S ⊆ T`` of vertex subsets."""
    subsets = [
        frozenset(c) for k in range(len(parties) + 1) for c in combinations(parties, k)
    ]
    return [(s, t) for s in subsets for t in subsets if s <= t]


@given(small_strongly_connected_graphs())
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
def test_equation1_is_antitone_in_the_member_set(graph):
    """``S ⊆ T`` implies ``A(S, u) ≥ A(T, u)``, over every vertex subset
    (path member sets or not): the lemma that makes the worst case an
    inclusion-minimal member set."""
    for s, t in _subset_pairs(sorted(graph.parties)):
        for u in graph.parties:
            assert unit_redemption_amount(graph, s, u) >= unit_redemption_amount(
                graph, t, u
            ), (s, t, u)


@pytest.mark.parametrize("graph", EDGE_GRAPHS)
def test_minimal_member_sets_are_the_minimal_path_member_sets(graph):
    for source in graph.parties:
        for target in graph.parties:
            every = path_member_sets(graph, source, target)
            minimal = tuple(
                s for s in every if not any(other < s for other in every)
            )
            assert minimal_path_member_sets(graph, source, target) == minimal


def test_the_minimal_search_on_a_clique_finds_only_the_direct_arc():
    graph = complete_graph(9)
    assert minimal_path_member_sets(graph, "P3", "P7") == (frozenset({"P3", "P7"}),)
    # the source, then its eight out-neighbors: nothing else is expanded
    assert premium_plan(graph).search_states == 9


def test_a_second_swap_on_a_graph_redoes_no_graph_checks(monkeypatch):
    """Strong connectivity, the feedback-set check and the follower depths
    run once per (graph, leaders): later swaps over them, base or hedged,
    at any premium, reuse the plan's depths."""
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(SwapGraph, "is_strongly_connected")
    count(SwapGraph, "follower_depths")
    count(schedule_module, "is_feedback_vertex_set")
    graph = ring_graph(5)
    first = HedgedMultiPartySwap(graph=graph)
    once = {"is_strongly_connected": 1, "follower_depths": 1, "is_feedback_vertex_set": 1}
    assert calls == once
    second = HedgedMultiPartySwap(graph=graph, premium=3)
    base = BaseMultiPartySwap(graph=graph)
    assert calls == once
    assert second.schedule == base.schedule == first.schedule
    assert second.build().horizon == first.build().horizon
    # another leader set is checked once too, and a bad one every time
    BaseMultiPartySwap(graph=graph, leaders=("P0", "P2"))
    assert calls["is_feedback_vertex_set"] == 2
    for _ in range(2):
        with pytest.raises(GraphError):
            HedgedMultiPartySwap(graph=graph, leaders=("P9",))


def test_a_swap_refuses_a_graph_that_is_not_strongly_connected():
    graph = SwapGraph.build(["A", "B", "C"], [("A", "B"), ("B", "C"), ("C", "B")])
    for builder in (HedgedMultiPartySwap, BaseMultiPartySwap):
        with pytest.raises(ProtocolError, match="strongly connected"):
            builder(graph=graph)
