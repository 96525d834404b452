"""Unit tests for the swap digraph model, cross-checked against networkx."""

import networkx as nx
import pytest

from repro.errors import GraphError
from repro.graph.digraph import ArcSpec, SwapGraph, complete_graph, figure3_graph, ring_graph


def _to_nx(graph: SwapGraph) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(graph.parties)
    g.add_edges_from(graph.arcs)
    return g


def test_figure3_structure(fig3):
    assert set(fig3.parties) == {"A", "B", "C"}
    assert set(fig3.arcs) == {("A", "B"), ("B", "A"), ("B", "C"), ("C", "A")}


def test_in_out_arcs(fig3):
    assert set(fig3.in_arcs("A")) == {("B", "A"), ("C", "A")}
    assert set(fig3.out_arcs("B")) == {("B", "A"), ("B", "C")}
    assert fig3.in_neighbors("C") == ("B",)
    assert fig3.out_neighbors("C") == ("A",)


def test_duplicate_parties_rejected():
    with pytest.raises(GraphError):
        SwapGraph(("A", "A"), (), {})


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        SwapGraph.build(["A", "B"], [("A", "A")])


def test_unknown_party_in_arc_rejected():
    with pytest.raises(GraphError):
        SwapGraph.build(["A", "B"], [("A", "Z")])


def test_specs_must_cover_arcs():
    with pytest.raises(GraphError):
        SwapGraph(("A", "B"), (("A", "B"),), {})


def test_strong_connectivity_matches_networkx(fig3, ring3):
    for graph in (fig3, ring3, complete_graph(4)):
        assert graph.is_strongly_connected() == nx.is_strongly_connected(_to_nx(graph))


def test_not_strongly_connected():
    g = SwapGraph.build(["A", "B", "C"], [("A", "B"), ("B", "A"), ("B", "C")])
    assert not g.is_strongly_connected()


def test_diameter_matches_networkx(fig3):
    for graph in (fig3, ring_graph(5), complete_graph(4)):
        expected = nx.diameter(_to_nx(graph))
        assert graph.diameter == expected


def test_diameter_requires_strong_connectivity():
    g = SwapGraph.build(["A", "B"], [("A", "B")])
    with pytest.raises(GraphError):
        _ = g.diameter


def test_simple_paths_match_networkx(fig3):
    for source in fig3.parties:
        for target in fig3.parties:
            if source == target:
                continue
            ours = {p for p in fig3.simple_paths(source, target)}
            theirs = {
                tuple(p) for p in nx.all_simple_paths(_to_nx(fig3), source, target)
            }
            assert ours == theirs


def test_simple_paths_trivial():
    g = figure3_graph()
    assert g.simple_paths("A", "A") == [("A",)]


def test_hashkey_paths_figure3b(fig3):
    """Exactly the paths shown in Figure 3b for hashkey k_A."""
    assert fig3.hashkey_paths(("B", "A"), "A") == [("A",)]
    assert fig3.hashkey_paths(("C", "A"), "A") == [("A",)]
    assert fig3.hashkey_paths(("B", "C"), "A") == [("C", "A")]
    assert sorted(fig3.hashkey_paths(("A", "B"), "A")) == [("B", "A"), ("B", "C", "A")]


def test_hashkey_paths_unknown_arc(fig3):
    with pytest.raises(GraphError):
        fig3.hashkey_paths(("A", "C"), "A")


def test_is_path(fig3):
    assert fig3.is_path(("B", "C", "A"))
    assert fig3.is_path(("A",))
    assert not fig3.is_path(("C", "B"))  # no arc C->B
    assert not fig3.is_path(("A", "B", "A"))  # repeats
    assert not fig3.is_path(())


def test_follower_depths_figure3(fig3):
    assert fig3.follower_depths(("A",)) == {"A": 0, "B": 1, "C": 2}


def test_follower_depths_require_fvs(fig3):
    with pytest.raises(GraphError):
        fig3.follower_depths(("C",))  # A<->B cycle remains


def test_follower_depths_ring():
    g = ring_graph(4)
    assert g.follower_depths(("P0",)) == {"P0": 0, "P1": 1, "P2": 2, "P3": 3}


def test_ring_and_complete_constructors():
    assert len(ring_graph(5).arcs) == 5
    assert len(complete_graph(4).arcs) == 12
    with pytest.raises(GraphError):
        ring_graph(1)
    with pytest.raises(GraphError):
        complete_graph(1)


def test_chains_derived_from_specs(fig3):
    assert fig3.chains == ("a-chain", "b-chain", "c-chain")


def test_max_path_length(fig3):
    assert fig3.max_path_length == 3


# ----------------------------------------------------------------------
# adjacency index
# ----------------------------------------------------------------------
def _linear_scan(graph: SwapGraph, v: str):
    """The reference answers: one pass over ``arcs`` per query."""
    return (
        tuple((u, w) for (u, w) in graph.arcs if w == v),
        tuple((u, w) for (u, w) in graph.arcs if u == v),
        tuple(u for (u, w) in graph.arcs if w == v),
        tuple(w for (u, w) in graph.arcs if u == v),
    )


def _heterogeneous_graph() -> SwapGraph:
    """Arcs listed out of sorted order, two chains, uneven amounts, and a
    party (``D``) that no arc touches."""
    arcs = (("C", "A"), ("A", "B"), ("B", "C"), ("B", "A"), ("A", "C"))
    specs = {
        ("C", "A"): ArcSpec("c-chain", "gamma", 400),
        ("A", "B"): ArcSpec("dex", "alpha", 70),
        ("B", "C"): ArcSpec("dex", "beta", 11),
        ("B", "A"): ArcSpec("dex", "beta", 3),
        ("A", "C"): ArcSpec("dex", "alpha", 9),
    }
    return SwapGraph(("B", "A", "D", "C"), arcs, specs)


@pytest.mark.parametrize(
    "graph_fn",
    [
        figure3_graph,
        lambda: ring_graph(2),
        lambda: ring_graph(7),
        lambda: complete_graph(3),
        lambda: complete_graph(6),
        _heterogeneous_graph,
    ],
)
def test_adjacency_index_matches_linear_scan_in_order(graph_fn):
    graph = graph_fn()
    for v in graph.parties:
        assert (
            graph.in_arcs(v),
            graph.out_arcs(v),
            graph.in_neighbors(v),
            graph.out_neighbors(v),
        ) == _linear_scan(graph, v)


def test_adjacency_index_isolated_and_unknown_vertices_are_empty():
    graph = _heterogeneous_graph()
    for v in ("D", "nobody"):
        assert graph.in_arcs(v) == graph.out_arcs(v) == ()
        assert graph.in_neighbors(v) == graph.out_neighbors(v) == ()


def test_adjacency_index_is_built_once_per_instance():
    graph = ring_graph(4)
    assert graph.out_arcs("P0") is graph.out_arcs("P0")
