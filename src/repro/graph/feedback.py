"""Feedback vertex sets.

The multi-party protocol requires the leaders to form a feedback vertex set
(FVS): deleting them must leave the digraph acyclic, which is what makes
both the escrow schedule (Eq. 2's recursion) and the follower depths
well-defined.  We provide an exact check and an exact minimum-FVS search by
subset enumeration — swap digraphs are small (parties who all have to sign
one deal), so exponential search is appropriate; a greedy fallback handles
larger graphs.
"""

from __future__ import annotations

from itertools import combinations

from repro.graph.digraph import SwapGraph


def _has_cycle_excluding(graph: SwapGraph, removed: frozenset[str]) -> bool:
    """DFS cycle check on the subgraph without ``removed`` vertices.

    The DFS keeps an explicit stack of ``(vertex, unvisited out-neighbors)``
    frames, so a long follower chain cannot exhaust the recursion limit.
    """
    color: dict[str, int] = {}  # 0 = visiting, 1 = done
    out_neighbors = graph.out_neighbors
    for root in graph.parties:
        if root in removed or root in color:
            continue
        color[root] = 0
        stack = [(root, iter(out_neighbors(root)))]
        while stack:
            u, todo = stack[-1]
            for w in todo:
                if w in removed:
                    continue
                state = color.get(w)
                if state == 0:
                    return True
                if state is None:
                    color[w] = 0
                    stack.append((w, iter(out_neighbors(w))))
                    break
            else:
                color[u] = 1
                stack.pop()
    return False


def is_feedback_vertex_set(graph: SwapGraph, leaders: tuple[str, ...] | frozenset[str]) -> bool:
    """True iff deleting ``leaders`` leaves the digraph acyclic."""
    return not _has_cycle_excluding(graph, frozenset(leaders))


def minimum_feedback_vertex_set(graph: SwapGraph, exact_limit: int = 12) -> tuple[str, ...]:
    """A minimum FVS (exact for ≤ ``exact_limit`` vertices, greedy beyond).

    Ties break lexicographically so results are deterministic.
    """
    vertices = tuple(sorted(graph.parties))
    if len(vertices) <= exact_limit:
        for size in range(0, len(vertices) + 1):
            for subset in combinations(vertices, size):
                if is_feedback_vertex_set(graph, frozenset(subset)):
                    return subset
    # Greedy: repeatedly remove the vertex with highest degree until acyclic.
    removed: set[str] = set()
    while _has_cycle_excluding(graph, frozenset(removed)):
        candidates = [v for v in vertices if v not in removed]
        best = max(
            candidates,
            key=lambda v: (
                len(graph.in_neighbors(v)) + len(graph.out_neighbors(v)),
                v,
            ),
        )
        removed.add(best)
    return tuple(sorted(removed))
