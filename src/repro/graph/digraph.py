"""The swap digraph model.

Arcs carry an :class:`ArcSpec` saying which chain hosts the transferred
asset and how much moves.  Paths follow arcs *forward* and are written
redeemer-first, exactly as in Figure 3b: a hashkey (or redemption premium)
path ``q = (v, ..., L)`` runs from the redeemer ``v`` of the arc where it is
presented to the leader ``L`` who originated it, with every consecutive pair
``(q_i, q_{i+1})`` an arc of the digraph.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from repro.errors import GraphError

Arc = tuple[str, str]

_Adjacency = tuple[tuple[Arc, ...], tuple[Arc, ...], tuple[str, ...], tuple[str, ...]]

#: what the adjacency index answers for a vertex the graph does not hold
_NO_ADJACENCY: _Adjacency = ((), (), (), ())


@dataclass(frozen=True)
class ArcSpec:
    """What moves along an arc: chain, token symbol, and amount."""

    chain: str
    token: str
    amount: int


@dataclass(frozen=True)
class SwapGraph:
    """A directed swap graph with per-arc asset specifications."""

    parties: tuple[str, ...]
    arcs: tuple[Arc, ...]
    specs: dict[Arc, ArcSpec]

    def __post_init__(self) -> None:
        seen = set(self.parties)
        if len(seen) != len(self.parties):
            raise GraphError("duplicate parties")
        for (u, v) in self.arcs:
            if u == v:
                raise GraphError(f"self-loop ({u},{v}) not allowed")
            if u not in seen or v not in seen:
                raise GraphError(f"arc ({u},{v}) references unknown party")
        if set(self.specs) != set(self.arcs):
            raise GraphError("specs must cover exactly the arcs")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def build(
        parties: list[str] | tuple[str, ...],
        arcs: list[Arc],
        specs: dict[Arc, ArcSpec] | None = None,
        default_amount: int = 100,
    ) -> "SwapGraph":
        """Create a graph; default specs put each arc's asset on a chain
        named after the sender (each party sells an asset it manages)."""
        if specs is None:
            specs = {
                (u, v): ArcSpec(chain=f"{u.lower()}-chain", token=f"{u.lower()}-token", amount=default_amount)
                for (u, v) in arcs
            }
        return SwapGraph(tuple(parties), tuple(arcs), dict(specs))

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    @cached_property
    def arc_set(self) -> frozenset[Arc]:
        return frozenset(self.arcs)

    @cached_property
    def _adjacency(self) -> dict[str, _Adjacency]:
        """``v -> (in_arcs, out_arcs, in_neighbors, out_neighbors)``.

        Built once, each tuple in ``arcs`` order.  The graph is frozen, so
        the index never goes stale and every adjacency query is one dict
        lookup instead of a scan of the arc tuple.
        """
        ins: dict[str, list[Arc]] = {v: [] for v in self.parties}
        outs: dict[str, list[Arc]] = {v: [] for v in self.parties}
        for arc in self.arcs:
            outs[arc[0]].append(arc)
            ins[arc[1]].append(arc)
        return {
            v: (
                tuple(ins[v]),
                tuple(outs[v]),
                tuple(u for (u, _) in ins[v]),
                tuple(w for (_, w) in outs[v]),
            )
            for v in self.parties
        }

    def in_arcs(self, v: str) -> tuple[Arc, ...]:
        """Arcs entering ``v`` (where ``v`` is the redeemer)."""
        return self._adjacency.get(v, _NO_ADJACENCY)[0]

    def out_arcs(self, v: str) -> tuple[Arc, ...]:
        """Arcs leaving ``v`` (where ``v`` is the escrower)."""
        return self._adjacency.get(v, _NO_ADJACENCY)[1]

    def in_neighbors(self, v: str) -> tuple[str, ...]:
        return self._adjacency.get(v, _NO_ADJACENCY)[2]

    def out_neighbors(self, v: str) -> tuple[str, ...]:
        return self._adjacency.get(v, _NO_ADJACENCY)[3]

    @cached_property
    def chains(self) -> tuple[str, ...]:
        """All chain names appearing in arc specs (sorted, unique)."""
        return tuple(sorted({spec.chain for spec in self.specs.values()}))

    def is_strongly_connected(self) -> bool:
        """True iff every vertex reaches every other following arcs."""
        if not self.parties:
            return False
        for start in self.parties:
            reached = self._reachable(start)
            if reached != set(self.parties):
                return False
        return True

    def _reachable(self, start: str) -> set[str]:
        frontier, seen = [start], {start}
        while frontier:
            u = frontier.pop()
            for w in self.out_neighbors(u):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    @cached_property
    def diameter(self) -> int:
        """Max over ordered vertex pairs of the shortest-path distance."""
        if not self.is_strongly_connected():
            raise GraphError("diameter requires strong connectivity")
        best = 0
        for start in self.parties:
            dist = {start: 0}
            frontier = [start]
            while frontier:
                nxt: list[str] = []
                for u in frontier:
                    for w in self.out_neighbors(u):
                        if w not in dist:
                            dist[w] = dist[u] + 1
                            nxt.append(w)
                frontier = nxt
            best = max(best, max(dist.values()))
        return best

    # ------------------------------------------------------------------
    # paths (Figure 3b semantics)
    # ------------------------------------------------------------------
    def simple_paths(self, source: str, target: str) -> list[tuple[str, ...]]:
        """All simple paths from ``source`` to ``target`` following arcs."""
        out: list[tuple[str, ...]] = []

        def walk(path: list[str]) -> None:
            tip = path[-1]
            if tip == target:
                out.append(tuple(path))
                return
            for w in self.out_neighbors(tip):
                if w not in path:
                    path.append(w)
                    walk(path)
                    path.pop()

        walk([source])
        return out

    def hashkey_paths(self, arc: Arc, leader: str) -> list[tuple[str, ...]]:
        """Paths a hashkey from ``leader`` may carry on ``arc`` (Fig. 3b):
        simple forward paths from the arc's redeemer to the leader."""
        if arc not in self.arc_set:
            raise GraphError(f"{arc} is not an arc")
        _, v = arc
        return self.simple_paths(v, leader)

    def is_path(self, q: tuple[str, ...]) -> bool:
        """True iff ``q`` is a simple path following arcs forward."""
        if not q or len(set(q)) != len(q):
            return False
        arcs = self.arc_set
        for arc in zip(q, q[1:]):
            if arc not in arcs:
                return False
        return True

    @cached_property
    def max_path_length(self) -> int:
        """Upper bound on |q| for any simple path: the vertex count."""
        return len(self.parties)

    # ------------------------------------------------------------------
    # leader/follower structure
    # ------------------------------------------------------------------
    def follower_depths(self, leaders: tuple[str, ...] | frozenset[str]) -> dict[str, int]:
        """Escrow-phase depth of every vertex given ``leaders``.

        Leaders have depth 0 (they act first); a follower's depth is one
        more than the deepest of its in-neighbors.  Well-defined exactly
        when the leaders form a feedback vertex set.
        """
        leader_set = frozenset(leaders)
        depths: dict[str, int] = {}
        for root in self.parties:
            if root not in leader_set and root not in depths:
                self._fill_depths(root, leader_set, depths)
        return {v: 0 if v in leader_set else depths[v] for v in self.parties}

    def _fill_depths(
        self, root: str, leader_set: frozenset[str], depths: dict[str, int]
    ) -> None:
        """Depth of follower ``root`` and of every follower it waits on.

        A post-order walk on an explicit stack of ``(vertex, unvisited
        in-neighbors, deepest so far)`` frames: a follower chain as long as
        the graph does not exhaust the recursion limit.
        """
        in_progress = {root}
        v, todo, best = root, iter(self._predecessors(root)), 0
        stack: list[tuple[str, Iterator[str], int]] = []
        while True:
            for u in todo:
                if u in leader_set:
                    continue  # depth 0, never deeper than ``best``
                depth = depths.get(u)
                if depth is None:
                    if u in in_progress:
                        raise GraphError(
                            f"leaders {sorted(leader_set)} are not a feedback "
                            f"vertex set (follower cycle through {u!r})"
                        )
                    in_progress.add(u)
                    stack.append((v, todo, best))
                    v, todo, best = u, iter(self._predecessors(u)), 0
                    break
                best = max(best, depth)
            else:
                depths[v] = depth = 1 + best
                in_progress.discard(v)
                if not stack:
                    return
                v, todo, best = stack.pop()
                best = max(best, depth)

    def _predecessors(self, v: str) -> tuple[str, ...]:
        """``v``'s in-neighbors, which a follower must have."""
        preds = self.in_neighbors(v)
        if not preds:
            raise GraphError(f"{v!r} has no incoming arcs (not strongly connected)")
        return preds


# ----------------------------------------------------------------------
# canned graphs used throughout tests and benchmarks
# ----------------------------------------------------------------------
def ring_graph(n: int, amount: int = 100) -> SwapGraph:
    """A directed ring P0 -> P1 -> ... -> P0 (unique paths everywhere)."""
    if n < 2:
        raise GraphError("a ring needs at least 2 parties")
    parties = [f"P{i}" for i in range(n)]
    arcs = [(parties[i], parties[(i + 1) % n]) for i in range(n)]
    return SwapGraph.build(parties, arcs, default_amount=amount)


def complete_graph(n: int, amount: int = 100) -> SwapGraph:
    """The complete digraph on n parties (worst-case premium growth)."""
    if n < 2:
        raise GraphError("a complete digraph needs at least 2 parties")
    parties = [f"P{i}" for i in range(n)]
    arcs = [(u, v) for u in parties for v in parties if u != v]
    return SwapGraph.build(parties, arcs, default_amount=amount)


def figure3_graph(amount: int = 100) -> SwapGraph:
    """The digraph of Figure 3a: arcs (A,B), (B,A), (B,C), (C,A).

    Alice is the canonical single leader ({A} is a feedback vertex set:
    removing A leaves only the arc (B,C), which is acyclic).
    """
    parties = ["A", "B", "C"]
    arcs = [("A", "B"), ("B", "A"), ("B", "C"), ("C", "A")]
    return SwapGraph.build(parties, arcs, default_amount=amount)
