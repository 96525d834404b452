"""Phase schedules for the multi-party protocols (§7.1 timeout rules).

"Timeouts are determined as follows.  Each step takes time at most Δ.  In
the first phase, the leaders should escrow their outgoing escrow premiums
before Δ elapses, and each following step's timeout increases by Δ."

The schedule turns that rule into concrete heights.  One height = Δ; an
action performed in round *r* lands at height *r + 1*.

Hedged protocol phases::

    phase 1  escrow premiums   length  max_depth + 1   (forward flow)
    phase 2  redemption prem.  length  n               (backward flow)
    phase 3  principal escrow  length  max_depth + 1   (forward flow)
    phase 4  hashkey release   length  n               (backward flow)

Per-arc deadlines: a forward-flow action on arc ``(u, v)`` must land by
``phase_start + depth(u) + 1``; a backward-flow item carrying path ``q``
must land by ``phase_start + |q|``.

The base (unhedged) protocol uses phase 3 and phase 4 only.  Herlihy '18
states hashkey timeouts as ``(diam(G) + |q|)·Δ``; because our discretization
adds one Δ to the escrow phase (DESIGN.md), we use
``M = max(diam(G), max_depth + 1)`` in place of ``diam(G)``, which preserves
the construction (the escrow phase always fits before the first hashkey
deadline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import GraphError
from repro.graph.digraph import Arc, SwapGraph
from repro.graph.feedback import is_feedback_vertex_set


@dataclass(frozen=True)
class MultiPartySchedule:
    """All phase boundaries and per-arc deadlines for one swap."""

    graph: SwapGraph
    leaders: tuple[str, ...]
    depths: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.depths:
            return  # given depths come from a checked schedule of these leaders
        if not self.leaders:
            raise GraphError("at least one leader is required")
        if not set(self.leaders) <= set(self.graph.parties):
            raise GraphError("leaders must be parties of the graph")
        if not is_feedback_vertex_set(self.graph, self.leaders):
            raise GraphError(f"leaders {self.leaders} are not a feedback vertex set")
        object.__setattr__(self, "depths", self.graph.follower_depths(self.leaders))

    # ------------------------------------------------------------------
    # basic quantities
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.graph.parties)

    @cached_property
    def max_depth(self) -> int:
        return max(self.depths.values())

    @cached_property
    def forward_len(self) -> int:
        """Length of a forward-flow phase (escrow premiums / principals)."""
        return self.max_depth + 1

    @cached_property
    def backward_len(self) -> int:
        """Length of a backward-flow phase (premium/hashkey propagation)."""
        return self.n

    # ------------------------------------------------------------------
    # hedged protocol phase boundaries (§7.1: four phases)
    # ------------------------------------------------------------------
    @property
    def p1_start(self) -> int:
        return 0

    @cached_property
    def p2_start(self) -> int:
        return self.p1_start + self.forward_len

    @cached_property
    def p3_start(self) -> int:
        return self.p2_start + self.backward_len

    @cached_property
    def p4_start(self) -> int:
        return self.p3_start + self.forward_len

    @cached_property
    def end(self) -> int:
        return self.p4_start + self.backward_len

    @cached_property
    def horizon(self) -> int:
        """Rounds to run so the final settlement tick fires (height end+1)."""
        return self.end + 1

    # ------------------------------------------------------------------
    # per-arc / per-path deadlines (hedged)
    # ------------------------------------------------------------------
    def escrow_premium_deadline(self, arc: Arc) -> int:
        u, _ = arc
        return self.p1_start + self.depths[u] + 1

    def redemption_premium_deadline(self, path_length: int) -> int:
        return self.p2_start + path_length

    def principal_deadline(self, arc: Arc) -> int:
        u, _ = arc
        return self.p3_start + self.depths[u] + 1

    def hashkey_deadline(self, path_length: int) -> int:
        return self.p4_start + path_length

    @property
    def activation_deadline(self) -> int:
        """Escrow premiums not activated by the end of phase 2 refund."""
        return self.p3_start

    # ------------------------------------------------------------------
    # base protocol (no premium phases)
    # ------------------------------------------------------------------
    @cached_property
    def base_m(self) -> int:
        """The Herlihy '18 timeout base, adjusted for discretization."""
        return max(self.graph.diameter, self.forward_len)

    def base_principal_deadline(self, arc: Arc) -> int:
        u, _ = arc
        return self.depths[u] + 1

    def base_hashkey_deadline(self, path_length: int) -> int:
        return self.base_m + path_length

    @cached_property
    def base_end(self) -> int:
        return self.base_m + self.backward_len

    @cached_property
    def base_horizon(self) -> int:
        return self.base_end + 1
