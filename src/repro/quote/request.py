"""The question side of the quoting API: :class:`QuoteRequest`.

A request names one deal cell — a §5.2 family or an arbitrary deal graph
— plus the economic assumptions the premium schedule must deter under:
the relative price shock, the protocol stage the shock lands at, the
premium-fraction tolerance the answer must meet, and (optionally) a named
pivot coalition.  Like :class:`~repro.campaign.experiment.ExperimentSpec`
it is frozen, JSON-serializable, and digest-covered: the digest hashes
every result-determining field, two requests share a digest exactly when
they ask the same question, and ``from_json`` re-verifies a stamped
digest so an edited request can never masquerade as the original.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from hashlib import sha256
from typing import Annotated

from repro import codec
from repro.campaign.ablation.bounds import DEFAULT_TOL, Tol
from repro.campaign.ablation.grid import (
    ABLATION_FAMILIES,
    CELL_CONTEXTS,
    NAMED_GRAPH_FAMILIES,
    STAGE_ALL,
    is_graph_family,
    valid_stage,
)
from repro.codec import Interval
from repro.errors import ReproError

#: the default shock assumption a deal is priced against: the 0.045
#: relative drop sits mid-grid (deterred by the default sweep's upper
#: premiums, walked at its lower ones) so a default quote is informative.
DEFAULT_SHOCK = 0.045

#: a shock assumption: a relative price drop in (0, 1), ends excluded.
Shock = Annotated[float, Interval(0.0, 1.0, True, True, "a relative drop in (0, 1)")]


class QuoteError(ReproError):
    """A quote request could not be honored (bad fields, digest miss)."""


@dataclass(frozen=True)
class QuoteRequest:
    """One deal-pricing question, fully specified and digest-covered.

    Exactly one of ``family`` (a named §5.2 family) and ``graph`` (a
    graph-shaped deal: ``ring:N``, ``complete:N``, ``figure3``) must be
    set.  ``coalition`` selects a named joint-pivot cell (named families
    only); ``stage`` is a concrete shock stage (named or ``round:K`` —
    the ``all`` pseudo-stage is a sweep, not a question); ``tol`` is the
    premium-fraction tolerance the answered π* must meet; ``seed`` is the
    matrix identity seed threaded into any measurement run.
    """

    family: str = ""
    graph: str = ""
    coalition: str = ""
    shock: Shock = DEFAULT_SHOCK
    stage: str = "staked"
    tol: Tol = DEFAULT_TOL
    seed: int = 0

    def __post_init__(self) -> None:
        codec.check(self, QuoteError)
        if (not self.family) == (not self.graph):
            raise QuoteError(
                "a quote request names exactly one of family= "
                f"(one of {list(ABLATION_FAMILIES)}) and graph= "
                "(ring:N, complete:N, figure3); got "
                f"family={self.family!r}, graph={self.graph!r}"
            )
        if self.family and (self.family, "") not in CELL_CONTEXTS:
            raise QuoteError(
                f"unknown family {self.family!r}; known: "
                f"{list(ABLATION_FAMILIES)} (graph-shaped deals go "
                "through graph=)"
            )
        if self.graph and not is_graph_family(self.graph):
            raise QuoteError(
                f"unknown graph {self.graph!r}: use ring:N, complete:N, "
                "or figure3"
            )
        if self.coalition:
            if not self.family:
                raise QuoteError(
                    "coalitions are named per family; graph-shaped deals "
                    "have no named coalitions"
                )
            if (self.family, self.coalition) not in CELL_CONTEXTS:
                known = [c for f, c in CELL_CONTEXTS if f == self.family and c]
                raise QuoteError(
                    f"unknown coalition {self.coalition!r} for family "
                    f"{self.family!r}; known: {sorted(known)}"
                )
        if not valid_stage(self.stage) or self.stage == STAGE_ALL:
            raise QuoteError(
                f"a quote needs one concrete stage, got {self.stage!r} "
                "(named stage or round:K)"
            )

    @property
    def cell_family(self) -> str:
        """The ablation cell family this request resolves to.

        A graph a named context runs over (``ring:3`` *is* the named
        multi-party cell: same digraph, same canonical leader) normalizes
        to that family and rides the closed-form tier; every other graph
        names itself.
        """
        return self.family or NAMED_GRAPH_FAMILIES.get(self.graph, self.graph)

    # ------------------------------------------------------------------
    # identity / serialization
    # ------------------------------------------------------------------
    def _payload(self) -> dict:
        return {
            "family": self.family,
            "graph": self.graph,
            "coalition": self.coalition,
            "shock": self.shock,
            "stage": self.stage,
            "tol": self.tol,
            "seed": self.seed,
        }

    def digest(self) -> str:
        """The request's identity: a hash of every field (all of them
        determine the answer)."""
        text = json.dumps(self._payload(), sort_keys=True, separators=(",", ":"))
        return sha256(f"quote-request|{text}".encode()).hexdigest()

    def to_json(self) -> str:
        return json.dumps(
            {**self._payload(), "digest": self.digest()},
            indent=2,
            sort_keys=False,
        )

    @classmethod
    def from_json(cls, text: str) -> "QuoteRequest":
        return codec.load_stamped(cls, text, QuoteError, "a quote request")
