"""FLOW rules: interprocedural source→sink findings.

- **FLOW001** — a nondeterministic value (clock, pid, entropy, unseeded
  RNG draw) reaches a digest sink.
- **FLOW002** — an iteration-order-unstable value (set construction,
  filesystem walk) reaches a digest sink without passing an order-free
  consumer, including the return value of the digest-producing
  function that iterates it.
- **FLOW003** — lossily-formatted float text (rendered outside
  :mod:`repro.campaign.canon`) reaches a digest sink, a label output, or
  the return value of the digest-producing function that renders it.

Each finding is anchored at the *sink* and carries the full call chain
from the source's origin, so the report reads as a path, not a point.
The three rules share one analysis per engine run: the program and its
fixpoint are cached on a content hash of every parsed file.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.lint.core import (
    Finding,
    ProgramRule,
    SourceFile,
    register_rule,
)
from repro.lint.flow.callgraph import Program
from repro.lint.flow.summaries import FlowAnalysis, FlowHit
from repro.lint.flow.taint import LOSSY, NONDET, UNORDERED

#: one cached (program, analysis) per distinct source set — the three
#: FLOW rules run back-to-back over identical inputs in one engine pass.
_CACHE: dict[str, tuple[Program, FlowAnalysis]] = {}


def _content_key(sources: list[SourceFile]) -> str:
    acc = hashlib.sha256()
    for src in sorted(sources, key=lambda s: s.display_path):
        acc.update(src.display_path.encode("utf-8"))
        acc.update(b"\x00")
        acc.update(src.text.encode("utf-8"))
        acc.update(b"\x00")
    return acc.hexdigest()


def analyze(sources: list[SourceFile]) -> tuple[Program, FlowAnalysis]:
    """Build (or reuse) the call graph + taint fixpoint for ``sources``."""
    key = _content_key(sources)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    program = Program(sources)
    analysis = FlowAnalysis(program)
    _CACHE.clear()  # one entry is enough: runs repeat the same set
    _CACHE[key] = (program, analysis)
    return program, analysis


def _render_chain(hit: FlowHit) -> str:
    return " -> ".join(hit.chain) if hit.chain else hit.tag.origin


class _FlowRule(ProgramRule):
    """Shared rendering for the three kind-specific rules."""

    kind: str = ""
    noun: str = ""

    def check_program(self, sources: list[SourceFile]) -> Iterable[Finding]:
        _, analysis = analyze(sources)
        by_path = {src.display_path: src for src in sources}
        for hit in analysis.hits:
            if hit.kind != self.kind:
                continue
            sink = hit.sink
            src = by_path.get(sink.path)
            yield Finding(
                path=sink.path,
                line=sink.line,
                col=1,
                code=self.code,
                message=(
                    f"{self.noun} ({hit.tag.detail}) from "
                    f"{hit.tag.path}:{hit.tag.line} reaches "
                    f"{sink.describe()} via {_render_chain(hit)}"
                ),
                line_text=src.line_at(sink.line) if src is not None else "",
                chain=hit.chain,
                source_ref=(hit.tag.path, hit.tag.line),
            )


@register_rule
class NondetFlowRule(_FlowRule):
    code = "FLOW001"
    name = "flow-nondet-to-sink"
    summary = "nondeterministic value flows into a digest sink"
    kind = NONDET
    noun = "nondeterministic value"


@register_rule
class UnorderedFlowRule(_FlowRule):
    code = "FLOW002"
    name = "flow-unordered-to-sink"
    summary = "iteration-order-unstable value flows into a digest sink"
    kind = UNORDERED
    noun = "iteration-order-unstable value"


@register_rule
class LossyFlowRule(_FlowRule):
    code = "FLOW003"
    name = "flow-lossy-text-to-sink"
    summary = "lossy float text flows into a digest sink"
    kind = LOSSY
    noun = "lossy float text"
