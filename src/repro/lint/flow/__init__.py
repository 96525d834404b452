"""Interprocedural flow analysis: the one analysis behind the digest rules.

A per-file scope check sees a hazard only when it sits inside a function
that looks digest-producing.  It is blind to indirection: a helper
returning an unsorted set into a dataclass field that a ``digest()``
three calls away hashes is invisible to it.  This package makes the
ordering and float-text decisions once, with a whole-program pass over
everything the engine parsed:

- :mod:`~repro.lint.flow.callgraph` builds a module-level call graph,
  resolving import aliases, ``self.method`` dispatch, module-qualified
  calls, and dataclass constructors; calls it cannot resolve are
  recorded as *open edges*, never silently dropped,
- :mod:`~repro.lint.flow.taint` defines the taint domain — **nondet**
  (clocks, pids, entropy, unseeded RNGs — including sources the DET
  rules deliberately bless, like ``time.perf_counter``), **unordered**
  (set construction, filesystem walks), **lossy** (float text not
  rendered by :mod:`repro.campaign.canon`) — and the digest sinks
  (hash inputs, canonical JSON, digest-covered dataclass fields, axis
  labels, and a digest-producing function's return value for the
  unordered and lossy taint born in its own body),
- :mod:`~repro.lint.flow.summaries` computes per-function summaries by
  fixpoint — which parameters and returns carry which taint, which
  parameters descend into sinks, which dataclass fields are written
  tainted — and joins them into source→sink *flow hits*,
- :mod:`~repro.lint.flow.rules` renders the hits as FLOW001 (nondet →
  sink), FLOW002 (unordered → sink), FLOW003 (lossy text → sink)
  findings carrying the full call chain.

The analyzer honors the determinism bar it enforces: every exported
artifact (findings, ``--graph json|dot``) is sorted, and two runs over
the same tree are byte-identical.
"""

from repro.lint.flow.callgraph import FuncId, Program, export_graph
from repro.lint.flow.summaries import FlowAnalysis
from repro.lint.flow.taint import LOSSY, NONDET, UNORDERED

__all__ = [
    "FlowAnalysis",
    "FuncId",
    "LOSSY",
    "NONDET",
    "Program",
    "UNORDERED",
    "export_graph",
]
