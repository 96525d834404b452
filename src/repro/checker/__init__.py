"""Exhaustive deviation-space exploration (the paper's §10 model checking).

The paper verified the two-party and some three-party hedged swaps with
TLA+.  Because smart contracts "severely constrain the behavior of
Byzantine participants by enforcing ordering, timing, and well-formedness
restrictions", the adversary's entire strategy space for a synchronous
protocol collapses to: *which legal actions to omit, from when* (plus, for
the auction, which declaration to publish).  This package enumerates that
space over the real implementation — every combination of deviating
parties, halt rounds, and action-type skips — runs the full simulation for
each profile, and asserts the lemma properties on every outcome.
"""

from repro import lazy_exports

lazy_exports(globals(), {
    "ModelChecker": "repro.checker.explorer",
    "CheckReport": "repro.checker.explorer",
    "Violation": "repro.checker.explorer",
    "halt_strategies": "repro.checker.strategies",
    "skip_strategies": "repro.checker.strategies",
    "full_strategy_space": "repro.checker.strategies",
    "properties": "repro.checker.properties",
})
