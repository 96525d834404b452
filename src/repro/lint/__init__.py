"""Determinism linter: static analysis guarding the digest invariant.

Every artifact this repository publishes — scenario digests, campaign
``run_digest``, frontier/refined-frontier digests, ``ExperimentSpec``
identities, the ``ResultCache`` code-version key — rests on one invariant:
**byte-identical results across backends, process layouts, engines, and
hosts**.  The dynamic gates (cross-backend tests, the kernel parity
audit) sample that invariant at runtime; this package enforces it
*statically*, before any scenario runs, by reading the AST of everything
under ``src/repro`` and flagging the constructs that historically break
it:

- ``DET001``/``DET002`` — nondeterministic calls (wall clocks, uuids, OS
  entropy, per-process object identity, unseeded RNGs),
- ``DET003`` — telemetry read back inside digest-producing code,
- ``FLOW001``–``FLOW003`` — nondeterministic values, unsorted iteration
  (sets, directory walks) and ad-hoc float text (instead of
  :mod:`repro.campaign.canon`) flowing into a digest, canonical JSON,
  label, or digest-producing function's return value,
- ``POOL001`` — unpicklable callables (lambdas, closures, local classes)
  crossing the ``WorkerPool``/``MatrixSpec`` worker boundary,
- ``DIG001`` — dataclass fields invisible to their class's ``digest()``/
  ``to_json()`` without an explicit exclusion.

Run it as ``python -m repro.lint [paths]``; suppress a finding inline
with ``# lint: disable=CODE`` plus a justification, or carry it in the
checked-in ``lint-baseline.json``.

.. note:: **Not to be confused with** :mod:`repro.analysis`, which is the
   *market* analysis package (price-path statistics for premium sizing,
   §6 of the paper).  This package analyzes *source code*; that one
   analyzes *price data*.  They share nothing but the English word.
"""

from repro.lint.core import (
    Finding,
    LintError,
    Rule,
    SourceFile,
    all_rules,
    register_rule,
    rule_codes,
)
from repro.lint.baseline import Baseline
from repro.lint.engine import LintResult, lint_paths

# Importing the rule modules registers every shipped rule.
from repro.lint import rules as _rules  # noqa: F401

__all__ = [
    "Baseline",
    "Finding",
    "LintError",
    "LintResult",
    "Rule",
    "SourceFile",
    "all_rules",
    "lint_paths",
    "register_rule",
    "rule_codes",
]
