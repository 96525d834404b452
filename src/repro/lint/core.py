"""Lint framework core: findings, parsed sources, the rule registry.

The framework is deliberately self-hosted-friendly: it is itself part of
``src/repro``, so every rule it ships runs over this file too.  Three
pieces live here:

- :class:`Finding` — one diagnostic, with a stable *fingerprint* (code +
  path + the stripped source line) so baselines survive unrelated edits
  that only shift line numbers,
- :class:`SourceFile` — a parsed module: AST with parent back-links,
  import alias resolution (``import numpy as np`` makes
  ``np.random.default_rng`` resolve to ``numpy.random.default_rng``),
  and per-line ``# lint: disable=CODE`` suppressions collected via
  :mod:`tokenize` (so a disable comment inside a string literal is not a
  suppression),
- :class:`Rule` + the registry — rules self-register by code via
  :func:`register_rule`; the engine instantiates them all unless a
  selection is given.

Shared helpers for the digest-aware rules (:func:`qualified_name`,
:func:`is_digest_function`, :func:`enclosing_function`) also live here so
DET003 and the flow pass agree on what "digest-producing code" means.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator


class LintError(Exception):
    """A misconfiguration of the linter itself (not a code finding)."""


# ----------------------------------------------------------------------
# findings
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: a rule code anchored to a source location."""

    path: str  # posix-style, relative to the lint root when possible
    line: int
    col: int
    code: str
    message: str
    #: the stripped source line, for fingerprinting and display.
    line_text: str = field(default="", compare=False)
    #: inclusive line span an inline suppression may sit on.  Defaults to
    #: the finding line alone; :meth:`SourceFile.finding` widens it to the
    #: enclosing statement (decorators included), so a ``# lint: disable``
    #: on any line of a decorated or multi-line statement suppresses.
    span: tuple[int, int] | None = field(default=None, compare=False)
    #: source→sink call chain for flow findings (function labels in
    #: traversal order); empty for single-site rules.
    chain: tuple[str, ...] = field(default=(), compare=False)
    #: (path, line) of the taint *source* for flow findings, reported
    #: next to the sink anchor in ``--format json``.
    source_ref: tuple[str, int] | None = field(default=None, compare=False)

    def fingerprint(self) -> tuple[str, str, str]:
        """Baseline identity: stable across pure line-number churn."""
        return (self.code, self.path, self.line_text)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


# ----------------------------------------------------------------------
# parsed source files
# ----------------------------------------------------------------------
_DISABLE_RE = re.compile(r"#\s*lint:\s*disable=([A-Z0-9,\s]+)")

FuncDef = ast.FunctionDef | ast.AsyncFunctionDef


class SourceFile:
    """One parsed module plus the metadata every rule needs."""

    def __init__(self, path: Path, display_path: str, text: str) -> None:
        self.path = path
        self.display_path = display_path
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=str(path))
        self._link_parents()
        self.aliases = _collect_aliases(self.tree)
        self.suppressions = _collect_suppressions(text)

    @classmethod
    def load(cls, path: Path, root: Path | None = None) -> "SourceFile":
        try:
            display = path.relative_to(root).as_posix() if root else path.as_posix()
        except ValueError:
            display = path.as_posix()
        return cls(path, display, path.read_text(encoding="utf-8"))

    # -- construction helpers ------------------------------------------
    def _link_parents(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                child._lint_parent = parent  # type: ignore[attr-defined]

    # -- queries -------------------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        return getattr(node, "_lint_parent", None)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_suppressed(self, code: str, lineno: int) -> bool:
        return code in self.suppressions.get(lineno, frozenset())

    def is_suppressed_span(self, code: str, span: tuple[int, int]) -> bool:
        """Whether a disable marker for ``code`` sits anywhere in ``span``."""
        start, end = span
        return any(
            self.is_suppressed(code, lineno) for lineno in range(start, end + 1)
        )

    def suppression_span(self, node: ast.AST) -> tuple[int, int]:
        """Lines an inline suppression for ``node``'s finding may occupy.

        The flagged construct's own lines, widened to its nearest enclosing
        *statement*: every line of a simple statement (so the marker can sit
        on any physical line of a multi-line call), or just the header of a
        compound statement — decorators through the line before the body —
        so a marker inside a function body never mutes a finding on the
        ``def`` itself.
        """
        lineno = getattr(node, "lineno", 1)
        end = getattr(node, "end_lineno", None) or lineno
        stmt: ast.stmt | None = node if isinstance(node, ast.stmt) else None
        if stmt is None:
            for ancestor in self.ancestors(node):
                if isinstance(ancestor, ast.stmt):
                    stmt = ancestor
                    break
        if stmt is None:
            return (lineno, end)
        start = stmt.lineno
        decorators = getattr(stmt, "decorator_list", None)
        if decorators:
            start = min([start, *(deco.lineno for deco in decorators)])
        body = getattr(stmt, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            # Compound statement: the span is its header only.
            stmt_end = max(stmt.lineno, body[0].lineno - 1)
        else:
            stmt_end = stmt.end_lineno or start
        return (min(start, lineno), max(stmt_end, lineno))

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.display_path,
            line=lineno,
            col=col + 1,
            code=code,
            message=message,
            line_text=self.line_at(lineno),
            span=self.suppression_span(node),
        )


def _collect_aliases(tree: ast.AST) -> dict[str, str]:
    """Map local names to the dotted module/attribute they import.

    ``import numpy as np`` → ``{"np": "numpy"}``; ``from os import
    urandom as ur`` → ``{"ur": "os.urandom"}``.  Later bindings win, like
    Python's own semantics; scope nuances (a function-local re-import) are
    deliberately ignored — aliasing is per-module, which is how this
    codebase imports.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def _collect_suppressions(text: str) -> dict[int, frozenset[str]]:
    """Per-line ``# lint: disable=CODE[,CODE...]`` markers.

    Collected from real COMMENT tokens, so the marker text appearing in a
    string literal (e.g. in this linter's own tests) suppresses nothing.
    A marker applies to the physical line it sits on — for a multi-line
    statement, put it on the line of the flagged construct.
    """
    out: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _DISABLE_RE.search(tok.string)
            if match:
                codes = frozenset(
                    part.strip() for part in match.group(1).split(",") if part.strip()
                )
                out[tok.start[0]] = out.get(tok.start[0], frozenset()) | codes
    except tokenize.TokenError:
        pass
    return out


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def qualified_name(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Resolve a ``Name``/``Attribute`` chain to a dotted name.

    The chain's head is mapped through the module's import aliases, so
    ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
    and a bare builtin like ``sorted`` resolves to ``"sorted"``.  Returns
    ``None`` for anything that is not a plain dotted chain (subscripts,
    calls in the middle, etc.).
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    head = aliases.get(current.id, current.id)
    parts.append(head)
    return ".".join(reversed(parts))


def call_name(node: ast.Call, aliases: dict[str, str]) -> str | None:
    return qualified_name(node.func, aliases)


def enclosing_function(src: SourceFile, node: ast.AST) -> FuncDef | None:
    """The nearest enclosing function definition, if any."""
    for ancestor in src.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


#: function names that produce digests, canonical labels, or transport
#: payloads — the scopes where ordering and float-canon hazards matter.
_DIGEST_NAME_RE = re.compile(
    r"digest|to_json|payload|describe|fingerprint|code_version|canonical"
)

#: calls that make any function digest-relevant regardless of its name.
_HASH_SINKS = frozenset(
    {
        "hashlib.sha256",
        "hashlib.sha1",
        "hashlib.sha512",
        "hashlib.md5",
        "hashlib.blake2b",
        "hashlib.blake2s",
        "json.dump",
        "json.dumps",
    }
)


def is_digest_function(func: FuncDef, aliases: dict[str, str]) -> bool:
    """Whether a function produces digest/JSON/label material.

    True when its name matches the digest-name pattern (``digest``,
    ``to_json``, ``describe``, ``code_version``, ...) or its body calls a
    hashing constructor / ``json.dumps`` directly.  This is the shared
    definition of "digest-producing code" used by DET003 and by the
    flow pass's return sink: deliberately name-driven, because this
    codebase's convention is that everything feeding a digest lives in
    such a function.
    """
    if _DIGEST_NAME_RE.search(func.name):
        return True
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = call_name(node, aliases)
            if name in _HASH_SINKS:
                return True
    return False


# ----------------------------------------------------------------------
# rules + registry
# ----------------------------------------------------------------------
class Rule:
    """Base class for one lint rule (one code)."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def check(self, src: SourceFile) -> Iterable[Finding]:  # pragma: no cover
        raise NotImplementedError


class ProgramRule(Rule):
    """A rule that needs the *whole program*, not one file at a time.

    The engine calls :meth:`check_program` once, after every file has
    been parsed, with the full list of sources — the flow rules build
    their call graph from it, and the digest-exclusion staleness check
    cross-references allowlist entries against every seen dataclass.
    Findings still anchor to one (path, line) each, so suppressions and
    the baseline work unchanged.
    """

    def check(self, src: SourceFile) -> Iterable[Finding]:
        return ()

    def check_program(
        self, sources: "list[SourceFile]"
    ) -> Iterable[Finding]:  # pragma: no cover
        raise NotImplementedError


_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: add a rule to the registry, keyed by its code."""
    if not cls.code:
        raise LintError(f"rule {cls.__name__} has no code")
    if cls.code in _REGISTRY and _REGISTRY[cls.code] is not cls:
        raise LintError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def rule_codes() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def all_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate every registered rule (or the selected codes)."""
    if select is None:
        return [_REGISTRY[code]() for code in sorted(_REGISTRY)]
    rules = []
    for code in select:
        if code not in _REGISTRY:
            raise LintError(
                f"unknown rule code {code!r}; known: {', '.join(rule_codes())}"
            )
        rules.append(_REGISTRY[code]())
    return rules
