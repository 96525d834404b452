"""The lint engine: discover files, run rules, fold suppressions/baseline.

File discovery is itself held to the determinism bar the linter
enforces: files are collected per argument and sorted by posix-style
path, so the finding list — and therefore the CLI output and any
baseline written from it — is byte-identical regardless of filesystem
enumeration order or argument shuffling within a directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.baseline import Baseline
from repro.lint.core import (
    Finding,
    LintError,
    ProgramRule,
    Rule,
    SourceFile,
    all_rules,
)


@dataclass
class LintResult:
    """Everything one lint run observed."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0
    baselined: int = 0
    stale_baseline: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        status = "clean" if self.ok else f"{len(self.findings)} finding(s)"
        extras = []
        if self.suppressed:
            extras.append(f"{self.suppressed} suppressed inline")
        if self.baselined:
            extras.append(f"{self.baselined} baselined")
        if self.stale_baseline:
            extras.append(f"{len(self.stale_baseline)} stale baseline entries")
        detail = f" ({', '.join(extras)})" if extras else ""
        return f"{status} across {self.files} file(s){detail}"


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Every ``.py`` file under the arguments, deterministically ordered.

    Sorted by posix path per argument, so finding order (and any baseline
    written from it) is independent of filesystem enumeration order.
    Overlapping arguments (a directory and a file inside it) yield each
    file once, at its first position.  Display paths are anchored to the
    working directory when possible, so a baseline written by
    ``python -m repro.lint src/repro`` from the repo root matches every
    later invocation from the same place.
    """
    out: dict[Path, Path] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.rglob("*.py"), key=lambda p: p.as_posix())
        elif path.is_file():
            found = [path]
        else:
            raise LintError(f"no such file or directory: {path}")
        for file_path in found:
            out.setdefault(file_path.resolve(), file_path)
    return list(out.values())


def lint_paths(
    paths: Sequence[str | Path],
    rules: Iterable[Rule] | None = None,
    baseline: Baseline | None = None,
) -> LintResult:
    """Run rules over the trees/files given; fold in suppressions/baseline."""
    active = list(rules) if rules is not None else all_rules()
    result = LintResult()
    raw: list[Finding] = []
    sources: list[SourceFile] = []
    cwd = Path.cwd()

    def fold(src: SourceFile, finding: Finding) -> None:
        span = finding.span or (finding.line, finding.line)
        if src.is_suppressed_span(finding.code, span):
            result.suppressed += 1
        else:
            raw.append(finding)

    for file_path in discover_files(paths):
        result.files += 1
        try:
            src = SourceFile.load(file_path, cwd)
        except SyntaxError as err:
            raw.append(
                Finding(
                    path=file_path.as_posix(),
                    line=err.lineno or 1,
                    col=(err.offset or 0) + 1,
                    code="LINT901",
                    message=f"cannot parse: {err.msg}",
                )
            )
            continue
        sources.append(src)
        for rule in active:
            if isinstance(rule, ProgramRule):
                continue
            for finding in rule.check(src):
                fold(src, finding)

    by_path = {src.display_path: src for src in sources}
    for rule in active:
        if not isinstance(rule, ProgramRule):
            continue
        for finding in rule.check_program(sources):
            src = by_path.get(finding.path)
            if src is None:
                raw.append(finding)
            else:
                fold(src, finding)

    raw.sort()
    if baseline is not None:
        fresh, matched, stale = baseline.partition(raw)
        result.findings = fresh
        result.baselined = matched
        result.stale_baseline = stale
    else:
        result.findings = raw
    return result
