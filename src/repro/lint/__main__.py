"""CLI for the determinism linter: ``python -m repro.lint [paths]``.

Exit status is the contract CI gates on: 0 when the tree is clean modulo
inline suppressions and the baseline, 1 when any fresh finding remains,
2 on usage/configuration errors.  ``--write-baseline`` snapshots the
current findings into the baseline file (each entry still needs a human
justification — the writer stamps a placeholder that the loader accepts
but a reviewer should replace).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.baseline import Baseline
from repro.lint.core import LintError, SourceFile, all_rules
from repro.lint.engine import discover_files, lint_paths

DEFAULT_BASELINE = "lint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based determinism linter guarding the digest invariant: "
            "flags nondeterministic calls, unordered or lossy float values "
            "flowing into digests, unpicklable worker payloads, and "
            "digest-coverage gaps."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=(
            f"baseline file of acknowledged findings (default: "
            f"{DEFAULT_BASELINE} when it exists)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="snapshot current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule codes and exit"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help=(
            "output format: text (default) or a machine-readable JSON "
            "object with code/path/line/message/fingerprint/chain per "
            "finding (CI annotations consume this)"
        ),
    )
    parser.add_argument(
        "--graph",
        choices=("json", "dot"),
        metavar="{json,dot}",
        help=(
            "export the interprocedural call graph (with taint "
            "annotations) for the given paths instead of linting; the "
            "export is byte-identical across runs"
        ),
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="print findings only"
    )
    return parser


def _export_graph(paths: list[str], fmt: str) -> int:
    """``--graph``: print the annotated call graph and exit."""
    from repro.lint.flow import export_graph
    from repro.lint.flow.rules import analyze

    cwd = Path.cwd()
    sources = []
    for file_path in discover_files(paths):
        try:
            sources.append(SourceFile.load(file_path, cwd))
        except SyntaxError as err:
            print(
                f"error: cannot parse {file_path}: {err.msg}", file=sys.stderr
            )
            return 2
    program, analysis = analyze(sources)
    sys.stdout.write(export_graph(program, analysis, fmt))
    return 0


def _render_json(result) -> str:
    payload = {
        "findings": [
            {
                "code": f.code,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
                "fingerprint": list(f.fingerprint()),
                "chain": list(f.chain),
                "source": (
                    {"path": f.source_ref[0], "line": f.source_ref[1]}
                    if f.source_ref is not None
                    else None
                ),
            }
            for f in result.findings
        ],
        "files": result.files,
        "suppressed": result.suppressed,
        "baselined": result.baselined,
        "stale_baseline": [
            {"code": code, "path": path, "line_text": line_text}
            for code, path, line_text in result.stale_baseline
        ],
        "ok": result.ok,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}")
            print(f"    {rule.summary}")
        return 0

    if args.graph:
        try:
            return _export_graph(args.paths, args.graph)
        except LintError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2

    try:
        rules = (
            all_rules(args.select.split(",")) if args.select else all_rules()
        )

        baseline_path = args.baseline or DEFAULT_BASELINE
        baseline = None
        if not args.no_baseline and not args.write_baseline:
            if args.baseline is not None or Path(baseline_path).exists():
                baseline = Baseline.load(baseline_path)

        result = lint_paths(args.paths, rules=rules, baseline=baseline)
    except LintError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.write_baseline:
        snapshot = Baseline.from_findings(
            result.findings, "FIXME: justify or fix this acknowledged finding"
        )
        snapshot.save(baseline_path)
        if not args.quiet:
            print(
                f"wrote {len(result.findings)} finding(s) to {baseline_path}; "
                "replace the FIXME justifications before committing"
            )
        return 0

    if args.fmt == "json":
        sys.stdout.write(_render_json(result))
        return 0 if result.ok else 1

    for finding in result.findings:
        print(finding.render())
    for code, path, line_text in result.stale_baseline:
        print(
            f"warning: stale baseline entry {code} at {path} "
            f"({line_text!r} no longer flagged) — remove it",
            file=sys.stderr,
        )
    if not args.quiet:
        print(result.summary())
    return 0 if result.ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout died mid-print (e.g. `... | head`); exit quietly with
        # the conventional SIGPIPE status instead of a traceback.
        sys.stderr.close()
        sys.exit(141)
