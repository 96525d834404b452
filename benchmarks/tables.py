"""Tiny table formatter shared by the benchmark harness.

Every experiment module exposes ``generate_*`` functions returning
``(header, rows)`` pairs; running a module directly prints the regenerated
paper artifact, and the pytest-benchmark tests both time the generators and
assert the paper's qualitative claims on the produced rows.

:func:`write_bench_json` is the machine-readable sibling of the printed
tables: running a benchmark module directly also drops a ``BENCH_*.json``
next to the invocation (scenarios/sec, cache hit-rates, spec and run
digests), so the performance trajectory is trackable across PRs without
scraping stdout.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
from typing import Iterable, Sequence


def host_metadata() -> dict:
    """The ``host`` block of a ``BENCH_*.json``: what the figures next to
    it were measured on."""
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def write_bench_json(
    name: str,
    payload: dict,
    directory: str | None = None,
    phases: dict | None = None,
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` (sorted keys, indented) and return it.

    ``phases`` takes the ``repro.obs.phase_fragments`` of a traced run —
    ``{phase: {count, total_seconds}}`` — and embeds it under a
    top-level ``"phases"`` key, so committed baselines carry a
    phase-level timing breakdown next to their headline throughput.
    """
    if phases:
        payload = {**payload, "phases": phases}
    path = pathlib.Path(directory or ".") / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"machine-readable results written to {path}")
    return path


def format_table(title: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned text table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in header]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "  "
    lines = [title, "=" * len(title)]
    lines.append(sep.join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append(sep.join("-" * widths[i] for i in range(len(header))))
    for row in materialized:
        lines.append(sep.join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
