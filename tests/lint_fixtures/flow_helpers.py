"""Helpers for ``seeded_flow.py`` (never executed; see README.md).

Every hazard lives *here*, in functions whose names carry no digest or
label scent and whose bodies never touch :mod:`hashlib` — so the
per-file rules (DET/DIG/POOL) provably stay silent on this module.  Only the interprocedural flow pass can connect these sources
to the sinks in ``seeded_flow.py``.
"""

import time


def wall_stamp() -> float:
    # DET001 deliberately blesses perf_counter (the sanctioned timer);
    # the hazard only exists because seeded_flow.digest_batch hashes it.
    return time.perf_counter()


def jittered_stamp() -> float:
    # One more hop: the source sits two calls away from the sink.
    return wall_stamp() + 0.0


def dedup_entries(raw) -> list:
    # Set comprehension far from any digest scope: no per-file rule sees it.
    return [entry for entry in {item.strip() for item in raw}]


def pct_text(x: float) -> str:
    # Lossy float text far from label/digest scope: no per-file rule sees it.
    return f"{x:g}"
