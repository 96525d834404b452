"""EXP-QT — the quote service's latency ladder and batch throughput.

``repro.quote`` answers one question — "what deposit schedule deters the
rational walk on this deal?" — through a three-tier ladder: closed forms
(tier 1), cached refined-frontier rows (tier 2), and a narrow measured
fallback that warms the cache for next time (tier 3).  The service is
only useful if the ladder's latency story holds, so this module measures
it:

1. **per-tier latency** — p50/p99 of the stamped ``Quote.latency_ms``
   for each rung: closed forms over every named family and coalition,
   warm cache hits over graph-shaped cells, and the cold measured
   fallback that created those cells.
2. **batch throughput** — a 1000-deal heterogeneous basket (all four
   §5.2 families, both named coalitions, ring/complete graphs at three
   shocks) quoted cold, then warm by a second reader of the same cache
   directory, with cold/warm batch-digest parity asserted before any
   rate is reported (a fast service that answers differently is noise).

The committed ``BENCH_quote.json`` carries the measurements plus the CI
budgets; the ``quote-smoke`` job runs ``--gate``, which re-measures and
fails the push if tier 1's p50 exceeds 1 ms, the warm tier-2 p50 exceeds
10 ms, the warm batch drops below 100 quotes/sec, or the cold batch
builds more deposit schedules than it has distinct (cell family,
premium) pairs — schedules are shared per pair, so any extra build is a
lost share — or the warm batch parses more row files than the distinct
row keys it reads — the cache's read memo serves every repeat from
memory.  Those two ceilings are counts, so they hold on any host.

Run directly, the module also times one cold tier-3 quote per dense
clique, ``complete:9`` to ``complete:12`` (:data:`DENSE_CELLS`), and
records the seconds next to the host metadata in ``BENCH_quote.json``.
A cold dense quote is where premium sizing shows: those times are
informational, not a gate.

Run directly to print the tables:  python benchmarks/bench_quote.py
Gate mode (CI):                    python benchmarks/bench_quote.py --gate
"""

from __future__ import annotations

import argparse
import os
import pathlib
import platform
import sys
import tempfile
import time

from repro.campaign.cache import ResultCache
from repro.obs import Tracer
from repro.quote import (
    QuoteEngine,
    QuoteRequest,
    batch_digest,
    deposit_schedule,
    quote_batch,
)

try:
    from benchmarks.tables import format_table, write_bench_json
except ImportError:  # running the file directly from within benchmarks/
    from tables import format_table, write_bench_json

#: CI budgets — ``--gate`` (the quote-smoke job) enforces all five.
TIER1_P50_BUDGET_MS = 1.0
TIER2_WARM_P50_BUDGET_MS = 10.0
BATCH_WARM_QPS_FLOOR = 100.0
#: deposit schedules the cold 1000-deal batch may build: one per distinct
#: (cell family, premium) pair it quotes, as measured.
MAX_SCHEDULE_BUILDS = 17
#: row files the warm 1000-deal batch may parse: one per distinct row key
#: it reads (ring:4 and ring:5 at four shocks), as measured.
MAX_WARM_ROW_READS = 8

#: distinct graph-shaped cells exercising tiers 3 and 2: each is its own
#: refined row — measured once cold, a cache hit ever after.
GRAPH_CELLS = (
    ("ring:4", 0.03),
    ("ring:4", 0.045),
    ("ring:5", 0.045),
    ("complete:4", 0.045),
)

#: dense cliques quoted cold, once each, for the informational
#: ``tier3_cold_complete_s`` record: the first quote of a clique sizes
#: its premiums from scratch.
DENSE_CELLS = tuple((f"complete:{n}", 0.05) for n in range(9, 13))

#: tier-1 rotation: every named family, both coalitions, one pre-stake
#: verdict — the full closed-form surface.
TIER1_SPECS = (
    {"family": "two-party"},
    {"family": "multi-party"},
    {"family": "broker"},
    {"family": "auction"},
    {"family": "multi-party", "coalition": "P1+P2"},
    {"family": "broker", "coalition": "seller+buyer"},
    {"family": "two-party", "stage": "pre-stake"},
)


def _percentile(samples, fraction):
    """Nearest-rank percentile over a small latency sample."""
    ordered = sorted(samples)
    rank = int(fraction * (len(ordered) - 1) + 0.5)
    return ordered[min(len(ordered) - 1, rank)]


def _stats(samples):
    return (
        round(_percentile(samples, 0.50), 4),
        round(_percentile(samples, 0.99), 4),
    )


def generate_tier_latency_table(samples: int = 200):
    """Per-tier p50/p99 of the stamped ``Quote.latency_ms``."""
    with tempfile.TemporaryDirectory() as root:
        engine = QuoteEngine(cache=ResultCache(pathlib.Path(root)))
        tier1 = [
            engine.quote(
                QuoteRequest(**TIER1_SPECS[i % len(TIER1_SPECS)]), tiers=(1,)
            ).latency_ms
            for i in range(samples)
        ]
        # cold measured fallback: one sample per distinct cell, and the
        # store-back is what makes the tier-2 loop below answer at all
        tier3 = [
            engine.quote(QuoteRequest(graph=g, shock=s), tiers=(3,)).latency_ms
            for g, s in GRAPH_CELLS
        ]
        tier2 = [
            engine.quote(
                QuoteRequest(
                    graph=GRAPH_CELLS[i % len(GRAPH_CELLS)][0],
                    shock=GRAPH_CELLS[i % len(GRAPH_CELLS)][1],
                ),
                tiers=(2,),
            ).latency_ms
            for i in range(samples // 2)
        ]
    rows = []
    records = {}
    arms = (
        (1, "closed form", tier1, "tier1"),
        (2, "cached row (warm)", tier2, "tier2_warm"),
        (3, "measured fallback (cold)", tier3, "tier3_cold"),
    )
    for tier, route, latencies, key in arms:
        p50, p99 = _stats(latencies)
        rows.append((tier, route, len(latencies), f"{p50:.3f}", f"{p99:.3f}"))
        records[f"{key}_p50_ms"] = p50
        records[f"{key}_p99_ms"] = p99
    records["tier1_p50_budget_ms"] = TIER1_P50_BUDGET_MS
    records["tier2_warm_p50_budget_ms"] = TIER2_WARM_P50_BUDGET_MS
    return ("tier", "route", "n", "p50 (ms)", "p99 (ms)"), rows, records


def generate_dense_cold_table():
    """Wall seconds of one cold tier-3 quote per :data:`DENSE_CELLS` clique,
    each on a fresh cache, with its quote digest."""
    rows = []
    seconds = {}
    for graph, shock in DENSE_CELLS:
        with tempfile.TemporaryDirectory() as root:
            engine = QuoteEngine(cache=ResultCache(pathlib.Path(root)))
            start = time.perf_counter()
            quote = engine.quote(QuoteRequest(graph=graph, shock=shock), tiers=(3,))
            elapsed = time.perf_counter() - start
        rows.append((graph, shock, f"{elapsed:.3f}", quote.digest()[:12]))
        seconds[graph] = round(elapsed, 3)
    return ("graph", "shock", "seconds", "quote digest"), rows, {
        "tier3_cold_complete_s": seconds
    }


def mixed_basket(n: int = 1000):
    """A heterogeneous basket: the tier-1 rotation plus graph-shaped
    deals, each cycled through four shock assumptions (the cycle lengths
    are coprime, so every spec meets every shock)."""
    specs = TIER1_SPECS + ({"graph": "ring:4"}, {"graph": "ring:5"})
    shocks = (0.03, 0.045, 0.06, 0.075)
    return [
        QuoteRequest(shock=shocks[i % len(shocks)], **specs[i % len(specs)])
        for i in range(n)
    ]


def _tier_mix(quotes):
    counts = {}
    for quote in quotes:
        counts[quote.tier] = counts.get(quote.tier, 0) + 1
    return " ".join(f"t{tier}:{counts[tier]}" for tier in sorted(counts))


def generate_batch_throughput_table(n: int = 1000):
    """Cold vs warm batch throughput on one cache directory.

    The warm batch runs on a second :class:`ResultCache` over the same
    root, as another serving process would, and counts the row files it
    parses (``cache.read``).
    """
    requests = mixed_basket(n)
    with tempfile.TemporaryDirectory() as root:
        engine = QuoteEngine(cache=ResultCache(pathlib.Path(root)))
        deposit_schedule.cache_clear()  # cold means no shared schedule yet
        start = time.perf_counter()
        cold = quote_batch(engine, requests)
        cold_seconds = time.perf_counter() - start
        schedule_builds = deposit_schedule.cache_info().misses
        reader = ResultCache(pathlib.Path(root))
        reader.tracer = counts = Tracer()
        engine = QuoteEngine(cache=reader)
        start = time.perf_counter()
        warm = quote_batch(engine, requests)
        warm_seconds = time.perf_counter() - start
        row_reads = int(counts.metrics.counter("cache.read"))
    # Parity first: the warm run answers from the cache the cold run
    # filled, and every member quote must be byte-identical.
    assert batch_digest(cold) == batch_digest(warm)
    rows = [
        ("cold", n, f"{cold_seconds:.3f}", f"{n / cold_seconds:.0f}", _tier_mix(cold)),
        ("warm", n, f"{warm_seconds:.3f}", f"{n / warm_seconds:.0f}", _tier_mix(warm)),
    ]
    records = {
        "batch_size": n,
        "batch_cold_qps": round(n / cold_seconds, 1),
        "batch_cold_schedule_builds": schedule_builds,
        "batch_cold_schedule_builds_ceiling": MAX_SCHEDULE_BUILDS,
        "batch_warm_qps": round(n / warm_seconds, 1),
        "batch_warm_qps_floor": BATCH_WARM_QPS_FLOOR,
        "batch_warm_row_reads": row_reads,
        "batch_warm_row_reads_ceiling": MAX_WARM_ROW_READS,
        "batch_digest_parity": True,
    }
    return ("cache", "deals", "seconds", "quotes/sec", "tier mix"), rows, records


def run_gate() -> int:
    """CI perf gate: re-measure and enforce the committed budgets."""
    lat_header, lat_rows, lat = generate_tier_latency_table()
    print(format_table("quote latency ladder", lat_header, lat_rows))
    print()
    thr_header, thr_rows, thr = generate_batch_throughput_table()
    print(format_table("batch throughput (cold vs warm)", thr_header, thr_rows))
    print()
    failures = []
    if lat["tier1_p50_ms"] > TIER1_P50_BUDGET_MS:
        failures.append(
            f"tier-1 p50 {lat['tier1_p50_ms']} ms exceeds the "
            f"{TIER1_P50_BUDGET_MS} ms budget"
        )
    if lat["tier2_warm_p50_ms"] > TIER2_WARM_P50_BUDGET_MS:
        failures.append(
            f"warm tier-2 p50 {lat['tier2_warm_p50_ms']} ms exceeds the "
            f"{TIER2_WARM_P50_BUDGET_MS} ms budget"
        )
    if thr["batch_warm_qps"] < BATCH_WARM_QPS_FLOOR:
        failures.append(
            f"warm batch rate {thr['batch_warm_qps']} q/s is below the "
            f"{BATCH_WARM_QPS_FLOOR} q/s floor"
        )
    builds = thr["batch_cold_schedule_builds"]
    print(f"schedule builds: {builds} (ceiling {MAX_SCHEDULE_BUILDS})")
    if builds > MAX_SCHEDULE_BUILDS:
        failures.append(
            f"the cold batch built {builds} deposit schedules, above the "
            f"{MAX_SCHEDULE_BUILDS} distinct (family, premium) pairs it quotes"
        )
    reads = thr["batch_warm_row_reads"]
    print(f"row file reads: {reads} (ceiling {MAX_WARM_ROW_READS})")
    if reads > MAX_WARM_ROW_READS:
        failures.append(
            f"the warm batch parsed {reads} row files, above the "
            f"{MAX_WARM_ROW_READS} distinct row keys it reads"
        )
    for failure in failures:
        print(f"GATE FAIL: {failure}")
    if not failures:
        print("quote perf gate: all budgets met")
    return 1 if failures else 0


# ----------------------------------------------------------------------
# pytest-benchmark arms (run via `pytest benchmarks/bench_quote.py`);
# bounds are deliberately 10x the CI budgets so they never flake — the
# tight gates live in run_gate(), where a slow box fails visibly rather
# than intermittently.
# ----------------------------------------------------------------------
def test_ladder_latency_is_sane(benchmark):
    _, _, records = benchmark.pedantic(
        generate_tier_latency_table, kwargs={"samples": 50}, rounds=1, iterations=1
    )
    assert records["tier1_p50_ms"] <= 10 * TIER1_P50_BUDGET_MS
    assert records["tier2_warm_p50_ms"] <= 10 * TIER2_WARM_P50_BUDGET_MS


def test_batch_is_digest_stable_and_fast(benchmark):
    _, _, records = benchmark.pedantic(
        generate_batch_throughput_table, kwargs={"n": 120}, rounds=1, iterations=1
    )
    assert records["batch_digest_parity"]
    assert records["batch_warm_qps"] >= BATCH_WARM_QPS_FLOOR / 10


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--gate",
        action="store_true",
        help="enforce the CI latency/throughput budgets (exit 1 on breach)",
    )
    args = parser.parse_args()
    if args.gate:
        sys.exit(run_gate())
    lat_header, lat_rows, lat_records = generate_tier_latency_table()
    print(format_table(
        "EXP-QT: quote latency ladder (per-tier p50/p99)", lat_header, lat_rows
    ))
    print()
    thr_header, thr_rows, thr_records = generate_batch_throughput_table()
    print(format_table(
        "EXP-QT: 1000-deal heterogeneous batch, cold vs warm",
        thr_header, thr_rows,
    ))
    print()
    dense_header, dense_rows, dense_records = generate_dense_cold_table()
    print(format_table(
        "EXP-QT: cold tier-3 quotes on dense cliques (informational)",
        dense_header, dense_rows,
    ))
    host = {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    write_bench_json(
        "quote",
        {
            "experiment": "EXP-QT",
            "host": host,
            **lat_records,
            **thr_records,
            **dense_records,
        },
    )
