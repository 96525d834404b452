"""EXP-C1 — campaign engine throughput: backends, pool reuse, caching.

The campaign engine executes the full six-family adversarial matrix
(two-party premium-grid/stretched-timeout schedules incl. adversary
pairs, multi-party graphs up to ring:8, broker/auction/sealed-auction/
bootstrap halts) through both backends and reports scenarios/sec plus the
reproducibility digest.  The digests MUST match across backends —
scenario execution is deterministic and order-preserving regardless of
process layout.

The pool-reuse table runs back-to-back campaigns two ways — forking a
fresh pool per run versus dispatching through one persistent
:class:`WorkerPool` — and must show reuse winning: the fork/teardown tax
is paid once instead of per run.

The cache table (EXP-C3) runs the same spec cold and then warm through
the incremental result cache: the warm run must report a 100% hit-rate,
reproduce the cold digest byte-identically, and beat it on wall clock.

Run directly to print the tables; a machine-readable
``BENCH_campaign.json`` (scenarios/sec, cache hit-rate, spec digest) is
written alongside:  python benchmarks/bench_campaign.py

Gate mode (CI) is a ratchet that does not depend on host speed.  It runs
the multi-party family serially, through a pool opened for the run and
through a persistent :class:`WorkerPool`, and fails if a block's builds
stop sharing one graph, if a block's premium memos grow after its first
build (per-scenario invariants recomputed in the hot path), or if the
serial, process and persistent-pool digests differ.  Two dispatch
balance checks ride along: statically, no task of the default matrix's
dispatch layout may hold more than ``ceil(size / K)`` scenarios of any
block (``K = workers × 8``), and a traced 2-worker run of the default
matrix must keep worker busy skew (max/mean busy seconds) within
:data:`MAX_BUSY_SKEW`:
python benchmarks/bench_campaign.py --gate
"""

import argparse
import math
import os
import sys
import tempfile
import time

from repro.campaign import (
    CampaignRunner,
    Experiment,
    ResultCache,
    WorkerPool,
    campaign_spec,
    default_matrix,
)
from repro.campaign.pool import TASKS_PER_WORKER, default_workers, dispatch_layout
from repro.core.premiums import memo_sizes
from repro.obs import Tracer, phase_fragments

try:
    from benchmarks.tables import format_table, write_bench_json
except ImportError:  # running the file directly from within benchmarks/
    from tables import format_table, write_bench_json

# Back-to-back pool-reuse comparison: a few medium-sized campaigns where
# per-run fork cost is a visible fraction of the work.
REUSE_FAMILIES = ("broker", "auction", "sealed-auction", "bootstrap")
REUSE_RUNS = 4

# The family whose builds size premiums from per-graph memos.
GATE_FAMILIES = ("multi-party",)

# Worker busy skew (max/mean busy seconds) allowed on a traced 2-worker
# run of the default matrix.  Striped tasks give about 1.05; contiguous
# chunks gave about 1.4, because the complete:5-8 blocks landed in one.
MAX_BUSY_SKEW = 1.2


def _run(backend: str, workers: int | None = None, tracer: Tracer | None = None):
    matrix = default_matrix()
    return CampaignRunner(
        matrix, backend=backend, workers=workers, tracer=tracer
    ).run()


def generate_campaign_table():
    rows = []
    records = []
    digests = []
    for backend, workers in (("serial", None), ("process", None), ("process", 2)):
        # A sink-less tracer collects per-phase timing without writing a
        # trace file; telemetry is digest-inert, so the cross-backend
        # digest assertion below also guards the traced path.
        tracer = Tracer()
        report = _run(backend, workers, tracer=tracer)
        digests.append(report.run_digest)
        label = backend if workers is None else f"{backend} (workers={workers})"
        rows.append(
            (
                label,
                report.scenarios,
                report.transactions,
                f"{report.elapsed_seconds:.2f}s",
                f"{report.scenarios_per_second:.0f}/s",
                len(report.violations),
                report.run_digest[:12],
            )
        )
        records.append(
            {
                "backend": label,
                "scenarios": report.scenarios,
                "elapsed_seconds": report.elapsed_seconds,
                "scenarios_per_second": report.scenarios_per_second,
                "run_digest": report.run_digest,
                "phases": phase_fragments(tracer.metrics.snapshot()),
            }
        )
    assert len(set(digests)) == 1, f"backend digests diverged: {digests}"
    header = (
        "backend", "scenarios", "transactions", "time", "throughput",
        "violations", "digest",
    )
    return header, rows, records


def generate_pool_reuse_table():
    """Fresh pool per run vs one persistent pool, back to back."""
    start = time.perf_counter()
    fresh = [
        CampaignRunner(default_matrix(families=REUSE_FAMILIES), backend="process").run()
        for _ in range(REUSE_RUNS)
    ]
    fresh_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    with WorkerPool() as pool:
        pooled = [
            CampaignRunner(
                default_matrix(families=REUSE_FAMILIES), backend="process", pool=pool
            ).run()
            for _ in range(REUSE_RUNS)
        ]
    pooled_elapsed = time.perf_counter() - start

    assert {r.run_digest for r in fresh} == {r.run_digest for r in pooled}, (
        "pool reuse changed the run digest"
    )
    scenarios = fresh[0].total_scenarios * REUSE_RUNS
    rows = [
        (
            "fresh pool per run",
            REUSE_RUNS,
            scenarios,
            f"{fresh_elapsed:.2f}s",
            f"{scenarios / fresh_elapsed:.0f}/s",
            fresh[0].run_digest[:12],
        ),
        (
            "persistent WorkerPool",
            REUSE_RUNS,
            scenarios,
            f"{pooled_elapsed:.2f}s",
            f"{scenarios / pooled_elapsed:.0f}/s",
            pooled[0].run_digest[:12],
        ),
    ]
    header = ("strategy", "runs", "scenarios", "time", "throughput", "digest")
    return header, rows, fresh_elapsed, pooled_elapsed


def generate_cache_table():
    """EXP-C3: one spec, cold vs warm through the incremental cache."""
    spec = campaign_spec(families=REUSE_FAMILIES)
    root = tempfile.mkdtemp(prefix="repro-bench-cache-")
    cold = Experiment(spec, cache=ResultCache(root)).run().campaign
    warm = Experiment(spec, cache=ResultCache(root)).run().campaign
    assert warm.run_digest == cold.run_digest, "warm cache changed the digest"
    rows = []
    records = {"spec_digest": spec.digest()}
    for label, report in (("cold", cold), ("warm", warm)):
        rows.append(
            (
                label,
                report.scenarios,
                f"{report.cache_hit_rate:.0%}",
                f"{report.elapsed_seconds:.3f}s",
                # Delivery rate: a fully-warm run *executes* nothing
                # (scenarios_per_second is honestly 0), but it still
                # serves scenarios — that is the rate worth comparing.
                f"{report.served_per_second:.0f}/s served",
                report.run_digest[:12],
            )
        )
        records[label] = {
            "scenarios": report.scenarios,
            "cache_hits": report.cache_hits,
            "cache_hit_rate": report.cache_hit_rate,
            "elapsed_seconds": report.elapsed_seconds,
            "scenarios_per_second": report.scenarios_per_second,
            "served_per_second": report.served_per_second,
            "run_digest": report.run_digest,
        }
    header = ("run", "scenarios", "hit-rate", "time", "throughput", "digest")
    return header, rows, records


def layout_imbalance(matrix, workers: int) -> list[str]:
    """Blocks of which some dispatch task holds more than ``ceil(size/K)``."""
    n = len(matrix)
    # K comes from the policy, not from len(layout): a layout with fewer,
    # fatter tasks must fail too.
    stripes = min(n, workers * TASKS_PER_WORKER)
    layout = dispatch_layout(n, workers)
    failures = []
    for start, size, block in matrix.block_ranges():
        most = max(sum(start <= i < start + size for i in group) for group in layout)
        if size and most > math.ceil(size / stripes):
            failures.append(
                f"workers={workers}: a task holds {most} of the {size} scenarios "
                f"of {block.family}:{block.schedule} (cap {math.ceil(size / stripes)})"
            )
    return failures


def worker_busy_skew(workers: int = 2) -> tuple[float, list[float]]:
    """max/mean worker busy seconds on a traced run of the default matrix."""
    tracer = Tracer()
    CampaignRunner(
        default_matrix(), backend="process", workers=workers, tracer=tracer
    ).run()
    busy = [
        stat.total
        for name, stat in tracer.metrics.snapshot().timings
        if name.startswith("worker.") and name.endswith(".busy_seconds")
    ]
    return max(busy) / (sum(busy) / workers), busy


def run_gate() -> int:
    """CI ratchet: shared graphs, memos that stop growing, digest parity,
    and balanced dispatch."""
    matrix = default_matrix(families=GATE_FAMILIES)
    first = []
    for block in matrix.blocks:
        graph = block.builder().meta["graph"]
        first.append((graph, memo_sizes(graph)))
    serial = CampaignRunner(matrix, backend="serial").run()
    process = CampaignRunner(matrix, backend="process").run()
    with WorkerPool() as pool:
        pooled = CampaignRunner(matrix, backend="process", pool=pool).run()

    failures = []
    rows = []
    for block, (graph, before) in zip(matrix.blocks, first):
        shared = block.builder().meta["graph"] is graph
        after = memo_sizes(graph)
        rows.append(
            (
                block.schedule,
                block.size(),
                "yes" if shared else "NO",
                "/".join(str(n) for n in before.values()),
                "/".join(str(n) for n in after.values()),
            )
        )
        if not shared:
            failures.append(f"{block.schedule}: builds no longer share one graph")
        grown = [name for name in after if after[name] != before[name]]
        if grown:
            failures.append(
                f"{block.schedule}: memos {grown} grew after the first build"
            )
    if not serial.run_digest == process.run_digest == pooled.run_digest:
        failures.append(
            f"digests differ: serial {serial.run_digest[:12]}, process "
            f"{process.run_digest[:12]}, pooled {pooled.run_digest[:12]}"
        )
    header = (
        "block", "scenarios", "shared graph",
        "memos at first build (eq1/paths/worst)", "memos after run",
    )
    print(format_table("campaign gate: per-block premium memos", header, rows))
    print(
        f"serial {serial.scenarios_per_second:.0f} scen/s, "
        f"process {process.scenarios_per_second:.0f} scen/s (informational); "
        f"digest {serial.run_digest[:12]}"
    )

    full = default_matrix()
    for workers in sorted({2, 4, default_workers()}):
        breaches = layout_imbalance(full, workers)
        failures.extend(breaches[:3])
        if len(breaches) > 3:
            failures.append(f"workers={workers}: {len(breaches) - 3} more blocks")
    skew, busy = worker_busy_skew()
    print(
        f"dispatch: traced 2-worker run of {len(full)} scenarios, busy "
        + " / ".join(f"{b:.2f}s" for b in busy)
        + f", skew {skew:.3f} (max {MAX_BUSY_SKEW})"
    )
    if skew > MAX_BUSY_SKEW:
        failures.append(
            f"worker busy skew {skew:.3f} > {MAX_BUSY_SKEW}: dispatch tasks "
            "no longer carry balanced shares of the expensive blocks"
        )
    for failure in failures:
        print(f"GATE FAIL: {failure}")
    if not failures:
        print("campaign gate: all checks passed")
    return 1 if failures else 0


# ----------------------------------------------------------------------
def test_campaign_backends_agree(benchmark):
    header, rows, _ = benchmark.pedantic(
        generate_campaign_table, rounds=1, iterations=1
    )
    assert all(r[5] == 0 for r in rows)
    assert all(r[1] >= 3000 for r in rows)  # the acceptance-scale matrix
    assert len({r[6] for r in rows}) == 1  # identical run digests


def test_pool_reuse_beats_fresh_pools(benchmark):
    _, _, fresh_elapsed, pooled_elapsed = benchmark.pedantic(
        generate_pool_reuse_table, rounds=1, iterations=1
    )
    # Small tolerance: the fork/teardown savings are real but can sit
    # within scheduler noise on a loaded single-core machine.
    assert pooled_elapsed < fresh_elapsed * 1.1, (
        f"pool reuse ({pooled_elapsed:.2f}s) should beat fresh pools "
        f"({fresh_elapsed:.2f}s) on back-to-back runs"
    )


def test_warm_cache_hits_everything_and_keeps_the_digest(benchmark):
    _, _, records = benchmark.pedantic(
        generate_cache_table, rounds=1, iterations=1
    )
    assert records["warm"]["cache_hit_rate"] == 1.0
    assert records["warm"]["run_digest"] == records["cold"]["run_digest"]
    assert records["cold"]["cache_hit_rate"] == 0.0
    # a warm run replays stored results: it must beat re-simulation
    assert records["warm"]["elapsed_seconds"] < records["cold"]["elapsed_seconds"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--gate",
        action="store_true",
        help="enforce the shared-graph memo ratchet, digest parity and "
        "dispatch balance (exit 1 on breach)",
    )
    if parser.parse_args().gate:
        sys.exit(run_gate())
    print(f"cpus: {os.cpu_count()}")
    c1_header, c1_rows, c1_records = generate_campaign_table()
    print(format_table("EXP-C1: campaign engine throughput", c1_header, c1_rows))
    header, rows, fresh_elapsed, pooled_elapsed = generate_pool_reuse_table()
    print(format_table("EXP-C2: worker-pool reuse (back-to-back runs)", header, rows))
    print(
        f"pool reuse saved {fresh_elapsed - pooled_elapsed:.2f}s over "
        f"{REUSE_RUNS} runs ({fresh_elapsed / pooled_elapsed:.2f}x)"
    )
    c3_header, c3_rows, c3_records = generate_cache_table()
    print(format_table("EXP-C3: incremental result cache (cold vs warm)", c3_header, c3_rows))
    write_bench_json(
        "campaign",
        {
            "experiment": "EXP-C1/C2/C3",
            "spec_digest": campaign_spec().digest(),
            "backends": c1_records,
            "pool_reuse": {
                "runs": REUSE_RUNS,
                "fresh_elapsed_seconds": fresh_elapsed,
                "pooled_elapsed_seconds": pooled_elapsed,
            },
            "cache": c3_records,
        },
        # The serial run's phase breakdown is the canonical one: no
        # fork/dispatch noise, so expand/dispatch/fold shares compare
        # cleanly across PRs.
        phases=c1_records[0]["phases"],
    )
