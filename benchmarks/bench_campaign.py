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
stop sharing one graph, if a block's premium plan grows after its first
build (per-scenario invariants recomputed in the hot path), if the cold
sizing of the fresh matrix visits more member-set search states than
:data:`MAX_SIZING_STATES` (worst-case funding back on an enumeration of
every path member set), if the
serial, process and persistent-pool digests differ, or if the serial
digest is not the committed :data:`GATE_RUN_DIGEST` (a change that moves
every backend's digest together still fails).  On the serial run
it also counts two leaf operations from outside the program, the way
``perfbench/layers.py`` wraps layers: settlement ticks (``on_tick``) and
signature MACs (``signatures._mac``).  Either count above its committed
ceiling fails the gate: a contract that stops deriving its next tick
from its state, a verifier that stops consulting the registry's memo, or
a campaign that stops forking a block's halting scenarios from one
compliant base run, shows up as a count on any host.  One serial pass of
the default matrix likewise counts the runner's ``on_round`` calls and
``Blockchain.advance`` calls against :data:`MAX_ON_ROUND_CALLS` and
:data:`MAX_ADVANCE_CALLS`: an actor that stops reporting its idle
rounds, a chain advanced with nothing to do, or a compliant prefix
simulated once per scenario, shows up as a count.  The same pass counts
``signatures.verify`` and ``Contract._next_tick`` calls against
:data:`MAX_VERIFY_CALLS` and :data:`MAX_NEXT_TICK_CALLS`: a contract that
re-walks a signed path that already validated in its world, or a chain
that recomputes a contract's next tick after each transaction rather
than once per block, shows up as a count.  The gate's run must also
leave no garbage for the cycle collector: every collection over it, and
a final one after it, is counted through :data:`gc.callbacks`, and more than
:data:`MAX_CYCLIC_GARBAGE` freed objects fails.  A chain owns its
contracts and each contract refers back weakly, so a finished world is
freed by reference counting alone; a new back-pointer or self-referencing
closure on the scenario path shows up as a count.  Two dispatch
balance checks ride along: statically, no task of the default matrix's
dispatch layout may hold more than ``ceil(size / K)`` scenarios of any
block (``K = workers × 8``), and a traced 2-worker run of the default
matrix must keep worker busy skew (max/mean busy seconds) within
:data:`MAX_BUSY_SKEW`.  Last, a fresh interpreter runs a plain serial
campaign, and the ``repro`` modules it loads must number at most
:data:`MAX_CAMPAIGN_MODULES`: packages re-export lazily, so an eager
import of the ablation stack, the experiment facade or the model
checker's explorer shows up as a count:
python benchmarks/bench_campaign.py --gate
"""

import argparse
import contextlib
import gc
import math
import os
import subprocess
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
from repro.core.premiums import premium_plan
from repro.obs import Tracer, phase_fragments

try:
    from benchmarks.tables import format_table, host_metadata, write_bench_json
except ImportError:  # running the file directly from within benchmarks/
    from tables import format_table, host_metadata, write_bench_json

# Back-to-back pool-reuse comparison: a few medium-sized campaigns where
# per-run fork cost is a visible fraction of the work.
REUSE_FAMILIES = ("broker", "auction", "sealed-auction", "bootstrap")
REUSE_RUNS = 4

# The family whose builds size premiums from per-graph premium plans.
GATE_FAMILIES = ("multi-party",)

# Member-set search states that sizing the fresh gate matrix may visit:
# the exact count with the inclusion-minimal search, one search per
# (redeemer, leader) pair; later builds add none.  Enumerating every path
# member set instead visits 18,410, almost all on the complete:N blocks.
MAX_SIZING_STATES = 1_012

# The run digest of the gate's serial multi-party run.  Backends agreeing
# with each other is not enough: a change that moves them all together
# must fail too.
GATE_RUN_DIGEST = (
    "1b9331af94ce8f3e0998e4455e4330ec023e986cb46e3a02f4801837a4b71d18"
)

# Leaf-operation ceilings for one serial run of the gate's multi-party
# matrix: the exact counts once each contract derived its next tick from
# its state (static tick windows gave 104,096), the signature memo landed,
# and each block's halting scenarios forked from one compliant base run
# (running each scenario by itself gave 7,094 and 24,886: settlement ticks
# fall after the fork rounds, so only the MACs drop).  A count is a
# property of the code, not of the host, so the ceiling is the count
# itself; lower it when a change cuts more work.
MAX_ON_TICK_CALLS = 7_094
MAX_MAC_CALLS = 7_246

# Round-work ceilings for one serial pass of the default matrix: the exact
# counts once rounds became event-driven (polling every actor and
# advancing every chain each round gave 194,822 and 191,495) and halting
# scenarios forked from their block's compliant base run (running each
# scenario by itself gave 116,041 and 31,436).
MAX_ON_ROUND_CALLS = 55_692
MAX_ADVANCE_CALLS = 15_187

# Check-work ceilings for the same serial default pass: the exact counts
# once each world remembered the signed paths and hashkeys that validated
# in it, a block recomputed each called contract's next tick once
# (re-walking every path and recomputing after every transaction gave
# 97,738 and 102,511), and halting scenarios forked from their block's
# compliant base run (running each scenario by itself gave 30,364 and
# 73,162).
MAX_VERIFY_CALLS = 9_320
MAX_NEXT_TICK_CALLS = 30_357

# Objects the cycle collector may free over the serial gate run.  Every
# simulated world is acyclic, so the count is zero; the contract -> chain
# back-pointer and the recursive premium and graph closures left 680,843.
MAX_CYCLIC_GARBAGE = 0

# Worker busy skew (max/mean busy seconds) allowed on a traced 2-worker
# run of the default matrix.  Striped tasks give about 1.05; contiguous
# chunks gave about 1.4, because the complete:5-8 blocks landed in one.
MAX_BUSY_SKEW = 1.2

# The repro modules a fresh interpreter loads to run the default matrix
# serially: the exact count once packages re-exported lazily and the
# runner stopped importing the result cache it does not use.  Eager
# package imports loaded 71 (the ablation stack, the experiment facade,
# the trace summary and the model checker's explorer among them).
MAX_CAMPAIGN_MODULES = 57

PLAIN_CAMPAIGN = """
import sys
from repro.campaign.families import default_matrix
from repro.campaign.runner import CampaignRunner
CampaignRunner(default_matrix(), backend="serial").run()
print(sum(name.split(".")[0] == "repro" for name in sys.modules))
"""


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


@contextlib.contextmanager
def counting_leaf_calls():
    """Count ``on_tick`` and ``signatures._mac`` calls inside the block.

    Yields the counts dict.  The program is wrapped from outside and
    restored on exit.  Every contract ticks through the base class's
    ``on_tick`` (no subclass defines its own), so wrapping it counts them
    all.
    """
    import repro.crypto.signatures as signatures
    from repro.contracts.base import Contract

    counts = {"on_tick": 0, "mac": 0}
    on_tick, mac = Contract.on_tick, signatures._mac

    def counted_tick(self, height):
        counts["on_tick"] += 1
        return on_tick(self, height)

    def counted_mac(private, message):
        counts["mac"] += 1
        return mac(private, message)

    Contract.on_tick = counted_tick
    signatures._mac = counted_mac
    try:
        yield counts
    finally:
        signatures._mac = mac
        Contract.on_tick = on_tick


@contextlib.contextmanager
def counting_round_calls():
    """Count the runner's ``on_round`` calls and ``Blockchain.advance``
    calls inside the block.

    Yields the counts dict.  Every actor class loaded so far is wrapped
    from outside and restored on exit; a wrapper's call to its inner
    actor is part of the same round and is not counted again.
    """
    from repro.chain.blockchain import Blockchain
    from repro.parties.base import Actor

    counts = {"on_round": 0, "advance": 0}
    depth = [0]

    def counted_round(original):
        def on_round(self, rnd, view):
            if depth[0] == 0:
                counts["on_round"] += 1
            depth[0] += 1
            try:
                return original(self, rnd, view)
            finally:
                depth[0] -= 1

        return on_round

    advance = Blockchain.advance

    def counted_advance(self, transactions=()):
        counts["advance"] += 1
        return advance(self, transactions)

    classes, pending = [], [Actor]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "on_round" in vars(cls):
            classes.append((cls, vars(cls)["on_round"]))
    for cls, original in classes:
        cls.on_round = counted_round(original)
    Blockchain.advance = counted_advance
    try:
        yield counts
    finally:
        Blockchain.advance = advance
        for cls, original in classes:
            cls.on_round = original


@contextlib.contextmanager
def counting_check_calls():
    """Count ``signatures.verify`` and ``Contract._next_tick`` calls
    inside the block.

    Yields the counts dict.  ``verify`` is wrapped in every loaded
    ``repro`` module that holds it by name (``repro.crypto.hashkeys``
    imports it so), and every contract derives its next tick through the
    base class's ``_next_tick``; both are restored on exit.
    """
    import repro.crypto.signatures as signatures
    from repro.contracts.base import Contract

    counts = {"verify": 0, "next_tick": 0}
    verify, next_tick = signatures.verify, Contract._next_tick

    def counted_verify(registry, signature, message):
        counts["verify"] += 1
        return verify(registry, signature, message)

    def counted_next_tick(self):
        counts["next_tick"] += 1
        return next_tick(self)

    holders = [
        module
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "repro" and getattr(module, "verify", None) is verify
    ]
    for module in holders:
        module.verify = counted_verify
    Contract._next_tick = counted_next_tick
    try:
        yield counts
    finally:
        Contract._next_tick = next_tick
        for module in holders:
            module.verify = verify


@contextlib.contextmanager
def counting_cyclic_garbage():
    """Count the objects the cycle collector frees inside the block.

    Yields a dict whose ``"collected"`` entry, once the block exits, sums
    every collection the block triggered plus one final collection, so
    garbage still waiting for a threshold is counted too.  Garbage made
    before the block is collected first and not counted.
    """
    counts = {"collected": 0}

    def on_gc(phase, info):
        if phase == "stop":
            counts["collected"] += info["collected"]

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        yield counts
        gc.collect()
    finally:
        gc.callbacks.remove(on_gc)


def campaign_module_count() -> int:
    """The repro modules a fresh interpreter loads for a plain serial
    campaign of the default matrix."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", PLAIN_CAMPAIGN],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    return int(out.split()[-1])


def run_gate() -> int:
    """CI ratchet: shared graphs, premium plans that stop growing, a cold
    sizing ceiling, digest parity, leaf-work and cyclic-garbage ceilings,
    balanced dispatch, and the plain campaign's import-set ceiling."""
    matrix = default_matrix(families=GATE_FAMILIES)
    first = []
    for block in matrix.blocks:
        graph = block.builder().meta["graph"]
        first.append((graph, premium_plan(graph).sizes()))
    sizing_states = sum(premium_plan(graph).search_states for graph, _ in first)
    with counting_leaf_calls() as leaf, counting_cyclic_garbage() as garbage:
        serial = CampaignRunner(matrix, backend="serial").run()
    process = CampaignRunner(matrix, backend="process").run()
    with WorkerPool() as pool:
        pooled = CampaignRunner(matrix, backend="process", pool=pool).run()

    failures = []
    rows = []
    for block, (graph, before) in zip(matrix.blocks, first):
        shared = block.builder().meta["graph"] is graph
        after = premium_plan(graph).sizes()
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
                f"{block.schedule}: plan tables {grown} grew after the first build"
            )
    if not serial.run_digest == process.run_digest == pooled.run_digest:
        failures.append(
            f"digests differ: serial {serial.run_digest[:12]}, process "
            f"{process.run_digest[:12]}, pooled {pooled.run_digest[:12]}"
        )
    if serial.run_digest != GATE_RUN_DIGEST:
        failures.append(
            f"serial run digest {serial.run_digest[:12]} is not the committed "
            f"{GATE_RUN_DIGEST[:12]}: the multi-party outcomes changed"
        )
    header = (
        "block", "scenarios", "shared graph",
        "plan entries at first build (eq1/worst/escrow/funding)",
        "plan entries after run",
    )
    print(format_table("campaign gate: per-block premium plans", header, rows))
    print(
        f"cold sizing: {sizing_states} member-set search states "
        f"(ceiling {MAX_SIZING_STATES})"
    )
    if sizing_states > MAX_SIZING_STATES:
        failures.append(
            f"cold sizing of the gate matrix visited {sizing_states} member-set "
            f"search states, above the ceiling {MAX_SIZING_STATES}: worst-case "
            "funding no longer searches inclusion-minimal paths only"
        )
    print(
        f"serial {serial.scenarios_per_second:.0f} scen/s, "
        f"process {process.scenarios_per_second:.0f} scen/s (informational); "
        f"digest {serial.run_digest[:12]} (committed {GATE_RUN_DIGEST[:12]})"
    )

    for name, count, ceiling in (
        ("on_tick", leaf["on_tick"], MAX_ON_TICK_CALLS),
        ("signatures._mac", leaf["mac"], MAX_MAC_CALLS),
    ):
        print(f"leaf work: {count} {name} calls (ceiling {ceiling})")
        if count > ceiling:
            failures.append(
                f"{count} {name} calls on the serial multi-party run exceed the "
                f"ceiling {ceiling}: per-block or per-check work came back, "
                "or compliant prefixes are simulated once per scenario again"
            )

    print(
        f"cyclic garbage: {garbage['collected']} objects freed by the cycle "
        f"collector (ceiling {MAX_CYCLIC_GARBAGE})"
    )
    if garbage["collected"] > MAX_CYCLIC_GARBAGE:
        failures.append(
            f"{garbage['collected']} objects of the serial multi-party run needed "
            f"the cycle collector (ceiling {MAX_CYCLIC_GARBAGE}): a reference "
            "cycle is back on the scenario path"
        )

    full = default_matrix()
    with counting_round_calls() as work, counting_check_calls() as checks:
        CampaignRunner(full, backend="serial").run()
    for kind, name, count, ceiling, cause in (
        ("round", "on_round", work["on_round"], MAX_ON_ROUND_CALLS,
         "idle rounds are being run again"),
        ("round", "Blockchain.advance", work["advance"], MAX_ADVANCE_CALLS,
         "idle rounds are being run again"),
        ("check", "signatures.verify", checks["verify"], MAX_VERIFY_CALLS,
         "validated paths are being re-walked"),
        ("check", "Contract._next_tick", checks["next_tick"], MAX_NEXT_TICK_CALLS,
         "next ticks are recomputed per transaction again"),
    ):
        print(f"{kind} work: {count} {name} calls on a serial default pass (ceiling {ceiling})")
        if count > ceiling:
            failures.append(
                f"{count} {name} calls on the serial default pass exceed the "
                f"ceiling {ceiling}: {cause}, or compliant prefixes are "
                "simulated once per scenario again"
            )

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
    modules = campaign_module_count()
    print(
        f"import set: a plain serial campaign loads {modules} repro modules "
        f"(ceiling {MAX_CAMPAIGN_MODULES})"
    )
    if modules > MAX_CAMPAIGN_MODULES:
        failures.append(
            f"a plain serial campaign loads {modules} repro modules, above the "
            f"ceiling {MAX_CAMPAIGN_MODULES}: a package or module imports code "
            "the campaign never runs"
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
        help="enforce the shared-graph memo ratchet, the leaf-work count "
        "ceilings, the zero cyclic-garbage ceiling, digest parity, "
        "dispatch balance and the campaign import-set ceiling (exit 1 on "
        "breach)",
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
            "host": host_metadata(),
            "spec_digest": campaign_spec().digest(),
            "backends": c1_records,
            "pool_reuse": {
                "runs": REUSE_RUNS,
                "fresh_elapsed_seconds": fresh_elapsed,
                "pooled_elapsed_seconds": pooled_elapsed,
            },
            "cache": c3_records,
            "campaign_modules": campaign_module_count(),
        },
        # The serial run's phase breakdown is the canonical one: no
        # fork/dispatch noise, so expand/dispatch/fold shares compare
        # cleanly across PRs.
        phases=c1_records[0]["phases"],
    )
