"""The benchmark's entry point: one workload, one seed, one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quote-mix --seed 0 --seconds 10 --trace 0

``--trace 0`` times passes of the workload until ``--seconds`` is used
up and reports the end-to-end metrics (``ops_per_s``, ``p50_ms``,
``p99_ms``, ``setup_s``, ``peak_rss_mb``); every time among them is
rescaled to a fixed reference host speed (``speed.py``).  ``--trace 1`` runs untraced
passes, then two traced passes with the layer wrappers of ``layers.py``
installed, and reports the per-layer metrics; the call counts of the two
traced passes must agree exactly.  See README.md.

Every result line is preceded by host/run metadata and a readable table.
The last line of standard output is the JSON result.  Exit status is 0
only when a result was printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speedometer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"
SETUP_PROBES = 5

#: per-layer figures read straight off the layer clock: metric -> (layer,
#: "calls" | "self" | "incl")
CLOCK_METRICS = {
    "graph.adjacency_calls": ("graph", "calls"),
    "graph.adjacency_s": ("graph", "self"),
    "premiums.calls": ("premiums", "calls"),
    "premiums.s": ("premiums", "self"),
    "build.calls": ("build", "calls"),
    "build.s": ("build", "self"),
    "chain.advance_calls": ("chain.advance", "calls"),
    "chain.advance_s": ("chain.advance", "self"),
    "chain.execute_calls": ("chain.execute", "calls"),
    "chain.execute_s": ("chain.execute", "self"),
    "contracts.on_tick_calls": ("contracts.on_tick", "calls"),
    "contracts.on_tick_s": ("contracts.on_tick", "self"),
    "sim.execute_s": ("sim.execute", "self"),
    "scenario.condense_s": ("scenario.condense", "self"),
    "matrix.expand_s": ("matrix.expand", "self"),
    "campaign.dispatch_s": ("campaign.dispatch", "self"),
    "campaign.fold_s": ("campaign.fold", "self"),
    "kernel.run_s": ("kernel.run", "incl"),
    "cache.get_calls": ("cache.get", "calls"),
    "cache.get_s": ("cache.get", "self"),
    "cache.put_calls": ("cache.put", "calls"),
    "cache.put_s": ("cache.put", "self"),
    "quote.request_s": ("quote.request", "self"),
}

#: exact counts that must repeat across the two traced passes
LEDGER = (
    "graph.adjacency_calls",
    "premiums.calls",
    "build.calls",
    "chain.advance_calls",
    "chain.execute_calls",
    "contracts.on_tick_calls",
    "cache.get_calls",
    "cache.put_calls",
    "kernel.calibrations",
    "kernel.replays",
    "kernel.cell_hits",
    "refine.probes",
    "refine.rows",
    "quote.tier1_n",
    "quote.tier2_n",
    "quote.tier3_n",
    "dispatch.result_bytes",
)


def declared_metrics() -> dict[str, dict[str, str]]:
    """``{"end_to_end" | "per_layer": {metric: unit}}`` from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {entry["name"]: entry["unit"] for entry in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


# ----------------------------------------------------------------------
# metadata
# ----------------------------------------------------------------------
def git_commit() -> str | None:
    """HEAD's commit, read from ``.git`` without running git; ``None``
    in an exported tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def host_metadata(args) -> dict:
    import numpy

    from repro.campaign.cache import code_version

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_digest": code_version()[:16],
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
    }


# ----------------------------------------------------------------------
# set-up time: fresh interpreters, timed from launch to "ready"
# ----------------------------------------------------------------------
def measure_setup(args) -> float:
    samples = []
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            child.wait(timeout=60)
        word, *figures = line.split()
        if word != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        handler_s, factor = map(float, figures)
        samples.append((elapsed - handler_s) * factor)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# timed runs
# ----------------------------------------------------------------------
def timed_passes(workload, seconds: float, workdir: Path | None = None) -> list:
    """Passes until ``seconds`` have gone by; with a ``workdir``, each
    pass's time and each op's latency are rescaled to the reference
    speed, the latency by the samples taken around the op's start."""
    spool = workdir / "speed" if workdir and workload.pooled else None
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        gc.collect()
        if workdir is None:
            passes.append(workload.run_pass())
            continue
        with Speedometer(spool) as meter:
            run = workload.run_pass()
        run.speed_factor = meter.factor()
        run.seconds = meter.scale(run.seconds)
        run.latencies_ms = [
            ms * factor
            for ms, factor in zip(run.latencies_ms, meter.factors_at(run.op_starts))
        ]
        passes.append(run)
    return passes


def end_to_end(args, workload, workdir: Path) -> tuple[dict, list]:
    passes = timed_passes(workload, args.seconds, workdir)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workload.gate(passes)
    metrics = {
        "ops_per_s": statistics.median(p.ops / p.seconds for p in passes),
        "setup_s": measure_setup(args),
        "peak_rss_mb": max(own, workers) / 1024.0,
    }
    latencies = [ms for p in passes for ms in p.latencies_ms]
    metrics["p50_ms"] = percentile(latencies, 0.50)
    metrics["p99_ms"] = percentile(latencies, 0.99)
    print(f"passes: {len(passes)}, ops per pass: {[p.ops for p in passes]}, "
          f"latency samples: {len(latencies)}, reference speed / host speed: "
          f"{[round(p.speed_factor, 3) for p in passes]}")
    return metrics, passes


def layer_metrics(run, clock, tracer) -> dict:
    snapshot = tracer.metrics.snapshot()
    counters = dict(snapshot.counters)
    clock.absorb(counters)
    tables = {"calls": clock.calls, "self": clock.self_s, "incl": clock.inclusive_s}
    metrics = {
        name: tables[kind].get(layer, 0 if kind == "calls" else 0.0)
        for name, (layer, kind) in CLOCK_METRICS.items()
    }
    from layers import SIMULATOR_LAYERS

    metrics["kernel.calibrate_s"] = sum(
        clock.under_kernel_s.get(layer, 0.0) for layer in SIMULATOR_LAYERS
    )
    for name in ("kernel.calibrations", "kernel.replays", "kernel.cell_hits"):
        metrics[name] = int(counters.get(name, 0))
    for tier in (1, 2, 3):
        metrics[f"quote.tier{tier}_n"] = int(counters.get(f"quote.tier{tier}", 0))
    gets = metrics["cache.get_calls"]
    metrics["cache.hit_ratio"] = counters.get("cache.hit", 0) / gets if gets else 0.0
    metrics.update(
        {
            "dispatch.worker_busy_s": 0.0,
            "dispatch.parallel_eff": 0.0,
            "dispatch.result_bytes": 0,
            "refine.probes": 0,
            "refine.rows": 0,
            "quote.tier1_ms": 0.0,
            "quote.tier2_ms": 0.0,
            "quote.tier3_ms": 0.0,
        }
    )
    metrics.update(run.figures)
    metrics["refine.overhead_s"] = (
        run.seconds - metrics["kernel.run_s"] if metrics["refine.rows"] else 0.0
    )
    # coverage: the share of op time some layer claimed, checked in the
    # parent and, on pooled runs, in the workers' tasks
    shares = [1.0 - clock.self_s["op"] / clock.inclusive_s["op"]]
    if clock.inclusive_s.get("worker.task"):
        shares.append(
            1.0 - clock.self_s["worker.task"] / clock.inclusive_s["worker.task"]
        )
    metrics["trace.coverage"] = min(shares)
    return metrics


def per_layer(args, workload) -> tuple[dict, list]:
    untraced = timed_passes(workload, 1.0)  # the obs.overhead baseline
    runs = [traced_pass(workload) for _ in range(2)]
    workload.gate(untraced + [run for run, _, _ in runs])
    figures = [layer_metrics(*entry) for entry in runs]
    first, second = figures
    metrics = {}
    for name, value in first.items():
        if isinstance(value, int):
            metrics[name] = value
        else:
            metrics[name] = (value + second[name]) / 2
    base = statistics.median(p.seconds for p in untraced)
    metrics["obs.overhead"] = statistics.mean(r.seconds for r, _, _ in runs) / base
    drift = [name for name in LEDGER if first[name] != second[name]]
    ledger = {name: first[name] for name in LEDGER}
    print("ledger (exact counts, traced pass 1): " + json.dumps(ledger))
    for name in drift:
        print(f"LEDGER DRIFT {name}: {first[name]} != {second[name]}")
    passes = untraced + [run for run, _, _ in runs]
    if drift:
        passes[-1].fail(f"ledger counts drifted between traced passes: {drift}", 1)
    low = [f["trace.coverage"] for f in figures if f["trace.coverage"] < 0.9]
    if low:
        passes[-1].fail(f"layer self times cover under 90% of op time: {low}", 1)
    return metrics, passes


def traced_pass(workload):
    """One pass with every layer wrapper installed, then removed."""
    from layers import LayerClock, LayerTracer, install

    clock = LayerClock()
    installed = install(clock)
    try:
        tracer = LayerTracer(clock)
        gc.collect()
        clock.reset()
        run = workload.run_pass(tracer=tracer)
    finally:
        installed.remove()
    return run, clock, tracer


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)
    try:
        if args.setup_probe:
            with Speedometer() as meter:
                WORKLOADS[args.workload](args.seed, workdir).prepare()
            print(f"ready {meter.handler_s!r} {meter.factor()!r}", flush=True)
            return 0
        return report(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()  # only once no other run is using it
        except OSError:
            pass


def report(args, workdir: Path) -> int:
    meta = host_metadata(args)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.prepare()
    workload.warm_up()
    if args.trace:
        metrics, passes = per_layer(args, workload)
    else:
        metrics, passes = end_to_end(args, workload, workdir)
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [problem for p in passes for problem in p.problems]
    for name in ("run_digest", "seed0_digest", "frontier_digest", "tier_mix"):
        if hasattr(workload, name):
            meta[name] = getattr(workload, name)
    print("meta: " + json.dumps(meta, sort_keys=True))
    for problem in problems:
        print(f"FAIL: {problem}")
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} != declared {sorted(units)}")
    width = max(len(name) for name in metrics)
    for name in sorted(metrics):
        print(f"  {name:<{width}}  {metrics[name]!r:>24} {units[name]}")
    print(f"  attempted {attempted}, failed {failed}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
