"""The four benchmark workloads: inputs from the seed, timed passes, gates.

A workload is prepared once (the set-up a user pays before the first
op), warmed up, then timed one *pass* at a time.  A pass is a unit whose
work is the same every time, so passes can be repeated until the run's
time is used up and summarised by their median:

- ``campaign-serial`` / ``campaign-process``: one full default matrix
  through ``CampaignRunner`` (an op is a scenario);
- ``refine-kernel``: one cold ``ablate-refine`` experiment on the kernel
  engine (an op is a refined frontier row);
- ``quote-mix``: a seeded list of quote requests on a fresh engine and
  cache directory (an op is a quote).

A pass keeps only a compact summary of what it produced, so memory does
not grow with the number of passes.  ``gate`` checks every pass against
the workload's correctness rules and records how many of its ops failed.
With a tracer, a pass also returns the layer figures only its full
output can give (``Pass.figures``).
"""

from __future__ import annotations

import os
import pickle
import random
import shutil
from dataclasses import dataclass, field
from hashlib import sha256
from itertools import accumulate
from pathlib import Path
from time import perf_counter

#: the committed campaign run digest of ``default_matrix(seed=0)``.
CAMPAIGN_DIGEST_SEED0 = (
    "3b3e496531fbc5686450b2e84c526fe630cc2304395c8c649e9144ff3ec2e3c9"
)

#: scenarios re-run on the other campaign backend for per-scenario parity.
PARITY_SAMPLE = 240

#: quote requests per pass: ≥1000, so ≥10 latencies lie beyond p99.
QUOTES_PER_PASS = 6000

#: graph deals per 35 graph requests; each graph is quoted at every shock.
#: complete:4, the slowest tier-2 read, is kept near 2% of all requests
#: so that p99 falls inside its mode rather than on its upper tail.
GRAPH_WEIGHTS = {"ring:4": 11, "ring:5": 11, "ring:6": 11, "complete:4": 2}
GRAPH_SHOCKS = (0.03, 0.045, 0.06, 0.075)

#: graph-shaped quote cells: each is measured once per pass by tier 3,
#: then served from the cache by tier 2.
GRAPH_CELLS = tuple(
    (graph, shock) for graph in GRAPH_WEIGHTS for shock in GRAPH_SHOCKS
)


def worker_count() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Pass:
    """One timed pass: op count, wall time, and a summary of its output.

    ``op_starts`` holds when each latency's op began (``perf_counter``),
    exact or, on the campaigns, placed by the work stamped before it.
    """

    ops: int
    seconds: float
    latencies_ms: list[float]
    op_starts: list[float]
    summary: dict
    figures: dict = field(default_factory=dict)
    #: reference speed / host speed over the pass (1.0 when not rescaled)
    speed_factor: float = 1.0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str, ops: int | None = None) -> None:
        """Record a problem; ``ops`` failed ops (default: the whole pass)."""
        self.problems.append(problem)
        self.failed = min(self.ops, self.failed + (self.ops if ops is None else ops))


class Stopwatch:
    """Times a pass's op region; on a traced pass it is also the ``op``
    layer at the bottom of the layer clock's stack."""

    def __init__(self, tracer=None) -> None:
        self.clock = getattr(tracer, "clock", None)

    def __enter__(self) -> "Stopwatch":
        if self.clock is not None:
            self.clock.enter("op")
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = perf_counter() - self.start
        if self.clock is not None:
            self.clock.leave()


# ----------------------------------------------------------------------
# campaign-serial / campaign-process
# ----------------------------------------------------------------------
def fold_digest(matrix_digest: str, digests: list[str]) -> str:
    """The runner's run digest of a full-coverage run: a preamble naming
    the matrix and selection, then every scenario digest in order."""
    n = len(digests)
    h = sha256(f"{matrix_digest}|selection=full|coverage={n}/{n}".encode())
    for digest in digests:
        h.update(digest.encode())
    return h.hexdigest()


class Campaign:
    """The default adversarial matrix through one ``CampaignRunner`` call."""

    def __init__(self, backend: str, seed: int, workdir: Path) -> None:
        self.backend = backend
        self.seed = seed
        self.workers = worker_count() if backend == "process" else 1
        #: the work runs in forked workers, which take the speed samples
        self.pooled = backend == "process"

    def prepare(self) -> None:
        from repro.campaign.families import default_matrix

        self.matrix = default_matrix(seed=self.seed)
        # the expansion a user waits for before the first scenario runs
        for _ in self.matrix.scenarios():
            pass

    def _run(self, backend: str, limit: int | None = None, tracer=None):
        from repro.campaign.runner import CampaignRunner

        return CampaignRunner(
            self.matrix, backend=backend, workers=self.workers, limit=limit,
            tracer=tracer,
        ).run()

    def warm_up(self) -> None:
        self._run(self.backend, limit=PARITY_SAMPLE)

    def run_pass(self, tracer=None) -> Pass:
        with Stopwatch(tracer) as watch:
            report = self._run(self.backend, tracer=tracer)
        results = report.results
        # scenarios run in index order (the pool takes its chunks in
        # order too), so each starts about when the work before it is done
        work = [r.elapsed_seconds for r in results]
        pace = watch.seconds / sum(work)
        run = Pass(
            ops=len(results),
            seconds=watch.seconds,
            # per-scenario work time as the program stamps it where the
            # scenario ran (never the pool's arrival times)
            latencies_ms=[seconds * 1000.0 for seconds in work],
            op_starts=[
                watch.start + done * pace for done in accumulate(work, initial=0.0)
            ][:-1],
            summary={
                "run_digest": report.run_digest,
                "matrix_digest": report.matrix_digest,
                "digests": [r.digest for r in results],
                "violating": [r.index for r in results if r.violations],
            },
        )
        if tracer is not None:
            run.figures = self._dispatch_figures(report, tracer)
        return run

    def _dispatch_figures(self, report, tracer) -> dict:
        """Dispatch figures from the runner's own telemetry."""
        snapshot = tracer.metrics.snapshot()
        if self.backend == "process":
            busy = sum(
                stat.total
                for name, stat in snapshot.timings
                if name.startswith("worker.") and name.endswith(".busy_seconds")
            )
        else:
            busy = sum(result.elapsed_seconds for result in report.results)
        wall = snapshot.timing("span.campaign.dispatch").total
        return {
            "dispatch.worker_busy_s": busy,
            "dispatch.parallel_eff": busy / (report.workers * wall),
            "dispatch.result_bytes": len(
                pickle.dumps(report.results, protocol=pickle.HIGHEST_PROTOCOL)
            ),
        }

    def gate(self, passes: list[Pass]) -> None:
        """Violations, the seed-0 run digest, and serial/process parity.

        The seed only names the matrix (it enters the matrix digest, not
        the scenarios), so refolding a run's scenario digests under the
        seed-0 matrix digest must give the committed seed-0 run digest on
        either backend at every seed.  A stratified sample is re-run on
        the other backend and compared scenario by scenario.
        """
        from repro.campaign.families import default_matrix

        seed0 = default_matrix(seed=0).digest()
        other = "serial" if self.backend == "process" else "process"
        sample = self._run(other, limit=PARITY_SAMPLE).results
        for run in passes:
            digests = run.summary["digests"]
            self.run_digest = run.summary["run_digest"]
            self.seed0_digest = fold_digest(seed0, digests)
            if fold_digest(run.summary["matrix_digest"], digests) != self.run_digest:
                run.fail("run digest does not refold from its scenario digests")
            elif self.seed0_digest != CAMPAIGN_DIGEST_SEED0:
                run.fail(f"seed-0 run digest {self.seed0_digest[:16]}… != "
                         f"{CAMPAIGN_DIGEST_SEED0[:16]}…")
            if run.summary["violating"]:
                run.fail("property violations", len(run.summary["violating"]))
            differ = [r.label for r in sample if digests[r.index] != r.digest]
            if differ:
                run.fail(f"{other} backend differs on {differ[:3]}", len(differ))


# ----------------------------------------------------------------------
# refine-kernel
# ----------------------------------------------------------------------
def seeded_shocks(seed: int) -> tuple[float, ...]:
    """The default shock axis, each point moved by at most ±0.002.

    The defaults sit midway between the premium lattice's stake values,
    so a move this small keeps every walk/complete decision off a tie.
    """
    from repro.campaign.ablation.grid import DEFAULT_SHOCK_FRACTIONS

    rng = random.Random(seed)
    return tuple(
        round(shock + rng.uniform(-0.002, 0.002), 5)
        for shock in DEFAULT_SHOCK_FRACTIONS
    )


class RefineKernel:
    """One cold ``ablate-refine`` call: fresh kernel engine, no cache."""

    pooled = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def prepare(self) -> None:
        from repro.campaign.ablation import kernels  # noqa: F401
        from repro.campaign.experiment import refine_spec

        self.spec = refine_spec(
            coalitions=True, shock_fractions=seeded_shocks(self.seed), engine="kernel"
        )

    def warm_up(self) -> None:
        self.run_pass()

    def run_pass(self, tracer=None) -> Pass:
        from repro.campaign.ablation.refine import _CellProber
        from repro.campaign.experiment import Experiment

        # latency samples: each bisection probe (one narrow kernel
        # campaign call), 181 per pass — one call per pass is too few
        probe, latencies, starts = _CellProber.probe, [], []

        def timed_probe(*args, **kwargs):
            began = perf_counter()
            try:
                return probe(*args, **kwargs)
            finally:
                starts.append(began)
                latencies.append((perf_counter() - began) * 1000.0)

        _CellProber.probe = timed_probe
        try:
            with Stopwatch(tracer) as watch:
                result = Experiment(self.spec, tracer=tracer).run()
        finally:
            _CellProber.probe = probe
        refined = result.refined
        rows = refined.rows if refined is not None else ()
        run = Pass(
            ops=max(len(rows), 1),
            seconds=watch.seconds,
            latencies_ms=latencies,
            op_starts=starts,
            summary={
                "digest": refined.digest if refined is not None else None,
                # a row that found a deterring bracket but never narrowed it
                "unconverged": sum(
                    1 for row in rows if not row.converged and row.pi_hi is not None
                ),
            },
        )
        if tracer is not None and refined is not None:
            run.figures = {"refine.probes": refined.probes, "refine.rows": len(rows)}
        return run

    def gate(self, passes: list[Pass]) -> None:
        digests = {run.summary["digest"] for run in passes}
        self.frontier_digest = sorted(map(str, digests))[0]
        for run in passes:
            if run.summary["digest"] is None:
                run.fail("no refined frontier: the lattice run had violations")
            if run.summary["unconverged"]:
                run.fail("unconverged rows", run.summary["unconverged"])
            if len(digests) > 1:
                run.fail(f"{len(digests)} distinct frontier digests in one run")


# ----------------------------------------------------------------------
# quote-mix
# ----------------------------------------------------------------------
def quote_requests(seed: int, n: int = QUOTES_PER_PASS) -> list[dict]:
    """65% named-family requests, 35% graph deals over GRAPH_CELLS,
    weighted by GRAPH_WEIGHTS.

    The mix is fixed by quota — every family, coalition and stage and
    every graph cell gets the same share on every seed — so the seed
    moves only the order and the named requests' shocks, never the work.
    At this share the median latency falls inside the multi-party
    closed-form mode, not in a gap between two modes, where it would
    swing with each mode's tail.
    """
    from repro.campaign.ablation.grid import ABLATION_COALITIONS, ABLATION_FAMILIES

    rng = random.Random(seed)
    graphs = n * 7 // 20
    cycle = [graph for graph, weight in GRAPH_WEIGHTS.items() for _ in range(weight)]
    requests = []
    for i in range(graphs):
        graph = cycle[i % len(cycle)]
        shock = GRAPH_SHOCKS[(i // len(cycle)) % len(GRAPH_SHOCKS)]
        requests.append({"graph": graph, "shock": shock})
    for i in range(n - graphs):
        family = ABLATION_FAMILIES[i % len(ABLATION_FAMILIES)]
        coalitions = ("",) + ABLATION_COALITIONS.get(family, ())
        request = {"family": family, "shock": round(rng.uniform(0.005, 0.12), 4)}
        coalition = coalitions[(i // len(ABLATION_FAMILIES)) % len(coalitions)]
        if coalition:
            request["coalition"] = coalition
        if (i // 8) % 10 == 0:
            request["stage"] = "pre-stake"
        requests.append(request)
    rng.shuffle(requests)
    return requests


class QuoteMix:
    """Seeded quote requests through all three tiers, one fresh cache."""

    pooled = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.caches = 0

    def _fresh_engine(self) -> None:
        from repro.campaign.cache import ResultCache
        from repro.quote import QuoteEngine

        self.caches += 1
        self.cache_root = self.workdir / f"quote-cache-{self.caches}"
        self.engine = QuoteEngine(cache=ResultCache(self.cache_root))

    def prepare(self) -> None:
        from repro.campaign import experiment  # noqa: F401  (tier 3)
        from repro.campaign.cache import code_version

        code_version()  # the cache key's source hash, paid once per process
        self.requests = quote_requests(self.seed)
        self._fresh_engine()

    def warm_up(self) -> None:
        """The first 500 requests, on a cache thrown away afterwards."""
        requests, self.requests = self.requests, self.requests[:500]
        try:
            self.run_pass()
        finally:
            self.requests = requests

    def run_pass(self, tracer=None) -> Pass:
        from repro.quote import QuoteRequest

        engine = self.engine
        if tracer is not None:
            engine.tracer = engine.cache.tracer = tracer
        quotes, latencies, starts, errors = [], [], [], []
        with Stopwatch(tracer) as watch:
            clock = watch.clock
            for kwargs in self.requests:
                began = perf_counter()
                try:
                    if clock is None:
                        request = QuoteRequest(**kwargs)
                    else:
                        clock.enter("quote.request")
                        try:
                            request = QuoteRequest(**kwargs)
                        finally:
                            clock.leave()
                    quotes.append(engine.quote(request))
                except Exception as err:  # a failed op; the run goes on
                    quotes.append(None)
                    errors.append(f"{type(err).__name__}: {err}")
                starts.append(began)
                latencies.append((perf_counter() - began) * 1000.0)
        shutil.rmtree(self.cache_root, ignore_errors=True)
        self._fresh_engine()
        run = Pass(
            ops=len(quotes),
            seconds=watch.seconds,
            latencies_ms=latencies,
            op_starts=starts,
            summary={
                "answers": [
                    (q.request_digest, q.digest(), q.tier) if q else None
                    for q in quotes
                ]
            },
        )
        if errors:
            run.fail(f"{len(errors)} requests raised, first: {errors[0]}", len(errors))
        if tracer is not None:
            for tier in (1, 2, 3):
                stamped = sorted(q.latency_ms for q in quotes if q and q.tier == tier)
                run.figures[f"quote.tier{tier}_ms"] = (
                    stamped[len(stamped) // 2] if stamped else 0.0
                )
        return run

    def gate(self, passes: list[Pass]) -> None:
        """One digest per request whichever tier answers; one tier mix."""
        digest_of: dict[str, str] = {}
        first = [answer and answer[2] for answer in passes[0].summary["answers"]]
        self.tier_mix = {f"tier{t}": first.count(t) for t in (1, 2, 3)}
        for run in passes:
            answers = run.summary["answers"]
            if [answer and answer[2] for answer in answers] != first:
                run.fail("tier mix differs from the first pass")
            if sum(1 for a in answers if a and a[2] == 3) != len(GRAPH_CELLS):
                run.fail("tier 3 did not answer each graph cell exactly once")
            mismatched = sum(
                1
                for request, quote, _ in filter(None, answers)
                if digest_of.setdefault(request, quote) != quote
            )
            if mismatched:
                run.fail("quote digest depends on the answering tier", mismatched)


WORKLOADS = {
    "campaign-serial": lambda seed, workdir: Campaign("serial", seed, workdir),
    "campaign-process": lambda seed, workdir: Campaign("process", seed, workdir),
    "refine-kernel": RefineKernel,
    "quote-mix": QuoteMix,
}
