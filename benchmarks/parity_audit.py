"""CI parity audit + perf gate for the payoff kernels.

The kernel engine (``repro.campaign.ablation.kernels``) is the default
executor for ablation grids; the simulator remains the authority.  This
script is the contract between them, run on every CI push:

1. **Parity audit** — every cell of the full default ablation grid
   (all families, coalitions included) runs through *both* engines; any
   divergence in a scenario digest, metric, violation set, premium net,
   or transaction count fails the job, as does a frontier-digest or
   run-digest mismatch.  Digest-chain equality is the strongest available
   check: the digests cover labels, violations, transaction counts,
   premium flows, and ``repr``-exact metric floats.
2. **Build ratchet** — one cold kernel ``ablate-refine`` over a small
   fixed grid (coalitions included) may run at most
   :data:`MAX_REFINE_BUILDS` protocol ``build()`` calls.  The count is a
   property of the code, not of the host: a cell path that goes back to
   building a throwaway instance per premium or per probe breaches it.
3. **Perf gate** — the warm dense-grid kernel speedup over the simulator
   must not drop below the floor committed in ``BENCH_ablation.json``
   (``engine_throughput.kernel_hot_speedup_floor``).  The gate compares a
   speedup *ratio* measured in-process, so it is machine-invariant: a
   slow CI box slows both engines alike.

Exit status is nonzero on any divergence, ceiling or floor breach.

Usage::

    python benchmarks/parity_audit.py            # parity + builds + perf gate
    python benchmarks/parity_audit.py --no-perf  # parity + builds only
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys

try:
    from benchmarks.tables import format_table
except ImportError:  # running the file directly from within benchmarks/
    from tables import format_table

#: fallback floor when no committed BENCH_ablation.json is present.
DEFAULT_SPEEDUP_FLOOR = 100.0

#: the build ratchet's grid: the CI refine-smoke lattice.
BUILD_GATE_GRID = dict(
    premium_fractions=(0.0, 0.02, 0.05),
    shock_fractions=(0.045,),
    stages=("staked",),
    coalitions=True,
)

#: protocol builds in one cold kernel ``ablate-refine`` over
#: BUILD_GATE_GRID: the exact count when each cell context began reading
#: its premium-independent shape from one cached structural build.  The
#: ceiling is the count itself; lower it when a change cuts more builds.
MAX_REFINE_BUILDS = 57

_RESULT_FIELDS = (
    "digest",
    "label",
    "axes",
    "violations",
    "metrics",
    "transactions",
    "reverted",
    "premium_net",
    "trace",
)


def committed_floor(repo_root: pathlib.Path) -> float:
    """The perf floor from the committed BENCH file, or the default."""
    path = repo_root / "BENCH_ablation.json"
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return float(data["engine_throughput"]["kernel_hot_speedup_floor"])
    except (OSError, ValueError, KeyError, TypeError):
        return DEFAULT_SPEEDUP_FLOOR


def audit_parity() -> list[str]:
    """Run the default grid through both engines; return divergences."""
    from repro.campaign import CampaignRunner, ablation_matrix, reduce_frontier

    matrix = ablation_matrix(coalitions=True)
    serial = CampaignRunner(matrix, backend="serial").run()
    kernel = CampaignRunner(matrix, backend="kernel").run()

    problems: list[str] = []
    if len(serial.results) != len(kernel.results):
        problems.append(
            f"result count: simulator {len(serial.results)} "
            f"vs kernel {len(kernel.results)}"
        )
        return problems
    for want, got in zip(serial.results, kernel.results):
        for field in _RESULT_FIELDS:
            if getattr(want, field) != getattr(got, field):
                problems.append(
                    f"{want.label}: {field} diverges — "
                    f"simulator {getattr(want, field)!r} "
                    f"vs kernel {getattr(got, field)!r}"
                )
    if kernel.run_digest != serial.run_digest:
        problems.append(
            f"run digest: simulator {serial.run_digest} "
            f"vs kernel {kernel.run_digest}"
        )
    serial_frontier = reduce_frontier(serial)
    kernel_frontier = reduce_frontier(kernel)
    if kernel_frontier.digest != serial_frontier.digest:
        problems.append(
            f"frontier digest: simulator {serial_frontier.digest} "
            f"vs kernel {kernel_frontier.digest}"
        )
    if not problems:
        print(
            f"parity: {serial.scenarios} scenarios byte-identical across "
            f"engines (run digest {serial.run_digest[:16]}..., frontier "
            f"digest {serial_frontier.digest[:16]}...)"
        )
    return problems


@contextlib.contextmanager
def counting_builds():
    """Count ``build()`` calls of the ablation families' builder classes.

    Yields the counts dict.  The classes are wrapped from outside and
    restored on exit.
    """
    from repro.core.hedged_auction import HedgedAuction
    from repro.core.hedged_broker import HedgedBrokerDeal
    from repro.core.hedged_multi_party import HedgedMultiPartySwap
    from repro.core.hedged_two_party import HedgedTwoPartySwap

    counts = {"build": 0}

    def counted(original):
        def build(self):
            counts["build"] += 1
            return original(self)

        return build

    classes = (
        HedgedTwoPartySwap,
        HedgedMultiPartySwap,
        HedgedBrokerDeal,
        HedgedAuction,
    )
    originals = [(cls, vars(cls)["build"]) for cls in classes]
    for cls, original in originals:
        cls.build = counted(original)
    try:
        yield counts
    finally:
        for cls, original in originals:
            cls.build = original


def gate_builds() -> list[str]:
    """Count protocol builds over one cold kernel refinement; return
    ceiling breaches."""
    from repro.campaign import Experiment, refine_spec
    from repro.campaign.ablation.grid import cell_shape

    # Cold: the shapes the parity audit cached are rebuilt and counted.
    cell_shape.cache_clear()
    spec = refine_spec(engine="kernel", **BUILD_GATE_GRID)
    with counting_builds() as counts:
        result = Experiment(spec).run()
    builds = counts["build"]
    print(
        f"builds: {builds} protocol builds over one cold kernel ablate-refine "
        f"({result.refined.probes} probes; ceiling {MAX_REFINE_BUILDS})"
    )
    if builds > MAX_REFINE_BUILDS:
        return [
            f"{builds} protocol builds over one cold kernel ablate-refine "
            f"exceed the ceiling {MAX_REFINE_BUILDS}: a cell path builds a "
            "throwaway instance per premium or per probe again"
        ]
    return []


def gate_perf(floor: float) -> list[str]:
    """Measure the hot-path speedup ratio; return floor breaches."""
    try:
        from benchmarks.bench_ablation import generate_engine_throughput_table
    except ImportError:
        from bench_ablation import generate_engine_throughput_table

    header, rows, records = generate_engine_throughput_table()
    print(format_table("engine throughput (this machine)", header, rows))
    warm = records["hot_engine_warm_speedup"]
    print(
        f"perf gate: warm dense-grid engine-level speedup {warm:.1f}x "
        f"(committed floor {floor:.1f}x)"
    )
    if warm < floor:
        return [
            f"hot-path regression: warm kernel speedup {warm:.2f}x fell "
            f"below the committed floor {floor:.2f}x"
        ]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--no-perf",
        action="store_true",
        help="skip the throughput gate (parity and build ratchet still run)",
    )
    args = parser.parse_args(argv)

    problems = audit_parity()
    problems += gate_builds()
    if not problems and not args.no_perf:
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        problems += gate_perf(committed_floor(repo_root))

    if problems:
        print(f"\nFAIL: {len(problems)} divergence(s)", file=sys.stderr)
        for problem in problems[:50]:
            print(f"  - {problem}", file=sys.stderr)
        if len(problems) > 50:
            print(f"  ... and {len(problems) - 50} more", file=sys.stderr)
        return 1
    print("OK: kernel engine verified against the simulator audit path")
    return 0


if __name__ == "__main__":
    sys.exit(main())
