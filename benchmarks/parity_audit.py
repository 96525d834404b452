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
2. **Pair-line sweep** — in each of the six named cell contexts, the
   kernel evaluates every premium of ``[1, premium_base]`` on exact
   integer lines through real runs at p = 1 and p = 2, and the walks at
   p = 0 too once its real compliant run holds on those lines.  The
   sweep checks that premise exhaustively: at every premium of ``[0,
   premium_base]``, the evaluated recording, compliant template and
   scripted-walk template of every walk round must equal a real
   simulator run at that premium, field for digest-relevant field, and
   none may fall back to the simulator; the p = 0 kernels kept off the
   lines must be exactly :data:`OFF_THE_LINES` (the auction's).
3. **Build ratchet** — one cold kernel ``ablate-refine`` over a small
   fixed grid (coalitions included) may run at most
   :data:`MAX_REFINE_BUILDS` protocol ``build()`` calls and construct at
   most :data:`MAX_REFINE_CELLS` ``FamilyCell`` objects, and its
   campaign plumbing at most :data:`MAX_REFINE_BLOCKS` ``MatrixBlock``
   and :data:`MAX_REFINE_SCENARIOS` ``Scenario`` constructions and
   :data:`MAX_REFINE_DESCRIBES` block ``describe()`` renders.  The counts
   are properties of the code, not of the host: a cell path that goes
   back to building a throwaway instance per premium or per probe, a
   probe that rebuilds its premium's cell, or a probe that builds or
   renders more than its one two-scenario block, breaches them.
4. **Perf gate** — the warm dense-grid kernel speedup over the simulator
   must not drop below the floor committed in ``BENCH_ablation.json``
   (``engine_throughput.kernel_hot_speedup_floor``).  The gate compares a
   speedup *ratio* measured in-process, so it is machine-invariant: a
   slow CI box slows both engines alike.

Exit status is nonzero on any divergence, ceiling or floor breach.

Usage::

    python benchmarks/parity_audit.py            # parity + sweep + builds + perf gate
    python benchmarks/parity_audit.py --no-perf  # parity + sweep + builds only
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
#: BUILD_GATE_GRID: the exact count when each deal began simulating one
#: compliant run per premium for all its sibling contexts, and p = 0
#: joined the pair's lines wherever its compliant run holds on them
#: (the auction's does not).  The ceiling is the count itself; lower it
#: when a change cuts more builds.
MAX_REFINE_BUILDS = 36

#: the kernels the pair-line sweep expects off the lines: the auction's
#: p = 0 compliant run skips ``endow_premium``, so it does not hold on its
#: pair's lines and simulates its walks.  Any other context there is a
#: detector that stopped adopting.
OFF_THE_LINES = ["auction:-[premium=0]"]

#: ``FamilyCell`` constructions in the same cold refinement: one per
#: distinct (family, coalition, premium) its lattice, calibration pairs
#: and bisection probes touch, since ``family_cell`` memoizes them.
#: Without the memo every block and probe builds its own.
MAX_REFINE_CELLS = 30

#: the same refine's campaign plumbing: ``MatrixBlock`` constructions,
#: ``Scenario`` constructions and block ``describe()`` renders — one
#: block, its two scenarios and one render per lattice cell and per
#: probe, since a block renders its descriptor once.
MAX_REFINE_BLOCKS = 28
MAX_REFINE_SCENARIOS = 56
MAX_REFINE_DESCRIBES = 28

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


def _template_fields(template) -> tuple:
    """What a kernel template feeds into scenario digests and metrics.

    A party's delta terms are sorted where their order cannot reach a
    digest: two terms fold into ``0.0`` to one sum in either order, and
    a p = 0 run, whose ledger drops zero balances, may list them in
    another order than the pair's runs.
    """
    return (
        template.ntx_str,
        template.reverted,
        template.premium_net,
        template.premium_net_str,
        template.fingerprint,
        template.completed,
        tuple(tuple(sorted(t)) if len(t) <= 2 else t for t in template.utility_terms),
        template.exposed,
    )


def audit_pair_lines() -> list[str]:
    """Every premium of ``[0, premium_base]`` × every walk round × the six
    named contexts: what the kernel evaluates on its pair's lines equals a
    real run at that premium, whose trajectory shape (transactions, events,
    ledger keys, delta order) is the p = 1 run's — at p = 0, whose real
    compliant run is the detector, its transactions and events.  A p = 0
    kernel the detector keeps off the lines (the auction's) simulates its
    walks and is listed, not compared.  Returns divergences."""
    from repro.campaign.ablation.grid import CELL_CONTEXTS, premium_base
    from repro.campaign.ablation.kernels import (
        PAIR_PREMIUMS,
        KernelEngine,
        _CellKernel,
        _template_values,
        _trajectory,
    )
    from repro.campaign.scenario import render_ledger

    def uncounted(name, amount=1):
        pass

    engine = KernelEngine()
    problems: list[str] = []
    premiums = walks = 0
    off_lines = []
    for family, coalition in CELL_CONTEXTS:
        for premium in range(premium_base(family) + 1):
            label = f"{family}:{coalition or '-'}[premium={premium}]"
            kernel = engine._kernel_for(family, coalition, premium)
            (real,) = _CellKernel.calibrate([kernel.cell], uncounted)
            premiums += 1
            if kernel.rounds != real.rounds:
                problems.append(f"{label}: recorded rounds diverge")
            if kernel.pair is None and premium not in PAIR_PREMIUMS:
                off_lines.append(label)
                continue

            def shape(template, cell=kernel.cell, premium=premium):
                if premium == 0:
                    return _trajectory(template.result)
                return _template_values(cell, template)[0]

            # (what, evaluated, real twin, the p = 1 run on the pair's side)
            lo = kernel.pair.lo if kernel.pair is not None else None
            triples = [("compliant", kernel.comply, real.comply, lo and lo.comply)]
            for walk_round in range(len(real.rounds)):
                walks += 1
                triples.append((
                    f"walk {walk_round}",
                    kernel.walk_template(walk_round, uncounted),
                    real.walk_template(walk_round, uncounted),
                    lo and lo.walk_template(walk_round, uncounted),
                ))
            for what, evaluated, twin, model in triples:
                # p = 0's compliant template is its own run, the detector.
                detector = premium == 0 and what == "compliant"
                if premium not in PAIR_PREMIUMS and not detector and evaluated.instance is not None:
                    problems.append(f"{label} {what}: fell back to the simulator")
                elif _template_fields(evaluated) != _template_fields(twin):
                    problems.append(f"{label} {what}: template diverges")
                elif evaluated.fingerprint != render_ledger(evaluated.ledger):
                    problems.append(f"{label} {what}: fingerprint is not render_ledger's")
                elif model is not None and shape(twin) != shape(model):
                    problems.append(f"{label} {what}: trajectory shape differs from p = 1")
    if off_lines != OFF_THE_LINES:
        problems.append(f"off the pair lines: {off_lines}, expected {OFF_THE_LINES}")
    if not problems:
        print(
            f"pair lines: {premiums} premiums and {walks} walk templates over "
            f"{len(CELL_CONTEXTS)} named contexts equal real runs; off the "
            f"lines, simulated: {', '.join(off_lines) or 'none'}"
        )
    return problems


@contextlib.contextmanager
def counting_builds():
    """Count ``build()`` calls of the ablation families' builder classes
    (``counts["build"]``), ``FamilyCell``, ``MatrixBlock`` and
    ``Scenario`` constructions (``"cell"``, ``"block"``, ``"scenario"``)
    and block ``describe()`` renders (``"describe"``: calls on a block
    whose descriptor is not yet rendered).

    Yields the counts dict.  The methods are wrapped from outside and
    restored on exit.
    """
    from repro.campaign.ablation.grid import FamilyCell
    from repro.campaign.matrix import MatrixBlock
    from repro.campaign.scenario import Scenario
    from repro.core.hedged_auction import HedgedAuction
    from repro.core.hedged_broker import HedgedBrokerDeal
    from repro.core.hedged_multi_party import HedgedMultiPartySwap
    from repro.core.hedged_two_party import HedgedTwoPartySwap

    counts = {"build": 0, "cell": 0, "block": 0, "scenario": 0, "describe": 0}

    def counted(original, name):
        def method(self, *args, **kwargs):
            if name != "describe" or "_describe" not in vars(self):
                counts[name] += 1
            return original(self, *args, **kwargs)

        return method

    methods = [
        (cls, "build", "build")
        for cls in (
            HedgedTwoPartySwap,
            HedgedMultiPartySwap,
            HedgedBrokerDeal,
            HedgedAuction,
        )
    ]
    methods += [
        (FamilyCell, "__init__", "cell"),
        (MatrixBlock, "__init__", "block"),
        (Scenario, "__init__", "scenario"),
        (MatrixBlock, "describe", "describe"),
    ]
    originals = [(cls, attr, vars(cls)[attr]) for cls, attr, _ in methods]
    for (cls, attr, name), (_, _, original) in zip(methods, originals):
        setattr(cls, attr, counted(original, name))
    try:
        yield counts
    finally:
        for cls, attr, original in originals:
            setattr(cls, attr, original)


def gate_builds() -> list[str]:
    """Count protocol builds and cell constructions over one cold kernel
    refinement; return ceiling breaches."""
    from repro.campaign import Experiment, refine_spec
    from repro.campaign.ablation.grid import cell_shape, family_cell

    # Cold: the shapes and cells the parity audit cached are rebuilt and
    # counted.
    cell_shape.cache_clear()
    family_cell.cache_clear()
    spec = refine_spec(engine="kernel", **BUILD_GATE_GRID)
    with counting_builds() as counts:
        result = Experiment(spec).run()
    builds, cells = counts["build"], counts["cell"]
    print(
        f"builds: {builds} protocol builds over one cold kernel ablate-refine "
        f"({result.refined.probes} probes; ceiling {MAX_REFINE_BUILDS})"
    )
    print(
        f"cells: {cells} FamilyCell constructions over the same refine "
        f"(ceiling {MAX_REFINE_CELLS})"
    )
    plumbing = (
        ("block", "MatrixBlock constructions", MAX_REFINE_BLOCKS),
        ("scenario", "Scenario constructions", MAX_REFINE_SCENARIOS),
        ("describe", "block describe() renders", MAX_REFINE_DESCRIBES),
    )
    print("plumbing: " + ", ".join(
        f"{counts[name]} {what} (ceiling {ceiling})" for name, what, ceiling in plumbing
    ))
    problems = [
        f"{counts[name]} {what} over one cold kernel ablate-refine exceed the "
        f"ceiling {ceiling}: a probe builds or renders more than its one block"
        for name, what, ceiling in plumbing
        if counts[name] > ceiling
    ]
    if builds > MAX_REFINE_BUILDS:
        problems.append(
            f"{builds} protocol builds over one cold kernel ablate-refine "
            f"exceed the ceiling {MAX_REFINE_BUILDS}: a cell path builds a "
            "throwaway instance per premium or per probe again"
        )
    if cells > MAX_REFINE_CELLS:
        problems.append(
            f"{cells} FamilyCell constructions over one cold kernel "
            f"ablate-refine exceed the ceiling {MAX_REFINE_CELLS}: a probe "
            "or block rebuilds its premium's cell instead of sharing it"
        )
    return problems


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
    problems += audit_pair_lines()
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
