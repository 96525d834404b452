"""Map where walking away stops paying: the deviation-profitability frontier.

The paper's §5.2 claim, quantified: a hedged premium of fraction π makes
abandoning a swap irrational for any relative price drop smaller than the
walk-forfeit π buys.  This example runs the rational-adversary ablation
engine on a compact grid — every protocol family, three premium fractions,
three shock sizes, both shock stages — and prints:

- the measured frontier π* per (family, stage, shock): the smallest swept
  premium at which the utility-driven pivot completes instead of walking,
- the deviation gain of each profitable walk (rational-arm utility minus
  comply-arm utility, both measured on live runs at post-shock prices),
- the *refined* frontier: adaptive bisection between the lattice points
  narrows π* to a continuous threshold within 1/64, recovering the §5.2
  closed forms instead of their staircase approximation,
- *coalition pricing*: adjacent ring members walking together, and the
  seller + buyer squeezing the broker — joint-utility pivots whose
  member-to-member forfeits deter nothing, so collusion always needs at
  least the single-pivot premium (and the broker's markup turns out to be
  un-hedgeable coalition rent),
- the digest contract: the same grid reduced from a serial run and from a
  two-shard merged run yields byte-identical frontier digests, and the
  refined digest is likewise backend-invariant.

Run with:  python examples/deviation_frontier.py
"""

from repro.campaign import (
    AblationGrid,
    CampaignRunner,
    merge_reports,
    reduce_frontier,
    refine_frontier,
)
from repro.campaign.ablation import closed_form_pi_star

GRID = AblationGrid(
    premium_fractions=(0.0, 0.02, 0.08),
    shock_fractions=(0.015, 0.045, 0.105),
)

COALITION_GRID = AblationGrid(
    families=("multi-party", "broker"),
    premium_fractions=(0.0, 0.02, 0.08),
    shock_fractions=(0.045,),
    stages=("staked",),
    coalitions=True,
)


def main() -> None:
    matrix = GRID.matrix()
    print(
        f"=== rational-adversary ablation: {len(matrix)} scenarios over "
        f"{len(matrix.families())} families ==="
    )
    report = CampaignRunner(matrix).run()
    assert report.ok, [v.message for v in report.violations]
    print(report.summary())
    frontier = reduce_frontier(report)
    print()
    print(frontier.table())
    print()

    print("=== the frontier in words ===")
    for row in frontier.rows:
        if row.stage != "staked":
            continue
        profitable = [c for c in row.cells if c.deviation_profitable]
        # show the *largest* premium the shock still defeats: there the walk
        # is both profitable and maximally compensated for the victim
        best = max(profitable, key=lambda c: c.pi, default=None)
        if row.pi_star is None:
            verdict = "no swept premium deters it"
        else:
            verdict = f"pi >= {row.pi_star:g} makes walking irrational"
        extra = (
            f"; at pi={best.pi:g} walking nets {best.deviation_gain:+.1f} "
            f"(victim compensated {best.victim_net})"
            if best is not None
            else ""
        )
        print(f"  {row.family:<12} drop {row.shock:g}: {verdict}{extra}")
    print()

    print("=== the refined frontier: bisecting the staircase ===")
    refined = refine_frontier(frontier)
    print(refined.summary())
    for row in refined.rows:
        if row.stage != "staked" or row.pi_star is None:
            continue
        closed = closed_form_pi_star(row.family, row.shock)
        # An upward-refined row had no deterring lattice point: the engine
        # doubled past the swept ceiling before bisecting.
        lattice = (
            f"{row.lattice_hi:g}" if row.lattice_hi is not None
            else "above the lattice"
        )
        print(
            f"  {row.family:<12} drop {row.shock:g}: lattice pi* "
            f"{lattice} -> refined {row.pi_star:g} "
            f"(closed form {closed:g}, {len(row.probes)} probes)"
        )
    print()

    print("=== pricing collusion: joint pivots ===")
    coalition_report = CampaignRunner(COALITION_GRID.matrix()).run()
    assert coalition_report.ok
    coalition_frontier = reduce_frontier(coalition_report)
    for row in coalition_frontier.rows:
        if not row.coalition:
            continue
        single = coalition_frontier.row(row.family, row.stage, row.shock)
        priced = (
            f"pi* {row.pi_star:g}" if row.pi_star is not None
            else "undeterred at every swept premium"
        )
        print(
            f"  {row.family:<12} {row.coalition:<14} drop {row.shock:g}: "
            f"{priced} (single pivot: {single.pi_star:g})"
        )
    print("  member-to-member forfeits deter nothing, so a coalition never")
    print("  prices below its single pivot; the broker's markup is rent no")
    print("  swept premium hedges against seller+buyer collusion.")
    print()

    print("=== reproducibility: serial vs sharded-and-merged ===")
    shards = [
        CampaignRunner(GRID.matrix(), shard=(i, 2)).run() for i in (1, 2)
    ]
    merged_frontier = reduce_frontier(merge_reports(shards))
    assert merged_frontier.digest == frontier.digest
    refined_from_merged = refine_frontier(merged_frontier)
    assert refined_from_merged.digest == refined.digest
    print(f"frontier digest (serial) : {frontier.digest}")
    print(f"frontier digest (merged) : {merged_frontier.digest}")
    print(f"refined digest (both)    : {refined.digest}")
    print("byte-identical: the refined frontier is a reproducible artifact.")


if __name__ == "__main__":
    main()
