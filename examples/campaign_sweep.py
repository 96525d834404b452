"""A full adversarial campaign sweep over every protocol family.

Expands the default scenario matrix — (protocol family × premium/timeout/
graph schedule × adversary subset × named strategy × deviation round) —
and executes all of it through the campaign engine, twice: serially, then
sharded in two halves through the process-pool backend and recombined
with ``merge_reports``.  All paths must report zero property violations
and the *same* run digest, which is the engine's reproducibility
contract: a sharded campaign (even spread across hosts) proves it covered
exactly the same ground as a monolithic one.

Then it zooms into the paper's headline numbers: the per-round premium
transfers of the two-party swap (p_b to Alice when Bob reneges, net p_a to
Bob when Alice reneges), extracted straight from the campaign results.

Run with:  python examples/campaign_sweep.py
"""

from repro.campaign import (
    CampaignRunner,
    ScenarioMatrix,
    default_matrix,
    merge_reports,
)
from repro.checker import halt_strategies, properties as props
from repro.core.hedged_two_party import HedgedTwoPartySwap


def run_full_campaign() -> None:
    print("=== default adversarial campaign: all six protocol families ===")
    matrix = default_matrix()
    print(f"matrix: {len(matrix)} scenarios {matrix.block_sizes()}")
    serial = CampaignRunner(matrix, backend="serial").run()
    print("serial: ", serial.summary())
    shards = [
        CampaignRunner(
            default_matrix(), backend="process", workers=2, shard=(i, 2)
        ).run()
        for i in (1, 2)
    ]
    merged = merge_reports(shards)
    print("sharded:", merged.summary())
    assert serial.ok and merged.ok, "the hedged protocols must verify clean"
    assert serial.run_digest == merged.run_digest, (
        "merged shards must reproduce the unsharded digest byte for byte"
    )
    print(f"run digest (serial == merged shards): {serial.run_digest[:32]}…")
    for value, scenarios, violations in serial.axis_table("family"):
        print(f"  {value:<14} {scenarios:>5} scenarios  {violations} violations")


def sweep_two_party_deviation_points() -> None:
    print()
    print("=== two-party swap: compensation at every deviation round ===")
    horizon = HedgedTwoPartySwap().build().horizon
    matrix = ScenarioMatrix()
    matrix.add_block(
        family="two-party",
        schedule="p2:1",
        builder=lambda: HedgedTwoPartySwap().build(),
        builder_id="two-party/p2:1",
        properties=(props.no_stuck_escrow, props.two_party_hedged),
        strategies={p: halt_strategies(horizon) for p in ("Alice", "Bob")},
        include_compliant=False,
    )
    report = CampaignRunner(matrix).run()
    assert report.ok
    print(f"{'deviator':>8} {'round':>5} {'Alice':>6} {'Bob':>6}")
    for result in report.results:
        axes = dict(result.axes)
        nets = dict(result.premium_net)
        print(
            f"{axes['adversaries']:>8} {axes['round']:>5} "
            f"{nets['Alice']:>+6} {nets['Bob']:>+6}"
        )
    print("(Bob reneging mid-swap pays Alice p_b = 1; Alice reneging after")
    print(" Bob escrows forfeits p_a + p_b and recovers p_b: net p_a = 2 to Bob.)")


if __name__ == "__main__":
    run_full_campaign()
    sweep_two_party_deviation_points()
