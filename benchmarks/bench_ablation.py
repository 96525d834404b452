"""EXP-AB — ablations over the design choices DESIGN.md calls out.

Five ablations:

1. **leader-set choice** (§7): the protocol works with any feedback vertex
   set; the choice changes premium sizes and phase lengths.  Sweep the
   valid leader sets of the Figure 3a digraph.
2. **footnote-7 path pruning** (§8.2): premium capital with and without
   same-contract forwarding premiums.
3. **the cost of hedging**: transaction counts, run lengths, and peak
   native capital locked, hedged vs base, for each protocol family —
   the price paid for sore-loser protection.
4. **EXP-AB4, the deviation-profitability frontier**: the
   ``repro.campaign.ablation`` engine runs rational (utility-driven)
   pivots across a premium × shock grid on live protocol runs and reports,
   per family and shock, the smallest premium fraction π* that makes
   walking away irrational — the measured form of the paper's π-threshold
   deterrence claim.
5. **EXP-AB5, the refined (continuous) frontier**: adaptive bisection
   between the lattice points (``repro.campaign.ablation.refine``) closes
   the staircase to a π* within 1/64 of the closed forms, and prices the
   named two-party coalitions' collusive walks alongside the single
   pivots.
6. **EXP-AB6, engine throughput**: the payoff kernels
   (``repro.campaign.ablation.kernels``) vs the full simulator on the
   default grid and on a dense-shock hot path, with byte-identical
   run-digest parity asserted before any number is reported.  The
   committed ``BENCH_ablation.json`` carries the measured speedups plus
   the CI perf-gate floor (a speedup *ratio*, so the gate is
   machine-invariant).

Run directly to print the tables:  python benchmarks/bench_ablation.py
"""

from repro.core.hedged_broker import HedgedBrokerDeal, broker_premium_tables
from repro.core.hedged_multi_party import HedgedMultiPartySwap
from repro.core.hedged_two_party import HedgedTwoPartySwap
from repro.core.premiums import escrow_premium_amounts, leader_redemption_total
from repro.graph.digraph import figure3_graph
from repro.graph.feedback import is_feedback_vertex_set
from repro.graph.schedule import MultiPartySchedule
from repro.protocols.base_broker import BaseBrokerDeal, BrokerSpec
from repro.protocols.base_multi_party import BaseMultiPartySwap
from repro.protocols.base_two_party import BaseTwoPartySwap
from repro.protocols.instance import execute

try:
    from benchmarks.tables import format_table
except ImportError:  # running the file directly from within benchmarks/
    from tables import format_table


def generate_leader_choice_table():
    """Every valid leader set of Figure 3a: premiums and run length."""
    graph = figure3_graph()
    candidates = [("A",), ("B",), ("A", "B"), ("A", "C"), ("B", "C"), ("A", "B", "C")]
    rows = []
    for leaders in candidates:
        if not is_feedback_vertex_set(graph, leaders):
            continue
        schedule = MultiPartySchedule(graph, leaders)
        escrow = escrow_premium_amounts(graph, leaders, 1)
        redemption = sum(leader_redemption_total(graph, l, 1) for l in leaders)
        rows.append(
            (
                "{" + ",".join(leaders) + "}",
                sum(escrow.values()),
                redemption,
                schedule.forward_len,
                schedule.horizon,
            )
        )
    return (
        "leader set", "total escrow premium (p)", "leaders' redemption total (p)",
        "escrow phase (Δ)", "total run (Δ)",
    ), rows


def generate_pruning_table():
    """Footnote-7 pruning: premium capital per party, on vs off."""
    spec = BrokerSpec()
    rows = []
    for optimize in (True, False):
        tables = broker_premium_tables(spec, premium=1, optimize=optimize)
        total_t = sum(tables["trading"].values())
        total_e = sum(tables["escrow"].values())
        keys = sum(len(v) for v in tables["required_keys"].values())
        rows.append(
            (
                "pruned (footnote 7)" if optimize else "unpruned",
                total_t,
                total_e,
                keys,
            )
        )
    return ("mode", "total T (p)", "total E (p)", "required premium slots"), rows


def _run_cost(builder):
    instance = builder()
    result = execute(instance)
    txs = len(result.transactions)
    # peak native locked across all contracts and heights is approximated
    # by the sum of all native amounts that ever entered contracts
    native_in = 0
    for event in result.events:
        if "premium" in event.name and event.name.endswith("deposited"):
            native_in += int(event.data.get("amount", 0))
        if event.name == "premium_endowed":
            native_in += int(event.data.get("amount", 0))
    return txs, instance.horizon, native_in


def generate_overhead_table():
    rows = []
    pairs = [
        ("two-party", lambda: BaseTwoPartySwap().build(), lambda: HedgedTwoPartySwap().build()),
        (
            "multi-party (fig. 3a)",
            lambda: BaseMultiPartySwap(graph=figure3_graph(), leaders=("A",)).build(),
            lambda: HedgedMultiPartySwap(graph=figure3_graph(), leaders=("A",)).build(),
        ),
        ("broker", lambda: BaseBrokerDeal().build(), lambda: HedgedBrokerDeal().build()),
    ]
    for name, base_builder, hedged_builder in pairs:
        base_txs, base_len, _ = _run_cost(base_builder)
        hedged_txs, hedged_len, premium_capital = _run_cost(hedged_builder)
        rows.append(
            (
                name,
                base_txs,
                hedged_txs,
                base_len,
                hedged_len,
                premium_capital,
            )
        )
    return (
        "protocol", "base txs", "hedged txs", "base run (Δ)", "hedged run (Δ)",
        "premium capital (p units)",
    ), rows


FRONTIER_PREMIUMS = (0.0, 0.01, 0.03, 0.08)
FRONTIER_SHOCKS = (0.015, 0.045, 0.105)


def generate_frontier_table():
    """EXP-AB4: the staked-stage deterrence frontier, every family."""
    from repro.campaign import CampaignRunner, ablation_matrix, reduce_frontier

    matrix = ablation_matrix(
        premium_fractions=FRONTIER_PREMIUMS, shock_fractions=FRONTIER_SHOCKS
    )
    report = CampaignRunner(matrix).run()
    assert report.ok, [v.message for v in report.violations]
    frontier = reduce_frontier(report)
    rows = []
    for row in frontier.rows:
        if row.stage != "staked":
            continue
        profitable = [c.pi for c in row.cells if c.deviation_profitable]
        rows.append(
            (
                row.family,
                f"{row.shock:g}",
                "-" if row.pi_star is None else f"{row.pi_star:g}",
                ",".join(f"{pi:g}" for pi in profitable) or "-",
                f"{max((c.deviation_gain for c in row.cells), default=0.0):g}",
            )
        )
    return (
        "family", "price drop s", "pi* (deters)", "profitable pi",
        "max deviation gain",
    ), rows


REFINED_SHOCK = 0.045


def generate_refined_frontier_table():
    """EXP-AB5: bisected continuous π* vs the closed forms, + coalitions."""
    from repro.campaign import (
        CampaignRunner,
        ablation_matrix,
        reduce_frontier,
        refine_frontier,
        refine_spec,
    )
    from repro.campaign.ablation import closed_form_pi_star
    from repro.campaign.canon import fmt_fraction

    matrix = ablation_matrix(
        premium_fractions=FRONTIER_PREMIUMS,
        shock_fractions=(REFINED_SHOCK,),
        stages=("staked",),
        coalitions=True,
    )
    report = CampaignRunner(matrix).run()
    assert report.ok, [v.message for v in report.violations]
    refined = refine_frontier(reduce_frontier(report))
    spec = refine_spec(
        premium_fractions=FRONTIER_PREMIUMS,
        shock_fractions=(REFINED_SHOCK,),
        stages=("staked",),
        coalitions=True,
    )
    rows = []
    for row in refined.rows:
        closed = closed_form_pi_star(row.family, row.shock, row.coalition)
        rows.append(
            (
                row.family,
                row.coalition or "pivot",
                f"{row.shock:g}",
                "-" if row.lattice_hi is None else f"{row.lattice_hi:g}",
                "-" if row.pi_star is None else fmt_fraction(row.pi_star),
                "-" if closed is None else f"{closed:g}",
                len(row.probes),
            )
        )
    records = {
        "spec_digest": spec.digest(),
        "run_digest": report.run_digest,
        "refined_digest": refined.digest,
        "scenarios": report.scenarios,
        "scenarios_per_second": report.scenarios_per_second,
        "probes": refined.probes,
        "rows": len(refined.rows),
    }
    return (
        "family", "pivot", "price drop s", "lattice pi*", "refined pi*",
        "closed form", "probes",
    ), rows, records


#: dense shock sweep for the kernel hot path — enough distinct shocks that
#: template calibration amortizes and the per-shock decision replay
#: dominates, which is the regime the grid engine actually runs in.
HOT_SHOCKS = tuple(round(0.0005 + 0.00125 * i, 8) for i in range(96))

#: CI perf-gate floor on the warm dense-grid *engine-level* kernel speedup
#: over the simulator.  Engine-level throughput divides scenarios by the
#: per-result recorded seconds, isolating the execution engines from the
#: runner's (engine-independent) matrix expansion and report aggregation.
#: A *ratio*, so it holds across machines; committed well under the
#: ~400-550x this script and parity_audit.py measure on a 2-vCPU host
#: (scalar per-shock replay), so only a real hot-path regression trips it.
KERNEL_HOT_SPEEDUP_FLOOR = 100.0


def _engine_rate(report):
    """Scenarios per second of *engine* time: the sum of the per-result
    recorded seconds, excluding runner overhead shared by both engines."""
    return report.scenarios / sum(r.elapsed_seconds for r in report.results)


def generate_engine_throughput_table():
    """EXP-AB6: kernel vs simulator throughput, digest parity enforced."""
    from repro.campaign import CampaignRunner, KernelEngine, ablation_matrix

    grids = (
        ("default", ablation_matrix(coalitions=True)),
        ("hot", ablation_matrix(shock_fractions=HOT_SHOCKS, coalitions=True)),
    )
    rows = []
    records = {}
    for grid_name, matrix in grids:
        sim = CampaignRunner(matrix, backend="serial").run()
        assert sim.ok, [v.message for v in sim.violations]
        engine = KernelEngine()
        cold = CampaignRunner(matrix, backend="kernel", kernel=engine).run()
        warm = CampaignRunner(matrix, backend="kernel", kernel=engine).run()
        # Parity first: a throughput number for a diverging engine is noise.
        assert cold.run_digest == sim.run_digest, grid_name
        assert warm.run_digest == sim.run_digest, grid_name
        arms = (("simulator", sim), ("kernel cold", cold), ("kernel warm", warm))
        for arm_name, report in arms:
            speedup = _engine_rate(report) / _engine_rate(sim)
            rows.append(
                (
                    grid_name,
                    arm_name,
                    report.scenarios,
                    f"{report.scenarios_per_second:.0f}",
                    f"{_engine_rate(report):.0f}",
                    f"{speedup:.1f}x",
                )
            )
        records[f"{grid_name}_scenarios"] = sim.scenarios
        records[f"{grid_name}_simulator_per_second"] = round(
            sim.scenarios_per_second, 1
        )
        records[f"{grid_name}_end_to_end_warm_speedup"] = round(
            warm.scenarios_per_second / sim.scenarios_per_second, 2
        )
        records[f"{grid_name}_engine_cold_speedup"] = round(
            _engine_rate(cold) / _engine_rate(sim), 2
        )
        records[f"{grid_name}_engine_warm_speedup"] = round(
            _engine_rate(warm) / _engine_rate(sim), 2
        )
    records["kernel_hot_speedup_floor"] = KERNEL_HOT_SPEEDUP_FLOOR
    return (
        "grid", "engine", "scenarios", "end-to-end scen/s",
        "engine scen/s", "engine speedup",
    ), rows, records


# ----------------------------------------------------------------------
def test_every_valid_leader_set_works(benchmark):
    header, rows = benchmark(generate_leader_choice_table)
    assert len(rows) >= 5  # {C} is the only invalid singleton
    # more leaders never lengthen the escrow phase
    by_size = {}
    for label, e, r, fwd, run in rows:
        size = label.count(",") + 1
        by_size.setdefault(size, []).append(fwd)
    assert min(by_size[3]) <= min(by_size[1])


def test_all_leader_sets_execute_cleanly():
    graph = figure3_graph()
    for leaders in [("A",), ("B",), ("A", "B"), ("A", "B", "C")]:
        instance = HedgedMultiPartySwap(graph=graph, leaders=leaders).build()
        result = execute(instance)
        assert not result.reverted(), leaders


def test_pruning_saves_capital(benchmark):
    header, rows = benchmark(generate_pruning_table)
    pruned = next(r for r in rows if r[0].startswith("pruned"))
    unpruned = next(r for r in rows if r[0] == "unpruned")
    assert pruned[1] < unpruned[1]
    assert pruned[2] < unpruned[2]
    assert pruned[3] < unpruned[3]


def test_hedging_overhead_is_bounded(benchmark):
    header, rows = benchmark(generate_overhead_table)
    for name, base_txs, hedged_txs, base_len, hedged_len, capital in rows:
        assert hedged_txs > base_txs  # premiums cost transactions...
        assert hedged_txs <= 6 * base_txs  # ...but only a constant factor
        assert hedged_len <= 3 * base_len + 6
        assert capital > 0


def test_frontier_matches_two_party_closed_form(benchmark):
    """EXP-AB4: the measured two-party π* is the smallest swept premium
    fraction above the shock — the paper's threshold, within a grid step."""
    header, rows = benchmark.pedantic(generate_frontier_table, rounds=1, iterations=1)
    two_party = {r[1]: r for r in rows if r[0] == "two-party"}
    for shock in FRONTIER_SHOCKS:
        above = [pi for pi in FRONTIER_PREMIUMS if pi * 100 > shock * 100]
        expected = f"{min(above):g}" if above else "-"
        assert two_party[f"{shock:g}"][2] == expected, (shock, two_party)
    # a deterred line never has a profitable premium at or past pi*
    for family, shock, pi_star, profitable, max_gain in rows:
        if pi_star != "-" and profitable != "-":
            assert max(float(p) for p in profitable.split(",")) < float(pi_star)


def test_refined_frontier_brackets_the_closed_forms(benchmark):
    """EXP-AB5: the bisected π* lands within the default tolerance of the
    continuous closed-form thresholds; coalition rows never price below
    the single pivot (member-to-member forfeits deter nothing)."""
    from repro.campaign.ablation import DEFAULT_TOL

    header, rows, _ = benchmark.pedantic(
        generate_refined_frontier_table, rounds=1, iterations=1
    )
    singles = {}
    for family, pivot, shock, lattice, refined, closed, probes in rows:
        if pivot == "pivot":
            singles[family] = refined
            assert refined != "-" and closed != "-"
            assert abs(float(refined) - float(closed)) <= DEFAULT_TOL, (
                family, refined, closed,
            )
            # refinement strictly improves on the lattice staircase
            assert float(refined) <= float(lattice)
    for family, pivot, shock, lattice, refined, closed, probes in rows:
        if pivot != "pivot" and refined != "-":
            assert float(refined) >= float(singles[family])


def test_kernel_engine_reproduces_simulator_fast(benchmark):
    """EXP-AB6: byte-identical digests at a real (order-of-magnitude or
    better) warm speedup.  The bench assertion bound is far below the
    committed BENCH floor so it never flakes on a loaded machine; the CI
    perf gate (benchmarks/parity_audit.py) enforces the committed floor."""
    header, rows, records = benchmark.pedantic(
        generate_engine_throughput_table, rounds=1, iterations=1
    )
    assert records["hot_engine_warm_speedup"] >= 20.0
    assert records["hot_end_to_end_warm_speedup"] >= 2.0


if __name__ == "__main__":
    print(format_table("EXP-AB: leader-set choice (Figure 3a)", *generate_leader_choice_table()))
    print()
    print(format_table("EXP-AB: footnote-7 pruning", *generate_pruning_table()))
    print()
    print(format_table("EXP-AB: the cost of hedging", *generate_overhead_table()))
    print()
    print(format_table(
        "EXP-AB4: deviation-profitability frontier (staked-stage shocks)",
        *generate_frontier_table(),
    ))
    print()
    ab5_header, ab5_rows, ab5_records = generate_refined_frontier_table()
    print(format_table(
        "EXP-AB5: refined (bisected) frontier vs closed forms + coalitions",
        ab5_header, ab5_rows,
    ))
    print()
    ab6_header, ab6_rows, ab6_records = generate_engine_throughput_table()
    print(format_table(
        "EXP-AB6: kernel vs simulator throughput (digest parity enforced)",
        ab6_header, ab6_rows,
    ))
    try:
        from benchmarks.tables import host_metadata, write_bench_json
    except ImportError:  # running the file directly from within benchmarks/
        from tables import host_metadata, write_bench_json
    write_bench_json(
        "ablation",
        {
            "experiment": "EXP-AB5",
            "host": host_metadata(),
            **ab5_records,
            "engine_throughput": ab6_records,
        },
    )
