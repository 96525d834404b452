"""The frontier refinement engine and its satellite contracts (ISSUE 4).

Pins:

- **bisection convergence**: the refined π* brackets each family's §5.2
  closed-form deterrence threshold (two-party ``p_b``, ring ``4p``, broker
  ``3p`` — escrow-then-withhold — auction ``n·p``) within the tolerance,
- **dense stage sweep**: ``stages=("all",)`` produces one arm per protocol
  round for every family, charting deterrence decay round by round, with
  the broker's binding escrow-then-withhold-key deviation *emerging* from
  the per-round utility rule rather than being hard-coded,
- **coalition pivots**: the named two-party coalitions price a collusive
  π* that is never below the single-pivot threshold (member-to-member
  forfeits deter nothing),
- **digest discipline**: refined digests are byte-identical across serial
  probes, pooled probes, and refinement of a shard-merged lattice, and
  survive a JSON round trip with tamper detection,
- **probe parity**: a bisection probe equals the reduced one-cell
  campaign — cell and run digest — on the kernel, serial and warm-cache
  routes, and a violating probe still raises with its messages,
- **canonical floats**: one normalization point for fraction axes (repr
  stability, ``-0.0`` collapse, no six-digit truncation).
"""

import json
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignRunner,
    ResultCache,
    WorkerPool,
    ablation_cell,
    ablation_matrix,
    merge_reports,
    reduce_frontier,
    refine_frontier,
)
from repro.campaign.ablation import (
    ABLATION_COALITIONS,
    ABLATION_FAMILIES,
    DEFAULT_TOL,
    RefinedFrontierReport,
    closed_form_pi_star,
    premium_base,
)
from repro.campaign.ablation.bounds import MIN_TOL
from repro.campaign.ablation.kernels import KernelEngine
from repro.campaign.ablation.refine import ProbeCell, _CellProber
from repro.campaign.canon import canon_float, fmt_fraction

LATTICE = (0.0, 0.02, 0.05, 0.08)
SHOCK = 0.045


def lattice_frontier(families, shocks=(SHOCK,), stages=("staked",), **kwargs):
    matrix = ablation_matrix(
        families=families,
        premium_fractions=LATTICE,
        shock_fractions=shocks,
        stages=stages,
        **kwargs,
    )
    report = CampaignRunner(matrix).run()
    assert report.ok, [f"{v.scenario}: {v.message}" for v in report.violations]
    return reduce_frontier(report)


# ----------------------------------------------------------------------
# bisection convergence to the closed forms (acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", ABLATION_FAMILIES)
@pytest.mark.parametrize("shock", [0.015, 0.045])
def test_refined_pi_star_brackets_the_closed_form_within_tol(family, shock):
    refined = refine_frontier(lattice_frontier((family,), shocks=(shock,)))
    row = refined.row(family, "staked", shock)
    closed = closed_form_pi_star(family, shock)
    assert row.converged, row
    assert row.bracket_width <= DEFAULT_TOL
    assert abs(row.pi_star - closed) <= DEFAULT_TOL, (row, closed)
    # the measured boundary sits inside the final bracket, which sits
    # within half a premium quantization unit of the closed form
    quantum = 0.5 / premium_base(family)
    assert row.pi_lo - quantum <= closed <= row.pi_hi + quantum, (row, closed)


def test_tighter_tolerance_takes_more_probes_and_narrows_the_bracket():
    frontier = lattice_frontier(("two-party",))
    coarse = refine_frontier(frontier, tol=DEFAULT_TOL)
    fine = refine_frontier(frontier, tol=DEFAULT_TOL / 4)
    c_row, f_row = coarse.rows[0], fine.rows[0]
    assert f_row.bracket_width <= DEFAULT_TOL / 4 < c_row.bracket_width + 1e-12
    assert f_row.iterations > c_row.iterations
    assert abs(f_row.pi_star - closed_form_pi_star("two-party", SHOCK)) <= (
        DEFAULT_TOL / 4 + 0.5 / premium_base("two-party")
    )


def test_undeterred_and_trivially_deterred_rows_carry_through():
    # pre-stake: walking is free, so the upward expansion probes to the
    # ceiling and *confirms* undeterred instead of assuming it
    from repro.campaign.ablation import EXPAND_CEILING

    refined = refine_frontier(
        lattice_frontier(("two-party",), stages=("pre-stake",))
    )
    row = refined.rows[0]
    assert not row.deterred and row.pi_star is None
    assert row.probes and all(probe.walked for probe in row.probes)
    assert row.pi_lo == EXPAND_CEILING  # walked all the way up
    assert row.probes[-1].pi == EXPAND_CEILING
    # a late-round shock deters even the unhedged run: π* = 0, no probes
    late = refine_frontier(
        lattice_frontier(("two-party",), stages=("round:6",))
    )
    assert late.rows[0].pi_star == 0.0
    assert late.rows[0].converged and not late.rows[0].probes


def test_refine_extends_the_bracket_upward_when_the_lattice_ceiling_walks():
    # ROADMAP satellite: two-party at s = 0.105 with premiums <= 0.08 walks
    # at every lattice point; the engine doubles past the ceiling, finds a
    # deterring probe, and bisects to the closed form instead of carrying
    # the row through unrefined.
    shock = 0.105
    frontier = lattice_frontier(("two-party",), shocks=(shock,))
    assert frontier.rows[0].pi_star is None  # lattice ceiling still walks
    refined = refine_frontier(frontier)
    row = refined.rows[0]
    assert row.lattice_hi is None and row.deterred and row.converged
    closed = closed_form_pi_star("two-party", shock)
    assert abs(row.pi_star - closed) <= DEFAULT_TOL + 0.5 / premium_base(
        "two-party"
    )
    # the first expansion probe doubles the lattice ceiling
    assert row.probes[0].pi == 2 * max(LATTICE)


def test_refine_opens_the_bracket_at_zero_when_the_lattice_floor_deters():
    # sweep only premiums that deter: the engine probes π = 0 itself
    matrix = ablation_matrix(
        families=("two-party",),
        premium_fractions=(0.05, 0.08),
        shock_fractions=(SHOCK,),
        stages=("staked",),
    )
    report = CampaignRunner(matrix).run()
    frontier = reduce_frontier(report)
    assert frontier.rows[0].pi_star == 0.05  # lattice has no walking point
    refined = refine_frontier(frontier)
    row = refined.rows[0]
    assert row.probes[0].pi == 0.0 and row.probes[0].walked
    assert row.converged
    assert abs(row.pi_star - closed_form_pi_star("two-party", SHOCK)) <= (
        DEFAULT_TOL + 0.5 / premium_base("two-party")
    )


def test_refine_rejects_partial_frontiers_and_bad_tolerances():
    frontier = lattice_frontier(("auction",))
    for tol in (0.0, MIN_TOL / 2, float("nan")):
        with pytest.raises(ValueError, match="tol must be finite and at least"):
            refine_frontier(frontier, tol=tol)
    partial = replace(
        frontier, complete=False, scenarios=frontier.scenarios - 1
    )
    with pytest.raises(ValueError, match="full-coverage"):
        refine_frontier(partial)


# ----------------------------------------------------------------------
# dense per-round stage sweep (acceptance criterion)
# ----------------------------------------------------------------------
def _family_horizon(family: str) -> int:
    if family == "two-party":
        from repro.core.hedged_two_party import HedgedTwoPartySwap

        return HedgedTwoPartySwap().build().horizon
    if family == "multi-party":
        from repro.core.hedged_multi_party import HedgedMultiPartySwap
        from repro.graph.digraph import ring_graph

        return HedgedMultiPartySwap(
            graph=ring_graph(3), leaders=("P0",)
        ).build().horizon
    if family == "broker":
        from repro.core.hedged_broker import HedgedBrokerDeal

        return HedgedBrokerDeal().build().horizon
    from repro.core.hedged_auction import HedgedAuction

    return HedgedAuction().build().horizon


@pytest.mark.parametrize("family", ABLATION_FAMILIES)
def test_stage_all_sweeps_every_protocol_round(family):
    matrix = ablation_matrix(
        families=(family,),
        premium_fractions=(0.0,),
        shock_fractions=(SHOCK,),
        stages=("all",),
    )
    stages = {
        dict(block.extra_axes)["stage"]: int(
            dict(block.extra_axes)["shock_height"]
        )
        for block in matrix.blocks
    }
    horizon = _family_horizon(family)
    assert stages == {f"round:{h}": h for h in range(horizon)}


def test_two_party_deterrence_decays_round_by_round():
    frontier = lattice_frontier(("two-party",), stages=("all",))
    by_round = {
        int(row.stage.split(":")[1]): row.pi_star for row in frontier.rows
    }
    horizon = _family_horizon("two-party")
    assert set(by_round) == set(range(horizon))
    assert frontier.stages("two-party") == tuple(
        f"round:{h}" for h in sorted(by_round)
    )
    # before Bob stakes anything (premium lands at height 2) walking is
    # free; in the staked window the paper's premium deters; once only
    # collection remains even π = 0 completes
    assert by_round[0] is None and by_round[1] is None
    assert by_round[2] == 0.05 and by_round[3] == 0.05
    assert all(by_round[h] == 0.0 for h in range(4, horizon))


def test_broker_binding_stage_is_escrow_then_withhold_not_hardcoded():
    """Every deterred mid-protocol round prices at the 3p escrow-then-
    withhold staircase — including rounds where the naive E+T stake is far
    larger — because the per-round rule finds the cheaper later walk."""
    frontier = lattice_frontier(("broker",), stages=("all",))
    closed = closed_form_pi_star("broker", SHOCK)
    staircase = min(pi for pi in LATTICE if pi > closed)
    deterred = {
        int(row.stage.split(":")[1]): row.pi_star
        for row in frontier.rows
        if row.pi_star not in (None, 0.0)
    }
    assert deterred, "no binding window measured"
    assert set(deterred.values()) == {staircase}
    # the binding window spans both pre-escrow and post-escrow rounds
    from repro.contracts.broker import BrokerDeadlines

    deadlines = BrokerDeadlines.hedged()
    assert min(deterred) < deadlines.escrow <= max(deterred)


def test_named_stages_and_round_aliases_coexist():
    matrix = ablation_matrix(
        families=("two-party",),
        premium_fractions=(0.05,),
        shock_fractions=(SHOCK,),
        stages=("staked", "round:3", "round:5"),
    )
    labels = [dict(b.extra_axes)["stage"] for b in matrix.blocks]
    # "staked" resolves to height 3 but keeps its own label; round:3 is a
    # distinct arm at the same height
    assert labels == ["staked", "round:3", "round:5"]
    heights = [dict(b.extra_axes)["shock_height"] for b in matrix.blocks]
    assert heights == ["3", "3", "5"]


# ----------------------------------------------------------------------
# coalition pivots (acceptance criterion + satellite test)
# ----------------------------------------------------------------------
def test_coalition_pi_star_never_below_single_pivot():
    frontier = lattice_frontier(
        ("multi-party", "broker"), coalitions=True
    )
    coalition_rows = [row for row in frontier.rows if row.coalition]
    assert len(coalition_rows) == 2  # both named coalitions priced
    names = {(r.family, r.coalition) for r in coalition_rows}
    assert names == {("multi-party", "P1+P2"), ("broker", "seller+buyer")}
    # one row type: single-pivot lines first, then coalition lines
    assert [bool(row.coalition) for row in frontier.rows] == [False] * 2 + [True] * 2
    for row in coalition_rows:
        assert frontier.row(row.family, row.stage, row.shock, row.coalition) is row
        single = frontier.row(row.family, row.stage, row.shock)
        if row.pi_star is None:
            continue  # undeterred: collusive π* above the whole lattice
        assert single.pi_star is not None
        assert row.pi_star >= single.pi_star, (row, single)


def test_refined_coalition_rows_price_the_collusive_walk():
    refined = refine_frontier(
        lattice_frontier(("multi-party", "broker"), coalitions=True)
    )
    ring = refined.row("multi-party", "staked", SHOCK, coalition="P1+P2")
    single = refined.row("multi-party", "staked", SHOCK)
    assert ring.converged
    # the coalition's external stake is smaller, so its refined threshold
    # is at least the single pivot's
    assert ring.pi_star >= single.pi_star - DEFAULT_TOL
    broker = refined.row("broker", "staked", SHOCK, coalition="seller+buyer")
    # squeezing the broker out of its markup is not hedged by any swept
    # premium: the collusive row stays undeterred
    assert not broker.deterred


def test_refined_coalition_frontier_brackets_the_closed_forms():
    # satellite: the outsider-facing stake sums give closed-form collusive
    # thresholds the refined coalition rows must bracket
    from repro.campaign.ablation import deterrence_stake

    refined = refine_frontier(
        lattice_frontier(("multi-party", "broker"), coalitions=True)
    )
    # ring P1+P2: external stake = 3p escrow toward P0 + p redemption = 4p,
    # coincidentally the single pivot's stake — collusion buys no discount
    assert deterrence_stake("multi-party", 0.05, "P1+P2") == 4 * 5
    closed = closed_form_pi_star("multi-party", SHOCK, "P1+P2")
    assert closed == closed_form_pi_star("multi-party", SHOCK)
    ring = refined.row("multi-party", "staked", SHOCK, coalition="P1+P2")
    quantum = 0.5 / premium_base("multi-party")
    assert ring.converged
    assert ring.pi_lo - quantum <= closed <= ring.pi_hi + quantum, (ring, closed)
    # broker seller+buyer: the markup is un-hedgeable rent — the closed
    # form is None, and the refined row stays undeterred even though the
    # upward expansion probed all the way to the ceiling
    assert closed_form_pi_star("broker", SHOCK, "seller+buyer") is None
    assert deterrence_stake("broker", 0.05, "seller+buyer") is None
    broker = refined.row("broker", "staked", SHOCK, coalition="seller+buyer")
    assert not broker.deterred and broker.probes
    assert all(probe.walked for probe in broker.probes)
    with pytest.raises(ValueError, match="unknown coalition"):
        deterrence_stake("multi-party", 0.05, "nope")


def test_coalition_walks_are_jointly_rational():
    frontier = lattice_frontier(("multi-party",), coalitions=True)
    coalition_cells = [cell for cell in frontier.cells if cell.coalition]
    assert coalition_cells
    for cell in coalition_cells:
        assert cell.walked == cell.deviation_profitable, cell
        if cell.walked and cell.pi > 0:
            # the outsider (P0) is compensated by the members' external
            # premiums when the coalition walks from a stake
            assert cell.victim_net > 0, cell


def test_coalition_victims_exclude_every_member():
    # the rational arm's adversaries axis carries both members; neither
    # may be counted as a compensated victim
    matrix = ablation_matrix(
        families=("multi-party",),
        premium_fractions=(0.02,),
        shock_fractions=(0.105,),
        stages=("staked",),
        coalitions=True,
    )
    report = CampaignRunner(matrix).run()
    rational = next(
        r
        for r in report.results
        if "coalition" in dict(r.axes) and dict(r.axes)["strategy"] == "rational"
    )
    assert dict(r for r in rational.axes)["adversaries"] == "P1,P2"
    frontier = reduce_frontier(report)
    (row,) = (row for row in frontier.rows if row.coalition)
    (cell,) = row.cells
    nets = dict(rational.premium_net)
    assert cell.victim_net == max(nets["P0"], 0)


# ----------------------------------------------------------------------
# digest discipline: serial vs pooled vs refined-from-merged
# ----------------------------------------------------------------------
def test_refined_digest_parity_across_backends_and_merged_lattice():
    kwargs = dict(
        families=("two-party", "auction"),
        premium_fractions=(0.0, 0.02, 0.05),
        shock_fractions=(SHOCK,),
        stages=("staked",),
    )
    serial_frontier = reduce_frontier(
        CampaignRunner(ablation_matrix(**kwargs)).run()
    )
    refined_serial = refine_frontier(serial_frontier)
    with WorkerPool(workers=2) as pool:
        pooled_frontier = reduce_frontier(
            CampaignRunner(
                ablation_matrix(**kwargs), backend="process", pool=pool
            ).run()
        )
        refined_pooled = refine_frontier(pooled_frontier, pool=pool)
    shards = [
        CampaignRunner(ablation_matrix(**kwargs), shard=(i, 2)).run()
        for i in (1, 2)
    ]
    refined_merged = refine_frontier(
        reduce_frontier(merge_reports(shards))
    )
    assert refined_serial.digest == refined_pooled.digest
    assert refined_serial.digest == refined_merged.digest
    assert refined_serial.probes > 0


# ----------------------------------------------------------------------
# probe parity: a probe is the one-cell campaign, without its reports
# ----------------------------------------------------------------------
PROBE_CELLS = (
    ("two-party", 0.0, SHOCK, "staked", ""),  # π = 0: the unhedged baseline
    ("broker", 0.035, SHOCK, "staked", ABLATION_COALITIONS["broker"][0]),
    ("multi-party", 0.02, SHOCK, "round:2", ""),
)


def _reference_probe(cell):
    family, pi, shock, stage, coalition = cell
    report = CampaignRunner(
        ablation_cell(family, pi, shock, stage, coalition=coalition)
    ).run()
    (row,) = reduce_frontier(report).rows
    (lattice_cell,) = row.cells
    return ProbeCell(**vars(lattice_cell), run_digest=report.run_digest)


@pytest.mark.parametrize("cell", PROBE_CELLS, ids=lambda cell: cell[0])
def test_probe_matches_the_reduced_one_cell_campaign_on_every_route(
    cell, tmp_path
):
    reference = _reference_probe(cell)
    cache = ResultCache(tmp_path / "cache")
    _CellProber(cache=cache).probe(*cell)  # stores the probe block
    warm = _CellProber(cache=cache)
    routes = {
        "kernel": _CellProber(kernel=KernelEngine()),
        "serial": _CellProber(),
        "warm-cache": warm,
    }
    for route, prober in routes.items():
        assert prober.probe(*cell) == reference, route
    assert warm.cache_hits == 2


def test_every_probe_enters_the_class_level_probe_hook(monkeypatch):
    """The refine-kernel benchmark times each probe by patching
    ``_CellProber.probe`` on the class.  A refine must enter that
    attribute once per probe, with the probe's (family, π, shock, stage,
    coalition): no alias taken at import or construction time may
    bypass the patch."""
    from repro.campaign import Experiment, refine_spec

    real, calls = _CellProber.probe, []

    def hooked(self, *args, **kwargs):
        calls.append((args, kwargs))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(_CellProber, "probe", hooked)
    spec = refine_spec(
        families=("two-party", "broker"),
        premium_fractions=LATTICE,
        shock_fractions=(0.015, SHOCK),
        stages=("staked",),
        coalitions=True,
    )
    refined = Experiment(spec).run().refined
    assert len(calls) == refined.probes > 0
    assert calls == [
        ((row.family, probe.pi, row.shock, row.stage, row.coalition), {})
        for row in refined.rows
        for probe in row.probes
    ]


def test_violating_probe_raises_with_its_properties(monkeypatch):
    # a probe's two scenarios (comply, rational) share no base run, so
    # the serial runner runs each through run_scenario
    import repro.campaign.scenario as scenario_module

    real = scenario_module.run_scenario

    def violating(scenario):
        return replace(real(scenario), violations=("escrow leaked",))

    monkeypatch.setattr(scenario_module, "run_scenario", violating)
    with pytest.raises(RuntimeError, match="violated properties") as raised:
        _CellProber().probe(*PROBE_CELLS[0])
    assert raised.value.args[0].endswith("['escrow leaked', 'escrow leaked']")


def test_refined_json_roundtrip_and_tamper_detection():
    refined = refine_frontier(lattice_frontier(("auction",)))
    restored = RefinedFrontierReport.from_json(refined.to_json())
    assert restored == refined

    def tamper(mutate):
        data = json.loads(refined.to_json())
        mutate(data)
        with pytest.raises(ValueError, match="digest mismatch"):
            RefinedFrontierReport.from_json(json.dumps(data))

    tamper(lambda d: d["rows"][0].update(pi_star=0.0))
    tamper(lambda d: d.update(tol=0.5))
    tamper(lambda d: d.update(base_digest="0" * 64))

    def flip_probe(d):
        row = next(r for r in d["rows"] if r["probes"])
        row["probes"][0]["run_digest"] = "0" * 64

    tamper(flip_probe)


def test_ablation_cell_factory_is_registered_and_validates():
    from repro.campaign import MatrixSpec
    from repro.campaign.pool import registered_factories

    matrix = ablation_cell("two-party", 0.034999999999999996, SHOCK, "staked")
    assert len(matrix) == 2
    assert matrix.spec.factory == "ablation_cell"
    assert matrix.spec.build().digest() == matrix.digest()
    assert "ablation_cell" in registered_factories()
    with pytest.raises(ValueError, match="unknown ablation family"):
        ablation_cell("bootstrap", 0.02, SHOCK, "staked")
    with pytest.raises(ValueError, match="concrete stage"):
        ablation_cell("two-party", 0.02, SHOCK, "all")
    with pytest.raises(ValueError, match="unknown coalition"):
        ablation_cell("broker", 0.02, SHOCK, "staked", coalition="nope")
    coalition = ablation_cell(
        "broker", 0.02, SHOCK, "staked", coalition="seller+buyer"
    )
    assert len(coalition) == 2  # compliant + joint-rational


# ----------------------------------------------------------------------
# canonical float handling (satellite bugfix)
# ----------------------------------------------------------------------
def test_canon_float_and_fmt_fraction_normalize():
    assert canon_float(-0.0) == 0.0 and repr(canon_float(-0.0)) == "0.0"
    assert fmt_fraction(-0.0) == "0"
    assert fmt_fraction(0.025) == "0.025"
    assert fmt_fraction(2.0) == "2"
    # repr is exact where %g truncates: distinct bisected premiums keep
    # distinct labels
    a, b = 0.034999999999999996, 0.035
    assert format(a, "g") == format(b, "g")  # the old rendering collided
    assert fmt_fraction(a) != fmt_fraction(b)
    assert float(fmt_fraction(a)) == a


def test_bisected_premium_axes_are_exact_in_digests_and_json():
    pi = (0.02 + 0.05) / 2 / 2 + 0.02 / 2  # an arbitrary non-6-digit float
    matrix = ablation_cell("two-party", pi, SHOCK, "staked")
    report = CampaignRunner(matrix).run()
    frontier = reduce_frontier(report)
    (cell,) = frontier.cells
    assert cell.pi == canon_float(pi)
    from repro.campaign.ablation import FrontierReport

    restored = FrontierReport.from_json(frontier.to_json())
    assert restored.digest == frontier.digest
    assert restored.cells[0].pi == cell.pi


def test_negative_zero_shock_cannot_split_digests():
    a = ablation_cell("two-party", 0.05, 0.0, "staked")
    b = ablation_cell("two-party", 0.05, -0.0, "staked")
    assert a.digest() == b.digest()
