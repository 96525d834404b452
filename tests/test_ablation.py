"""The rational-adversary ablation engine and its satellite contracts.

Pins, per ISSUE 3:

- the **deterrence theorem**, property-style: at the staked stage the
  rational pivot walks exactly when the shocked value drop exceeds the
  closed-form stake its premium fraction buys (s < π completes, s > π
  walks, for the two-party grid and the generalized roles),
- the measured two-party frontier equals the closed-form π threshold
  within one grid step,
- frontier digests are byte-identical across serial / pooled /
  sharded-then-merged executions, and survive a JSON round trip,
- the ``ablation`` factory is registered for pool reuse and the
  worker-side registry audit names unknown factories loudly,
- violations carry a rendered lane trace (one-shot debuggability),
- scenario metrics are digest-covered and transported by the report JSON.
"""

import json

import pytest

from repro.campaign import (
    CampaignReport,
    CampaignRunner,
    MatrixSpec,
    ScenarioMatrix,
    WorkerPool,
    ablation_matrix,
    merge_reports,
    reduce_frontier,
)
from repro.campaign.ablation import (
    ABLATION_FAMILIES,
    FrontierReport,
    deterrence_stake,
    shocked_notional,
)
from repro.campaign.pool import register_matrix_factory, registered_factories

PREMIUMS = (0.0, 0.01, 0.03, 0.08)
SHOCKS = (0.015, 0.045, 0.105)


def small_grid(families, premiums=PREMIUMS, shocks=SHOCKS, stages=None):
    return ablation_matrix(
        families=families,
        premium_fractions=premiums,
        shock_fractions=shocks,
        stages=stages,
    )


def run_frontier(families, **kwargs):
    report = CampaignRunner(small_grid(families, **kwargs)).run()
    assert report.ok, [f"{v.scenario}: {v.message}" for v in report.violations]
    return reduce_frontier(report)


# ----------------------------------------------------------------------
# the deterrence theorem, per family (satellite: property-style tests)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", ABLATION_FAMILIES)
def test_staked_pivot_walks_iff_shock_beats_the_closed_form_stake(family):
    frontier = run_frontier((family,))
    notional = shocked_notional(family)
    checked = 0
    for shock in SHOCKS:
        for cell in frontier.row(family, "staked", shock).cells:
            should_walk = notional * shock > deterrence_stake(family, cell.pi)
            assert cell.walked == should_walk, (family, shock, cell)
            # walking and profitability coincide for a rational pivot
            assert cell.walked == cell.deviation_profitable, cell
            checked += 1
    assert checked == len(SHOCKS) * len(PREMIUMS)


@pytest.mark.parametrize("family", ABLATION_FAMILIES)
def test_pre_stake_shocks_cannot_be_deterred_and_are_victimless(family):
    frontier = run_frontier((family,))
    for shock in SHOCKS:
        row = frontier.row(family, "pre-stake", shock)
        assert row.pi_star is None
        for cell in row.cells:
            assert cell.walked
            assert cell.victim_net == 0  # nobody had staked anything yet


def test_two_party_frontier_matches_pi_threshold_within_one_grid_step():
    """Acceptance criterion: measured π* is the paper's threshold s,
    rounded up to the next swept premium fraction."""
    frontier = run_frontier(("two-party",))
    for shock in SHOCKS:
        row = frontier.row("two-party", "staked", shock)
        deterring = [pi for pi in PREMIUMS if pi > shock]
        expected = min(deterring) if deterring else None
        assert row.pi_star == expected, (shock, row)
        if expected is not None:
            below = max(pi for pi in PREMIUMS if pi < expected)
            assert expected - shock < expected - below or expected == shock


def test_zero_premium_walks_on_any_shock_with_compensation_only_when_staked():
    frontier = run_frontier(("two-party", "multi-party"))
    for row in frontier.rows:
        cell = next(c for c in row.cells if c.pi == 0.0)
        assert cell.walked  # the base protocols hand out a free option
        assert cell.deviation_gain > 0


def test_deterred_cells_complete_with_zero_deviation_gain():
    frontier = run_frontier(("two-party",))
    for row in frontier.rows:
        for cell in row.cells:
            if not cell.walked:
                assert cell.deviation_gain == pytest.approx(0.0)
                assert cell.rational_utility == pytest.approx(cell.comply_utility)


def test_walking_from_a_stake_compensates_the_victim():
    frontier = run_frontier(("two-party",))
    for row in frontier.rows:
        if row.stage != "staked":
            continue
        for cell in row.cells:
            if cell.walked and cell.pi > 0:
                assert cell.victim_net > 0, cell


# ----------------------------------------------------------------------
# digest discipline: backends, shards, JSON
# ----------------------------------------------------------------------
def test_frontier_digest_identical_serial_vs_pooled_vs_merged_shards():
    kwargs = dict(
        families=("two-party", "auction"),
        premium_fractions=(0.0, 0.02, 0.05),
        shock_fractions=(0.015, 0.045),
    )
    serial = CampaignRunner(ablation_matrix(**kwargs)).run()
    with WorkerPool(workers=2) as pool:
        pooled = CampaignRunner(
            ablation_matrix(**kwargs), backend="process", pool=pool
        ).run()
        shards = [
            CampaignRunner(
                ablation_matrix(**kwargs), backend="process", pool=pool, shard=(i, 2)
            ).run()
            for i in (1, 2)
        ]
    assert pooled.backend == "process"
    assert serial.run_digest == pooled.run_digest
    frontier = reduce_frontier(serial)
    assert frontier.digest == reduce_frontier(pooled).digest
    assert frontier.digest == reduce_frontier(merge_reports(shards)).digest


def test_frontier_json_roundtrip_and_tamper_detection():
    frontier = run_frontier(("auction",), premiums=(0.0, 0.03), shocks=(0.045,))
    restored = FrontierReport.from_json(frontier.to_json())
    assert restored == frontier

    def tamper(mutate):
        data = json.loads(frontier.to_json())
        mutate(data)
        with pytest.raises(ValueError, match="digest mismatch"):
            FrontierReport.from_json(json.dumps(data))

    first_cell = lambda d: d["rows"][0]["cells"][0]
    tamper(lambda d: first_cell(d).update(walked=not first_cell(d)["walked"]))
    # the headline values are digest-covered too, not just the cells
    tamper(lambda d: d["rows"][0].update(pi_star=0.0))
    tamper(lambda d: d.update(complete=not d["complete"]))
    tamper(lambda d: d.update(matrix_digest="0" * 64))


def test_campaign_report_json_transports_metrics_for_merge():
    report = CampaignRunner(
        small_grid(("two-party",), premiums=(0.0, 0.03), shocks=(0.045,)),
        shard=(1, 2),
    ).run()
    restored = CampaignReport.from_json(report.to_json())
    assert restored.run_digest == report.run_digest
    assert [r.metrics for r in restored.results] == [
        r.metrics for r in report.results
    ]
    assert any(dict(r.metrics).get("utility") is not None for r in restored.results)


def test_reduce_frontier_rejects_non_ablation_and_partial_reports():
    from repro.campaign import default_matrix

    plain = CampaignRunner(default_matrix(families=["bootstrap"])).run()
    with pytest.raises(ValueError, match="not an ablation result"):
        reduce_frontier(plain)
    # a limited subsample splits comply/rational arm pairs apart
    partial = CampaignRunner(
        small_grid(("two-party",), premiums=(0.0, 0.03), shocks=(0.045,)),
        limit=5,
    ).run()
    with pytest.raises(ValueError, match="missing its"):
        reduce_frontier(partial)


def test_metrics_fold_into_the_scenario_digest():
    # same protocol runs, different shock axis → metrics differ → so must
    # the per-scenario digests (metrics are outcome, not decoration)
    a = CampaignRunner(
        small_grid(("two-party",), premiums=(0.03,), shocks=(0.015,), stages=("staked",))
    ).run()
    b = CampaignRunner(
        small_grid(("two-party",), premiums=(0.03,), shocks=(0.025,), stages=("staked",))
    ).run()
    comply_a = next(r for r in a.results if "comply" in r.label)
    comply_b = next(r for r in b.results if "comply" in r.label)
    # both comply runs complete identically on-chain; only the valuation
    # metric (utility under the shocked path) distinguishes them
    assert comply_a.premium_net == comply_b.premium_net
    assert dict(comply_a.metrics)["completed"] == 1.0
    assert comply_a.digest != comply_b.digest


# ----------------------------------------------------------------------
# pool registry audit (satellite)
# ----------------------------------------------------------------------
def test_ablation_factory_is_registered_and_rebuilds_bit_identically():
    matrix = small_grid(("auction",), premiums=(0.0, 0.03), shocks=(0.045,))
    assert isinstance(matrix.spec, MatrixSpec)
    assert matrix.spec.factory == "ablation"
    rebuilt = matrix.spec.build()
    assert rebuilt.digest() == matrix.digest()
    assert {"default", "ablation"} <= set(registered_factories())


def test_unknown_factory_audit_names_the_registry():
    with pytest.raises(KeyError, match="registered:.*ablation"):
        MatrixSpec(factory="definitely-not-registered").build()


def test_decorator_registration_round_trips_through_a_spec():
    @register_matrix_factory("test-decorated")
    def tiny_matrix(seed: int = 0) -> ScenarioMatrix:
        return small_grid(("auction",), premiums=(0.0,), shocks=(0.045,))

    try:
        built = MatrixSpec(factory="test-decorated").build()
        assert len(built) > 0
        assert "test-decorated" in registered_factories()
    finally:
        from repro.campaign import pool as pool_module

        pool_module._FACTORIES.pop("test-decorated", None)


def test_ablation_grid_matches_the_factory_it_wraps():
    from repro.campaign import AblationGrid

    grid = AblationGrid(
        families=("auction",), premium_fractions=(0.0, 0.03), shock_fractions=(0.045,)
    )
    matrix = grid.matrix()
    # two arms per cell, and the declarative cell count matches the blocks
    assert grid.cells() == len(matrix.blocks)
    assert len(matrix) == 2 * grid.cells()
    assert matrix.digest() == ablation_matrix(
        families=("auction",), premium_fractions=(0.0, 0.03), shock_fractions=(0.045,)
    ).digest()
    # the defaults mirror the factory's defaults
    assert AblationGrid().matrix().digest() == ablation_matrix().digest()


def test_ablation_matrix_validates_families_and_stages():
    with pytest.raises(ValueError, match="unknown ablation families"):
        ablation_matrix(families=("bootstrap",))
    with pytest.raises(ValueError, match="unknown shock stages"):
        ablation_matrix(stages=("mid-flight",))
    with pytest.raises(ValueError, match="unknown ablation family"):
        deterrence_stake("bootstrap", 0.02)


# ----------------------------------------------------------------------
# trace capture on violation (satellite)
# ----------------------------------------------------------------------
def _always_fails(instance, result, adversaries):
    return ["synthetic violation for trace capture"]


def test_violations_carry_a_rendered_lane_trace():
    from repro.core.hedged_two_party import HedgedTwoPartySwap

    matrix = ScenarioMatrix()
    matrix.add_block(
        family="two-party",
        schedule="trace",
        builder=lambda: HedgedTwoPartySwap().build(),
        properties=(_always_fails,),
        strategies={},
    )
    report = CampaignRunner(matrix).run()
    assert not report.ok
    violation = report.violations[0]
    assert violation.trace
    assert "height" in violation.trace  # the lane-diagram header
    assert "apricot" in violation.trace and "banana" in violation.trace
    # the trace survives the JSON transport used for shard collection
    restored = CampaignReport.from_json(report.to_json())
    assert restored.violations[0].trace == violation.trace
    # and stays out of the digest: it is derived presentation
    assert restored.run_digest == report.run_digest


def test_clean_scenarios_carry_no_trace():
    report = CampaignRunner(
        small_grid(("auction",), premiums=(0.03,), shocks=(0.045,), stages=("staked",))
    ).run()
    assert report.ok
    assert all(result.trace == "" for result in report.results)
