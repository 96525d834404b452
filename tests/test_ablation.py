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
import re
from dataclasses import FrozenInstanceError, fields
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.campaign.ablation import grid
from repro.campaign.pool import register_matrix_factory, registered_factories
from repro.parties.rational import Opportunist
from repro.protocols.instance import ProtocolInstance, execute

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


# ----------------------------------------------------------------------
# frozen formats: a coalition is a row field, the bytes stay put
# ----------------------------------------------------------------------
#: a small kernel grid with both named coalitions (captured before
#: coalition lines and single-pivot lines shared one row type).
FROZEN_GRID = dict(
    families=("two-party", "multi-party", "broker"),
    premium_fractions=(0.0, 0.05),
    shock_fractions=(0.045,),
    stages=("staked",),
    coalitions=True,
)
FROZEN_FRONTIER_SHA256 = (
    "f691c2db631f1f0297f626f4ef587c36d4a35a3c8740457b47fae9879f700fce"
)
FROZEN_REFINED_DIGEST = (
    "c0d0c7850a3df6a2a3444e7fe4f4aac88f058db056d0551f469cf39e5f136dc4"
)
FROZEN_FRONTIER_JSON = (
    '{"kind":"frontier","matrix_digest":"4c5d1f1b1ee39d51346a88cb49d7e3c7aaa1'
    '24a7a18bbf96d0d94e4eb4bd8a2e","run_digest":"1847366e8c5aec3dee44dfdcf8a2'
    'a473e52cbe3084e0a83b95c53406992f74d8","complete":true,"scenarios":20,"to'
    'tal_scenarios":20,"rows":[{"family":"broker","stage":"staked","shock":0.'
    '045,"pi_star":0.05,"cells":[{"pi":0.0,"walked":true,"rational_utility":0'
    '.0,"comply_utility":-4.5,"victim_net":0},{"pi":0.05,"walked":false,"rati'
    'onal_utility":-4.5,"comply_utility":-4.5,"victim_net":0}]},{"family":"mu'
    'lti-party","stage":"staked","shock":0.045,"pi_star":0.05,"cells":[{"pi":'
    '0.0,"walked":true,"rational_utility":0.0,"comply_utility":-4.5,"victim_n'
    'et":0},{"pi":0.05,"walked":false,"rational_utility":-4.5,"comply_utility'
    '":-4.5,"victim_net":0}]},{"family":"two-party","stage":"staked","shock":'
    '0.045,"pi_star":0.05,"cells":[{"pi":0.0,"walked":true,"rational_utility"'
    ':0.0,"comply_utility":-4.5,"victim_net":0},{"pi":0.05,"walked":false,"ra'
    'tional_utility":-4.5,"comply_utility":-4.5,"victim_net":0}]}],"coalition'
    '_rows":[{"family":"broker","stage":"staked","shock":0.045,"pi_star":null'
    ',"cells":[{"pi":0.0,"walked":true,"rational_utility":0.0,"comply_utility'
    '":-0.9549999999999983,"victim_net":0},{"pi":0.05,"walked":true,"rational'
    '_utility":0.0,"comply_utility":-0.9549999999999983,"victim_net":0}],"coa'
    'lition":"seller+buyer"},{"family":"multi-party","stage":"staked","shock"'
    ':0.045,"pi_star":0.05,"cells":[{"pi":0.0,"walked":true,"rational_utility'
    '":0.0,"comply_utility":-4.5,"victim_net":0},{"pi":0.05,"walked":false,"r'
    'ational_utility":-4.5,"comply_utility":-4.5,"victim_net":0}],"coalition"'
    ':"P1+P2"}],"digest":"950eb7d9df952b341d99a3fc721f908a2ad8080c89b20139e7e'
    'ffb6d1f55e7ef"}'
)
#: float.hex of the closed-form π* per cell context at two shocks.
FROZEN_CLOSED_FORMS = {
    ("two-party", ""): ("0x1.70a3d70a3d70ap-5", "0x1.ae147ae147ae1p-4"),
    ("multi-party", ""): ("0x1.70a3d70a3d70ap-7", "0x1.ae147ae147ae1p-6"),
    ("multi-party", "P1+P2"): ("0x1.70a3d70a3d70ap-7", "0x1.ae147ae147ae1p-6"),
    ("broker", ""): ("0x1.eb851eb851eb8p-7", "0x1.1eb851eb851ecp-5"),
    ("broker", "seller+buyer"): (None, None),
    ("auction", ""): ("0x1.70a3d70a3d70ap-5", "0x1.ae147ae147ae1p-4"),
}


def test_coalition_frontier_json_bytes_are_frozen():
    from repro.campaign.ablation import KernelEngine

    report = CampaignRunner(
        ablation_matrix(**FROZEN_GRID), backend="kernel", kernel=KernelEngine()
    ).run()
    text = reduce_frontier(report).to_json()
    assert sha256(text.encode()).hexdigest() == FROZEN_FRONTIER_SHA256
    assert text == FROZEN_FRONTIER_JSON


def test_frozen_frontier_loads_refines_and_reserializes(tmp_path):
    from repro.campaign.ablation import refine_frontier
    from repro.campaign.report import report_from_json
    from repro.cli import main

    frontier = report_from_json(FROZEN_FRONTIER_JSON)
    assert frontier.to_json() == FROZEN_FRONTIER_JSON
    # one row type: the on-disk "coalition_rows" key becomes a field
    assert [row.coalition for row in frontier.rows] == [
        "", "", "", "seller+buyer", "P1+P2"
    ]
    assert frontier.row("broker", "staked", 0.045, "seller+buyer").pi_star is None
    assert refine_frontier(frontier).digest == FROZEN_REFINED_DIGEST
    lattice, out = tmp_path / "lattice.json", tmp_path / "refined.json"
    lattice.write_text(FROZEN_FRONTIER_JSON)
    main(["ablate-refine", "--from", str(lattice), "--refined-out", str(out)])
    assert json.loads(out.read_text())["digest"] == FROZEN_REFINED_DIGEST


@pytest.mark.parametrize("shock_index,shock", enumerate((0.045, 0.105)))
def test_closed_form_pi_star_bits_are_frozen(shock_index, shock):
    assert set(FROZEN_CLOSED_FORMS) == set(grid.CELL_CONTEXTS)
    for (family, coalition), pinned in FROZEN_CLOSED_FORMS.items():
        pi_star = grid.closed_form_pi_star(family, shock, coalition)
        got = None if pi_star is None else pi_star.hex()
        assert got == pinned[shock_index], (family, coalition, shock)


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


@pytest.mark.parametrize("family", ["ring:03", "complete:04", "ring:\u0663"])
def test_ablation_matrix_refuses_non_canonical_graph_names(family):
    with pytest.raises(ValueError, match="unknown ablation families"):
        ablation_matrix(families=(family,))


@pytest.mark.parametrize(
    "stage", ["round:03", "round:00", "round:\u00b2", "round:\u0663", "round:+3",
              "round:"]
)
def test_non_canonical_round_stages_are_named_value_errors(stage):
    assert grid.round_height(stage) is None
    assert not grid.valid_stage(stage)
    named = re.escape(repr(stage))
    with pytest.raises(ValueError, match=f"unknown shock stages.*{named}"):
        ablation_matrix(families=("two-party",), stages=(stage,))
    with pytest.raises(ValueError, match=f"concrete stage.*{named}"):
        grid.ablation_cell("two-party", 0.02, 0.045, stage)


def test_round_stages_parse_through_one_helper():
    assert [grid.round_height(s) for s in ("round:0", "round:3", "round:12")] == [
        0, 3, 12
    ]
    assert grid.round_height("staked") is None
    arms = grid.stage_heights(("round:3", "staked", "round:0"), {"staked": 3}, 4)
    assert arms == [("round:3", 3), ("staked", 3), ("round:0", 0)]


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
        builder_id="two-party/trace",
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


# ----------------------------------------------------------------------
# cell shapes: one structural build per (family, coalition)
# ----------------------------------------------------------------------
SHAPE_CONTEXTS = tuple(grid.CELL_CONTEXTS) + tuple(
    (family, "") for family in ("ring:3", "ring:5", "complete:4", "figure3")
)

#: the schedule-prefix every context's blocks are labelled with.
SHAPE_PREFIXES = {
    ("two-party", ""): "",
    ("multi-party", ""): "ring3/",
    ("multi-party", "P1+P2"): "ring3/P1+P2/",
    ("broker", ""): "",
    ("broker", "seller+buyer"): "seller+buyer/",
    ("auction", ""): "",
    ("ring:3", ""): "ring:3/",
    ("ring:5", ""): "ring:5/",
    ("complete:4", ""): "complete:4/",
    ("figure3", ""): "figure3/",
}


def _fresh_probe_cell(monkeypatch, family, coalition, premium):
    """The cell as a per-premium probe would build it: the shape read off
    a fresh, uncached build at ``premium`` itself."""
    monkeypatch.setattr(grid, "_SHAPE_PREMIUM", premium)
    shape = grid.cell_shape.__wrapped__(family, coalition)
    make = grid.cell_context(family, coalition).cell
    return make(family, coalition, shape, premium)


@pytest.mark.parametrize("family,coalition", SHAPE_CONTEXTS)
@pytest.mark.parametrize("premium", (0, 1, 7, 100))
def test_cached_shape_matches_a_fresh_probe_at_every_premium(
    monkeypatch, family, coalition, premium
):
    cached = grid.family_cell(family, coalition, premium)
    fresh = _fresh_probe_cell(monkeypatch, family, coalition, premium)
    assert cached.premium == fresh.premium == premium
    assert cached.shape == fresh.shape  # every field: contracts, named, ...
    assert cached.schedule_prefix == fresh.schedule_prefix
    assert cached.schedule_prefix == SHAPE_PREFIXES[(family, coalition)]

    # ... and against the raw instance the premium's own builder makes
    shape, probe = cached.shape, cached.builder()
    assert shape.contracts == tuple(probe.contracts.values())
    assert shape.arc_labels == tuple(sorted(probe.contracts))
    assert shape.horizon == probe.horizon
    if family == "broker":
        assert shape.schedule == probe.meta["deadlines"]
    elif family in ("two-party", "auction"):
        assert shape.schedule is None
    else:
        assert shape.schedule == probe.meta["schedule"]

    # the completion predicates agree on a compliant and a halted run
    compliant = cached.builder()
    execute(compliant)
    assert cached.completed(compliant) is fresh.completed(compliant) is True
    halted = cached.builder()
    execute(
        halted,
        {p: (lambda a: Opportunist(a, lambda rnd, view: False)) for p in shape.pivots},
    )
    assert cached.completed(halted) is fresh.completed(halted) is False


def test_shape_cache_holds_one_frozen_shape_per_context():
    grid.cell_shape.cache_clear()
    for premium in range(20):
        for family, coalition in SHAPE_CONTEXTS:
            cell = grid.family_cell(family, coalition, premium)
            assert cell.shape is grid.cell_shape(family, coalition)
    info = grid.cell_shape.cache_info()
    assert info.currsize <= len(SHAPE_CONTEXTS)
    assert info.maxsize == 64
    shape = grid.cell_shape("multi-party", "P1+P2")
    assert not any(
        isinstance(getattr(shape, f.name), ProtocolInstance) for f in fields(shape)
    )
    with pytest.raises(FrozenInstanceError):
        shape.horizon = 0


def test_unknown_cell_context_is_refused():
    with pytest.raises(ValueError, match="unknown ablation cell"):
        grid.family_cell("two-party", "P1+P2", 3)
    with pytest.raises(ValueError, match="unknown ablation cell"):
        grid.family_cell("ring:1", "", 3)


# ----------------------------------------------------------------------
# the family-cell memo: one frozen cell per (family, coalition, premium)
# ----------------------------------------------------------------------
def test_family_cell_memo_follows_the_shape_cache():
    cell = grid.family_cell("broker", "seller+buyer", 3)
    assert grid.family_cell("broker", "seller+buyer", 3) is cell
    grid.cell_shape.cache_clear()
    fresh = grid.family_cell("broker", "seller+buyer", 3)
    assert fresh is not cell
    assert fresh.shape is grid.cell_shape("broker", "seller+buyer")
    # every other memoized cell follows too, not only the first one asked
    for family, coalition in SHAPE_CONTEXTS:
        grid.cell_shape.cache_clear()
        for premium in (0, 3):
            assert (
                grid.family_cell(family, coalition, premium).shape
                is grid.cell_shape(family, coalition)
            )


def test_family_cell_memo_is_bounded_and_its_cells_frozen():
    info = grid.family_cell.cache_info()
    assert info.maxsize == grid.FAMILY_CELL_MEMO == 256
    grid.family_cell.cache_clear()
    for premium in range(grid.FAMILY_CELL_MEMO + 20):
        grid.family_cell("two-party", "", premium)
    assert grid.family_cell.cache_info().currsize == grid.FAMILY_CELL_MEMO
    cell = grid.family_cell("two-party", "", 3)
    with pytest.raises(FrozenInstanceError):
        cell.premium = 4
    with pytest.raises(FrozenInstanceError):
        cell.builder = None


def _uncached_family_cell(family, coalition, premium):
    """A cell from uncached pieces: a fresh shape build and a fresh cell."""
    shape = grid.cell_shape.__wrapped__(family, coalition)
    return grid.cell_context(family, coalition).cell(family, coalition, shape, premium)


def _route(pi, shock, stage, family, coalition, probers):
    matrix = grid.ablation_cell(family, pi, shock, stage, coalition=coalition)
    scenarios = [(s.label, s.axes) for s in matrix.scenarios()]
    probes = [prober.probe(family, pi, shock, stage, coalition) for prober in probers]
    return matrix.digest(), scenarios, probes


@pytest.fixture(scope="module")
def route_probers():
    """(memoized, reference) prober pairs on the kernel and serial backends."""
    from repro.campaign.ablation import KernelEngine
    from repro.campaign.ablation.refine import _CellProber

    return tuple(
        (_CellProber(kernel=KernelEngine()), _CellProber()) for _ in range(2)
    )


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_memoized_probe_route_matches_uncached_cells(route_probers, data):
    from unittest import mock

    from repro.campaign.ablation.bounds import EXPAND_CEILING

    family, coalition = data.draw(st.sampled_from(tuple(grid.CELL_CONTEXTS)))
    base = grid.premium_base(family)
    # two π that quantize to one integer premium, so they share a cell
    premium = data.draw(st.integers(0, int(EXPAND_CEILING * base)), label="premium")
    offsets = st.floats(-0.49, 0.49, allow_nan=False)
    pis = [
        min(max((premium + data.draw(offsets, label="offset")) / base, 0.0), EXPAND_CEILING)
        for _ in range(2)
    ]
    shock = data.draw(st.floats(0.0, 0.3, allow_nan=False), label="shock")
    stage = data.draw(
        st.sampled_from(grid.DEFAULT_STAGES)
        | st.integers(0, 12).map(lambda k: f"round:{k}"),
        label="stage",
    )
    memoized, reference = route_probers
    for pi in pis:
        ran = _route(pi, shock, stage, family, coalition, memoized)
        with mock.patch.object(grid, "family_cell", _uncached_family_cell):
            expected = _route(pi, shock, stage, family, coalition, reference)
        assert ran == expected  # matrix digest, labels and axes, ProbeCells
        assert ran[2][0] == ran[2][1]  # kernel == serial, run digest included


# ----------------------------------------------------------------------
# grid inputs are bounded before any work
# ----------------------------------------------------------------------
BAD_PREMIUMS = (-0.5, -1e-9, 1e308, float("inf"), float("nan"))
BAD_SHOCKS = (1.5, 1.0, -0.2, float("inf"), float("nan"))


@pytest.mark.parametrize("pi", BAD_PREMIUMS)
def test_grid_refuses_an_unpriceable_premium_fraction(pi):
    with pytest.raises(ValueError, match="premium fraction|non-finite"):
        grid.ablation_matrix_spec(families=("two-party",), premium_fractions=(pi,))
    with pytest.raises(ValueError, match="premium fraction|non-finite"):
        grid.ablation_cell("two-party", pi, 0.045, "staked")


@pytest.mark.parametrize("shock", BAD_SHOCKS)
def test_grid_refuses_a_shock_outside_the_unit_interval(shock):
    with pytest.raises(ValueError, match="shock fraction|non-finite"):
        grid.ablation_matrix_spec(families=("two-party",), shock_fractions=(shock,))
    with pytest.raises(ValueError, match="shock fraction|non-finite"):
        grid.ablation_cell("two-party", 0.02, shock, "staked")


def test_grid_bounds_premiums_by_the_expansion_ceiling():
    # One π domain for grids, probes and refinement: [0, EXPAND_CEILING],
    # the largest premium fraction refinement ever probes.
    from repro.campaign.ablation.bounds import EXPAND_CEILING

    assert EXPAND_CEILING == 1.0
    grid.ablation_matrix_spec(families=("auction",), premium_fractions=(1.0,))
    grid.ablation_cell("two-party", 1.0, 0.045, "staked")
    for pi in (1.5, 2.0, 1e300):
        with pytest.raises(ValueError, match="premium fraction .* out of range"):
            grid.ablation_matrix_spec(families=("two-party",), premium_fractions=(pi,))
        with pytest.raises(ValueError, match="premium fraction .* out of range"):
            grid.ablation_cell("two-party", pi, 0.045, "staked")
    # the edges themselves are in range
    grid.ablation_matrix_spec(premium_fractions=(0.0, 1.0), shock_fractions=(0.0, 0.999))


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--premiums", "-0.5", "premium fraction -0.5 out of range"),
        ("--premiums", "1e308", "premium fraction 1e+308 out of range"),
        ("--premiums", "1e300", "premium fraction 1e+300 out of range"),
        ("--shocks", "1.5", "shock fraction 1.5 out of range"),
        ("--shocks", "-0.2", "shock fraction -0.2 out of range"),
    ],
)
@pytest.mark.parametrize("command", ["ablate", "ablate-refine"])
def test_cli_refuses_out_of_range_grid_inputs(command, flag, value, message):
    from repro.campaign.experiment import ablate_spec
    from repro.cli import main

    with pytest.raises(ValueError, match=re.escape(message)):
        ablate_spec(families=("two-party",), **{
            "premium_fractions" if flag == "--premiums" else "shock_fractions": (float(value),)
        })
    with pytest.raises(SystemExit, match=f"^error: {re.escape(message)}"):
        main([command, "--families", "two-party", f"{flag}={value}"])
