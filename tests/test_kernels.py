"""Payoff kernels vs the simulator.

The kernel engine replays calibrated trajectory templates under scalar
price arithmetic in the simulator's own operation order; the simulator
stays authoritative as the audit path.  These tests pin the parity
contract at every integration level:

- **scenario-level parity**: for each family (and the named coalitions),
  `CampaignRunner(backend="kernel")` reproduces the serial simulator's
  per-scenario results — digest, metrics, violations, premium net,
  transaction counts — byte-for-byte, hence an identical ``run_digest``,
- **randomized off-grid parity**: seeded random (π, shock, stage) probes
  far off the default lattice agree engine-vs-engine, so parity is a
  property of the kernels, not a coincidence of grid points,
- **tie parity**: at the two adjacent doubles where a pivot's walk flips,
  both engines agree on both sides, one shock per run and both in one
  replay bucket,
- **cold start**: the CLI, quoting and kernel modules load without numpy,
- **spec plumbing**: ``ExperimentSpec.engine`` validates, round-trips
  through JSON, keeps legacy (engine-less, simulator) spec digests
  byte-stable, and refuses meaningless combinations (kernel campaigns,
  kernel backends on non-ablation matrices),
- **experiment-level parity**: a kernel-engine experiment reproduces the
  simulator experiment's campaign digest and frontier digest,
- **pair lines**: premiums a named context evaluates from its p = 1 /
  p = 2 pair reproduce real runs; p = 0 joins the lines only when its
  own compliant run holds on them (the auction's does not); sibling
  contexts of one deal share each calibration run; and every case
  outside the lines (a premium above ``premium_base``, a graph context,
  a violating adversary set) runs the simulator and counts a fallback.
"""

import json
import math
import os
import pathlib
import random
import subprocess
import sys

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignRunner,
    Experiment,
    ExperimentError,
    ExperimentSpec,
    KernelEngine,
    KernelUnsupported,
    ablate_spec,
    ablation_cell,
    ablation_matrix,
    campaign_spec,
    default_matrix,
    reduce_frontier,
    refine_spec,
)
from repro.campaign.ablation import kernels
from repro.campaign.ablation.grid import CELL_CONTEXTS, premium_base
from repro.campaign.experiment import EXPERIMENT_ENGINES
from repro.campaign.scenario import Scenario, render_ledger, run_scenario
from repro.obs import Tracer


def _assert_results_identical(serial, kernel):
    assert len(serial.results) == len(kernel.results)
    for want, got in zip(serial.results, kernel.results):
        assert got.digest == want.digest, (want.label, want, got)
        assert got.label == want.label
        assert got.axes == want.axes
        assert got.violations == want.violations
        assert got.metrics == want.metrics
        assert got.transactions == want.transactions
        assert got.reverted == want.reverted
        assert got.premium_net == want.premium_net
        assert got.trace == want.trace
    assert kernel.run_digest == serial.run_digest


# ---------------------------------------------------------------------------
# scenario-level parity, per family


@pytest.mark.parametrize(
    "family", ["two-party", "multi-party", "broker", "auction"]
)
def test_kernel_matches_simulator_per_family(family):
    matrix = ablation_matrix(
        families=(family,),
        premium_fractions=(0.0, 0.03),
        shock_fractions=(0.015, 0.105),
        stages=("pre-stake", "staked"),
    )
    serial = CampaignRunner(matrix, backend="serial").run()
    kernel = CampaignRunner(matrix, backend="kernel").run()
    _assert_results_identical(serial, kernel)


def test_kernel_matches_simulator_with_coalitions():
    matrix = ablation_matrix(
        families=("multi-party", "broker"),
        premium_fractions=(0.01, 0.05),
        shock_fractions=(0.045,),
        stages=("staked",),
        coalitions=True,
    )
    serial = CampaignRunner(matrix, backend="serial").run()
    kernel = CampaignRunner(matrix, backend="kernel").run()
    _assert_results_identical(serial, kernel)


def test_kernel_matches_simulator_round_stages():
    matrix = ablation_matrix(
        families=("two-party",),
        premium_fractions=(0.02,),
        shock_fractions=(0.025, 0.065),
        stages=("all",),
    )
    serial = CampaignRunner(matrix, backend="serial").run()
    kernel = CampaignRunner(matrix, backend="kernel").run()
    _assert_results_identical(serial, kernel)


def test_kernel_frontier_matches_simulator_frontier():
    matrix = ablation_matrix(
        families=("two-party", "auction"),
        premium_fractions=(0.0, 0.01, 0.03),
        shock_fractions=(0.015, 0.045),
        stages=("staked",),
    )
    serial = reduce_frontier(CampaignRunner(matrix, backend="serial").run())
    kernel = reduce_frontier(CampaignRunner(matrix, backend="kernel").run())
    assert kernel.digest == serial.digest


# ---------------------------------------------------------------------------
# randomized off-grid probes: parity is not a lattice artifact


def _random_cells(seed, count):
    rng = random.Random(seed)
    cells = []
    for _ in range(count):
        family = rng.choice(
            ["two-party", "multi-party", "broker", "auction"]
        )
        coalition = ""
        if rng.random() < 0.3:
            if family == "multi-party":
                coalition = "P1+P2"
            elif family == "broker":
                coalition = "seller+buyer"
        pi = rng.uniform(0.0, 0.1)
        shock = rng.uniform(0.001, 0.12)
        stage = rng.choice(["pre-stake", "staked", "round:1", "round:2"])
        cells.append((family, pi, shock, stage, coalition))
    return cells


@pytest.mark.parametrize("seed", [7, 23, 91])
def test_kernel_matches_simulator_off_grid(seed):
    for family, pi, shock, stage, coalition in _random_cells(seed, 6):
        matrix = ablation_cell(family, pi, shock, stage, coalition=coalition)
        serial = CampaignRunner(matrix, backend="serial").run()
        kernel = CampaignRunner(matrix, backend="kernel").run()
        _assert_results_identical(serial, kernel)


def test_shared_engine_reuses_templates_across_probes():
    engine = KernelEngine()
    digests = []
    for pi in (0.0125, 0.01875):
        matrix = ablation_cell("two-party", pi, 0.015, "staked")
        report = CampaignRunner(
            matrix, backend="kernel", kernel=engine
        ).run()
        digests.append(report.run_digest)
        serial = CampaignRunner(matrix, backend="serial").run()
        assert report.run_digest == serial.run_digest
    assert digests[0] != digests[1]  # distinct premiums, distinct runs


# ---------------------------------------------------------------------------
# tie parity: the walk flip sits between two adjacent doubles

TIE_PI = 0.03


def _rational(report):
    (result,) = [
        r for r in report.results if dict(r.axes)["strategy"] == "rational"
    ]
    return result


def _kernel_walks(engine, family, coalition, shock):
    matrix = ablation_cell(family, TIE_PI, shock, "staked", coalition=coalition)
    report = CampaignRunner(matrix, backend="kernel", kernel=engine).run()
    return dict(_rational(report).metrics)["completed"] == 0.0


@pytest.mark.parametrize(
    "family,coalition",
    [
        ("two-party", ""),
        ("multi-party", ""),
        ("broker", ""),
        ("auction", ""),
        ("multi-party", "P1+P2"),
    ],
)
def test_kernel_matches_simulator_at_the_walk_tie(family, coalition):
    engine = KernelEngine()
    completes, walks = 1e-9, 1.0 - 1e-9
    assert not _kernel_walks(engine, family, coalition, completes)
    assert _kernel_walks(engine, family, coalition, walks)
    while math.nextafter(completes, 1.0) < walks:
        mid = (completes + walks) / 2
        if not completes < mid < walks:
            mid = math.nextafter(completes, 1.0)
        if _kernel_walks(engine, family, coalition, mid):
            walks = mid
        else:
            completes = mid
    assert walks == math.nextafter(completes, 1.0)
    for shock in (completes, walks):
        matrix = ablation_cell(family, TIE_PI, shock, "staked", coalition=coalition)
        serial = CampaignRunner(matrix, backend="serial").run()
        kernel = CampaignRunner(matrix, backend="kernel").run()
        _assert_results_identical(serial, kernel)
    # Both sides of the tie in one grid: one walk replay decides both.
    matrix = ablation_matrix(
        families=(family,),
        premium_fractions=(TIE_PI,),
        shock_fractions=(completes, walks),
        stages=("staked",),
        coalitions=bool(coalition),
    )
    serial = CampaignRunner(matrix, backend="serial").run()
    kernel = CampaignRunner(matrix, backend="kernel").run()
    _assert_results_identical(serial, kernel)


# ---------------------------------------------------------------------------
# cold start: no numpy on the runtime import path


def test_runtime_entry_points_import_without_numpy():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    code = (
        "import sys\n"
        "import repro.cli, repro.quote, repro.campaign.ablation.kernels\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
        "assert not loaded, loaded\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-800:]


# ---------------------------------------------------------------------------
# guard rails


def test_kernel_backend_rejects_non_ablation_matrix():
    matrix = default_matrix()
    with pytest.raises(ValueError, match="ablation"):
        CampaignRunner(matrix, backend="kernel")


def test_kernel_argument_requires_kernel_backend():
    matrix = ablation_cell("two-party", 0.01, 0.015, "staked")
    with pytest.raises(ValueError, match="backend='kernel'"):
        CampaignRunner(matrix, backend="serial", kernel=KernelEngine())


def test_kernel_engine_rejects_foreign_scenarios():
    engine = KernelEngine()
    scenario = next(iter(default_matrix().scenarios()))
    assert isinstance(scenario, Scenario)
    with pytest.raises(KernelUnsupported):
        engine.run([scenario])


# ---------------------------------------------------------------------------
# ExperimentSpec.engine plumbing


def test_engine_field_validates():
    assert set(EXPERIMENT_ENGINES) == {"simulator", "kernel"}
    spec = ablate_spec(families=("two-party",))
    assert spec.engine == "kernel"  # the kernel engine is the default
    assert ablate_spec(families=("two-party",), engine="simulator").engine == (
        "simulator"
    )
    with pytest.raises(ExperimentError):
        ablate_spec(families=("two-party",), engine="warp")


def test_engine_kernel_refused_for_campaign_kind():
    with pytest.raises(ExperimentError, match="kernel"):
        ExperimentSpec(
            kind="campaign", matrix=campaign_spec().matrix, engine="kernel"
        )


def test_engine_is_part_of_spec_identity():
    """Engine choice selects an execution path the digests must survive,
    so a non-default engine is part of the spec's identity."""
    sim = ablate_spec(families=("two-party",), engine="simulator")
    ker = ablate_spec(families=("two-party",))
    assert sim.digest() != ker.digest()


def test_engine_round_trips_through_json():
    for engine in EXPERIMENT_ENGINES:
        spec = refine_spec(families=("two-party",), engine=engine)
        back = ExperimentSpec.from_json(spec.to_json())
        assert back.engine == engine
        assert back.digest() == spec.digest()


def test_engineless_json_defaults_to_simulator():
    spec = ablate_spec(families=("two-party",), engine="simulator")
    data = json.loads(spec.to_json())
    del data["engine"]
    back = ExperimentSpec.from_json(json.dumps(data))
    assert back.engine == "simulator"
    assert back.digest() == spec.digest()


# ---------------------------------------------------------------------------
# experiment-level parity


def test_experiment_kernel_engine_matches_simulator():
    grid = dict(
        families=("two-party", "broker"),
        premium_fractions=(0.0, 0.02, 0.05),
        shock_fractions=(0.015, 0.045),
        stages=("staked",),
    )
    sim = Experiment(ablate_spec(engine="simulator", **grid)).run()
    ker = Experiment(ablate_spec(engine="kernel", **grid)).run()
    assert ker.campaign.run_digest == sim.campaign.run_digest
    assert ker.frontier.digest == sim.frontier.digest
    assert ker.campaign.workers == 1


# ---------------------------------------------------------------------------
# pair lines: premiums evaluated from p = 1 and p = 2, fallbacks simulated

@pytest.fixture(scope="module")
def pair_engine():
    """One engine for every drawn example: its pair calibrations amortize."""
    return KernelEngine()


def _digest_fields(template):
    return (
        template.ntx_str,
        template.reverted,
        template.premium_net_str,
        template.fingerprint,
        template.completed,
        _unordered(template.utility_terms),
    )


def _unordered(utility_terms):
    """Per-party delta terms, sorted where the order cannot reach a digest:
    two terms fold into ``0.0`` to one sum in either order, and a run
    whose ledger drops zero balances may list them in another order."""
    return tuple(tuple(sorted(t)) if len(t) <= 2 else t for t in utility_terms)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_pair_lines_reproduce_real_runs(pair_engine, data):
    family, coalition = data.draw(st.sampled_from(tuple(CELL_CONTEXTS)))
    base = premium_base(family)
    premium = data.draw(st.integers(0, base + 20), label="premium")
    kernel = pair_engine._kernel_for(family, coalition, premium)
    walk_round = data.draw(
        st.integers(0, len(kernel.rounds) - 1), label="walk round"
    )
    # Template level: the (evaluated or simulated) walk template of the
    # drawn round equals a real run at this premium.
    count = pair_engine._count
    template = kernel.walk_template(walk_round, count)
    assert _digest_fields(template) == _digest_fields(kernel.simulate(walk_round, count))
    assert template.fingerprint == render_ledger(template.ledger)
    # Scenario level: a hard shock landing at that round's height, run by
    # both engines, gives the same digests.  A grid cell prices π ≤ 1, so
    # only premiums up to the base have a scenario.
    if premium > base:
        return
    shock = data.draw(st.sampled_from((0.3, 0.9)), label="shock")
    height = kernel.rounds[walk_round][0]
    matrix = ablation_cell(
        family, premium / base, shock, f"round:{height}", coalition=coalition
    )
    assert {dict(s.axes)["premium"] for s in matrix.scenarios()} == {str(premium)}
    serial = CampaignRunner(matrix, backend="serial").run()
    kernel_run = CampaignRunner(matrix, backend="kernel", kernel=pair_engine).run()
    _assert_results_identical(serial, kernel_run)


class _CountedRuns:
    """Counts the kernel engine's simulator runs."""

    def __init__(self, monkeypatch):
        self.runs = 0
        execute = kernels.execute

        def counted(*args, **kwargs):
            self.runs += 1
            return execute(*args, **kwargs)

        monkeypatch.setattr(kernels, "execute", counted)


def _traced_engine():
    tracer = Tracer()
    return KernelEngine(tracer=tracer), tracer


def test_premiums_inside_the_pair_lines_run_no_simulator(monkeypatch):
    engine, tracer = _traced_engine()
    engine._kernel_for("broker", "", 7)  # pair calibrations at p = 1, 2
    counted = _CountedRuns(monkeypatch)
    for premium in (3, 50, premium_base("broker")):
        kernel = engine._kernel_for("broker", "", premium)
        kernel.walk_template(len(kernel.rounds) - 1, engine._count)
    assert counted.runs == 2  # the pair's two walks, shared by all three
    assert tracer.metrics.counter("kernel.fallbacks") == 0
    assert tracer.metrics.counter("kernel.derived") == 4 + 3


@pytest.mark.parametrize(
    "family,premium",
    [
        ("two-party", premium_base("two-party") + 1),
        ("ring:5", 3),  # graph contexts have no pair
    ],
)
def test_premiums_outside_the_pair_lines_fall_back(monkeypatch, family, premium):
    engine, tracer = _traced_engine()
    counted = _CountedRuns(monkeypatch)
    kernel = engine._kernel_for(family, "", premium)
    assert counted.runs == 1 and kernel.comply.instance is not None
    assert tracer.metrics.counter("kernel.fallbacks") == 1
    assert tracer.metrics.counter("kernel.derived") == 0
    kernel.walk_template(0, engine._count)
    assert counted.runs == 2
    assert tracer.metrics.counter("kernel.fallbacks") == 2


@pytest.mark.parametrize("family", ["two-party", "auction"])
def test_premium_zero_joins_the_pair_lines_where_its_run_holds(monkeypatch, family):
    engine, tracer = _traced_engine()
    counted = _CountedRuns(monkeypatch)
    kernel = engine._kernel_for(family, "", 0)
    # the pair's two runs, then p = 0's own compliant run: the detector
    assert counted.runs == 3 and kernel.comply.instance is not None
    assert tracer.metrics.counter("kernel.calibrations") == 3
    walk = kernel.walk_template(0, engine._count)
    if family == "auction":
        # Its p = 0 run skips endow_premium: off the lines, a fallback
        # that simulates each walk.
        assert kernel.pair is None and walk.instance is not None
        assert counted.runs == 4
        assert tracer.metrics.counter("kernel.fallbacks") == 2
    else:
        # On the lines: the walk is evaluated from the pair's two walks.
        assert kernel.pair is not None and walk.instance is None
        assert counted.runs == 5
        assert tracer.metrics.counter("kernel.fallbacks") == 0
        assert tracer.metrics.counter("kernel.derived") == 1
    assert _digest_fields(walk) == _digest_fields(kernel.simulate(0, engine._count))


def _compliant_scenarios(family, coalitions, premium):
    """The non-rational scenarios of ``family``'s cells at ``premium``."""
    return [
        scenario
        for coalition in coalitions
        for scenario in ablation_cell(
            family, premium / premium_base(family), 0.5, "staked", coalition=coalition
        ).scenarios()
        if dict(scenario.axes)["strategy"] != "rational"
    ]


@pytest.mark.parametrize(
    "family,coalition", [("multi-party", "P1+P2"), ("broker", "seller+buyer")]
)
@pytest.mark.parametrize("premium,runs", [(1, 1), (0, 3)])
def test_sibling_contexts_share_one_calibration_run(
    monkeypatch, family, coalition, premium, runs
):
    # One deal, one builder: one compliant run per premium serves both
    # contexts (p = 0 also runs the pair it is checked against).
    engine, tracer = _traced_engine()
    counted = _CountedRuns(monkeypatch)
    scenarios = _compliant_scenarios(family, ("", coalition), premium)
    results = engine.run(scenarios)
    assert counted.runs == runs
    assert tracer.metrics.counter("kernel.calibrations") == runs
    assert tracer.metrics.counter("kernel.fallbacks") == 0
    assert [r.digest for r in results] == [run_scenario(s).digest for s in scenarios]
    for context in ("", coalition):
        kernel = engine._kernels[(family, context, premium)]
        (solo,) = kernels._CellKernel.calibrate([kernel.cell], engine._count)
        assert kernel.recording == solo.recording
        assert kernel.rounds == solo.rounds
        assert _digest_fields(kernel.comply) == _digest_fields(solo.comply)
        assert kernel.comply.ledger == solo.comply.ledger


@pytest.mark.parametrize("coalitions", [False, True])
def test_each_deal_calibrates_once_per_premium(monkeypatch, coalitions):
    # The default grid calibrates p = 0, 1 and 2 of its four deals.
    # Without coalitions every context is alone and records its run by
    # itself, one run per context and premium as before; with them, each
    # multi-party and broker run also records the deal's coalition.
    sizes = []
    calibrate = kernels._CellKernel.calibrate

    def recorded(cells, count):
        sizes.append(len(cells))
        return calibrate(cells, count)

    monkeypatch.setattr(kernels._CellKernel, "calibrate", recorded)
    Experiment(ablate_spec(engine="kernel", coalitions=coalitions)).run()
    assert sorted(sizes) == ([1] * 6 + [2] * 6 if coalitions else [1] * 12)


def test_violating_adversary_set_checks_a_real_run(monkeypatch):
    # With no adversary named, the rational pivot's walk is judged as a
    # compliant party's loss; the messages carry premium amounts, so only
    # a real run at the premium can render them.
    matrix = ablation_cell("two-party", 0.05, 0.9, "staked")
    (rational,) = [
        s for s in matrix.scenarios() if dict(s.axes)["strategy"] == "rational"
    ]
    scenario = dataclasses.replace(rational, adversaries=())
    want = run_scenario(scenario)
    assert want.violations
    engine, tracer = _traced_engine()
    engine._kernel_for("two-party", "", 5)
    counted = _CountedRuns(monkeypatch)
    (got,) = engine.run([scenario])
    assert got.digest == want.digest
    assert got.violations == want.violations and got.trace == want.trace
    # the pair's walks, then the real run at p = 5 for the checks
    assert counted.runs == 3
    assert tracer.metrics.counter("kernel.fallbacks") == 1
    # The real pivot set checks clean at p = 1 and p = 2: no further run.
    (clean,) = engine.run([rational])
    assert clean.digest == run_scenario(rational).digest
    assert counted.runs == 3
