"""The declarative ExperimentSpec API and its protocol contracts (ISSUE 5).

Pins:

- **spec round-trips**: JSON round-trip with digest stamping, tamper
  detection on edited specs, and a digest that covers exactly the
  result-determining fields (backend/workers/expect excluded),
- **spec-vs-flag equivalence** (acceptance criterion): for each ``KIND``
  alias the spec-driven run reproduces the flag-driven run digest
  byte-identically, ``KIND`` and ``spec KIND`` parse the same flags to
  the same spec, and both routes share one output tail (and one refine
  stage for ``ablate-refine --from``),
- **Report protocol**: ``kind`` dispatch in ``report_from_json`` for all
  three report kinds, tamper detection on the envelope kind, legacy
  (kind-less) payload inference, and kind-aware merge dispatch,
- **incremental result cache**: a warm re-run reports a nonzero hit-rate
  with an unchanged digest, refinement probes hit the store a lattice run
  warmed, and the cache refuses matrices without a rebuild spec.
"""

import json

import pytest

from repro.campaign import (
    CampaignReport,
    CampaignRunner,
    Experiment,
    ExperimentError,
    ExperimentSpec,
    ResultCache,
    ablate_spec,
    ablation_matrix,
    campaign_spec,
    default_matrix,
    merge_reports_any,
    reduce_frontier,
    refine_frontier,
    refine_spec,
    report_from_json,
    registered_report_kinds,
)
from repro.campaign.ablation import FrontierReport, RefinedFrontierReport

GRID = dict(
    families=("two-party",),
    premium_fractions=(0.0, 0.02, 0.05),
    shock_fractions=(0.045,),
    stages=("staked",),
)


def grid_matrix():
    return ablation_matrix(
        families=GRID["families"],
        premium_fractions=GRID["premium_fractions"],
        shock_fractions=GRID["shock_fractions"],
        stages=GRID["stages"],
    )


# ----------------------------------------------------------------------
# spec round-trips and digest semantics
# ----------------------------------------------------------------------
def test_spec_json_roundtrip_and_digest_stability():
    spec = ablate_spec(**GRID)
    restored = ExperimentSpec.from_json(spec.to_json())
    assert restored == spec
    assert restored.digest() == spec.digest()
    # the stamped digest is recomputed: silent edits are rejected
    data = json.loads(spec.to_json())
    data["matrix"]["kwargs"]["premium_fractions"] = [0.0, 0.03]
    with pytest.raises(ExperimentError, match="digest mismatch"):
        ExperimentSpec.from_json(json.dumps(data))


def test_spec_digest_covers_results_not_execution_layout():
    serial = ablate_spec(**GRID)
    pooled = ablate_spec(backend="pooled", workers=2, **GRID)
    expected = ablate_spec(expect=(("frontier", "0" * 64),), **GRID)
    # backend/workers/expect never change what runs, so they never change
    # the spec identity
    assert serial.digest() == pooled.digest() == expected.digest()
    other_grid = ablate_spec(
        families=("two-party",),
        premium_fractions=(0.0, 0.03),
        shock_fractions=(0.045,),
        stages=("staked",),
    )
    assert other_grid.digest() != serial.digest()
    refine = refine_spec(**GRID)
    assert refine.digest() != serial.digest()  # kind is identity
    assert refine_spec(tol=0.0078125, **GRID).digest() != refine.digest()


def test_spec_recipes_match_the_factories_without_building():
    # the spec builders compute the normalized rebuild recipe directly;
    # it must equal what the factory stamps on a built matrix, for every
    # normalization path (defaults, list inputs, un-canonical floats)
    from repro.campaign import default_matrix_spec
    from repro.campaign.ablation import ablation_matrix_spec

    cases = [
        dict(),
        dict(families=["two-party", "broker"], premium_fractions=[0, -0.0]),
        dict(shock_fractions=(0.045,), stages=["staked", "round:3"], seed=7),
        dict(coalitions=True, families=("broker",)),
    ]
    for kwargs in cases:
        assert ablation_matrix_spec(**kwargs) == ablation_matrix(**kwargs).spec
    assert default_matrix_spec() == default_matrix().spec
    assert default_matrix_spec(
        families=["broker", "broker"], max_adversaries=2
    ) == default_matrix(families=["broker", "broker"], max_adversaries=2).spec
    assert ablate_spec(**GRID).matrix == grid_matrix().spec


def test_spec_validation_rejects_malformed_fields():
    good = ablate_spec(**GRID)
    with pytest.raises(ExperimentError, match="unknown experiment kind"):
        ExperimentSpec(kind="nope", matrix=good.matrix)
    with pytest.raises(ExperimentError, match="unknown backend"):
        ExperimentSpec(kind="ablate", matrix=good.matrix, backend="threads")
    with pytest.raises(ExperimentError, match="tol applies only"):
        ExperimentSpec(kind="ablate", matrix=good.matrix, tol=0.01)
    with pytest.raises(ExperimentError, match="full lattice coverage"):
        ExperimentSpec(kind="ablate-refine", matrix=good.matrix, shard=(1, 2))
    with pytest.raises(ValueError, match="shard"):
        ExperimentSpec(kind="ablate", matrix=good.matrix, shard=(3, 2))


@pytest.mark.parametrize("tol", ["0", "1e-15", "nan", "inf"])
def test_ablate_refine_refuses_an_unreachable_tol_like_a_quote(tol, capsys):
    """One tol rule: below the bisection floor, ``ablate-refine`` exits
    before any scenario with the message ``quote`` gives for the same tol."""
    from repro.cli import main as cli_main
    from repro.quote.request import QuoteError, QuoteRequest

    with pytest.raises(SystemExit) as refused:
        cli_main(["ablate-refine", "--families", "two-party", "--tol", tol])
    with pytest.raises(QuoteError) as quoted:
        QuoteRequest(family="two-party", tol=float(tol))
    assert str(refused.value) == f"error: {quoted.value}"
    assert "converged" not in capsys.readouterr().out
    with pytest.raises(ExperimentError, match="tol must be finite and at least"):
        refine_spec(tol=float(tol), **GRID)


# ----------------------------------------------------------------------
# spec-vs-flag digest equivalence (acceptance criterion)
# ----------------------------------------------------------------------
def test_campaign_spec_reproduces_flag_driven_run_digest():
    flag_report = CampaignRunner(
        default_matrix(families=("broker", "auction")), limit=40
    ).run()
    spec = campaign_spec(families=("broker", "auction"), limit=40)
    result = Experiment(spec).run()
    assert result.campaign.run_digest == flag_report.run_digest
    assert result.primary is result.campaign


def test_ablate_spec_reproduces_flag_driven_frontier_digest():
    flag_frontier = reduce_frontier(CampaignRunner(grid_matrix()).run())
    result = Experiment(ablate_spec(**GRID)).run()
    assert result.frontier.digest == flag_frontier.digest
    assert result.campaign.matrix_digest == grid_matrix().digest()
    assert result.primary is result.frontier


def test_refine_spec_reproduces_flag_driven_refined_digest():
    flag_refined = refine_frontier(
        reduce_frontier(CampaignRunner(grid_matrix()).run())
    )
    result = Experiment(refine_spec(**GRID)).run()
    assert result.refined.digest == flag_refined.digest
    assert result.primary is result.refined


def test_sharded_spec_runs_merge_to_the_unsharded_digest():
    unsharded = Experiment(ablate_spec(**GRID)).run()
    shards = [
        Experiment(ablate_spec(shard=(i, 2), **GRID)).run() for i in (1, 2)
    ]
    assert all(shard.frontier is None for shard in shards)  # partial runs
    merged = merge_reports_any([shard.campaign for shard in shards])
    assert merged.run_digest == unsharded.campaign.run_digest
    assert reduce_frontier(merged).digest == unsharded.frontier.digest


def test_expectations_enforced_by_the_facade():
    good = Experiment(ablate_spec(**GRID)).run()
    ok_spec = ablate_spec(
        expect=(("frontier", good.frontier.digest),), **GRID
    )
    Experiment(ok_spec).run()  # matching digests pass silently
    bad_spec = ablate_spec(expect=(("frontier", "0" * 64),), **GRID)
    with pytest.raises(ExperimentError, match="digest mismatch"):
        Experiment(bad_spec).run()
    missing = ablate_spec(
        shard=(1, 2), expect=(("frontier", good.frontier.digest),), **GRID
    )
    with pytest.raises(ExperimentError, match="partial coverage"):
        Experiment(missing).run()


# ----------------------------------------------------------------------
# the Report protocol: kind dispatch, tamper detection, kind-aware merge
# ----------------------------------------------------------------------
def test_report_kinds_registered():
    assert registered_report_kinds() == (
        "campaign",
        "frontier",
        "refined-frontier",
    )
    assert CampaignReport.kind == "campaign"
    assert FrontierReport.kind == "frontier"
    assert RefinedFrontierReport.kind == "refined-frontier"


def test_report_from_json_dispatches_all_three_kinds():
    result = Experiment(refine_spec(**GRID)).run()
    for report in (result.campaign, result.frontier, result.refined):
        restored = report_from_json(report.to_json())
        assert type(restored) is type(report)
        assert restored.digest == report.digest


def test_report_kind_tamper_and_inference():
    result = Experiment(ablate_spec(**GRID)).run()
    # flipping the envelope kind fails the matching deserializer
    data = json.loads(result.frontier.to_json())
    assert data["kind"] == "frontier"
    data["kind"] = "campaign"
    with pytest.raises(ValueError):
        report_from_json(json.dumps(data))
    with pytest.raises(ValueError, match="kind mismatch"):
        FrontierReport.from_json(
            json.dumps({**json.loads(result.frontier.to_json()),
                        "kind": "refined-frontier"})
        )
    # files written before the protocol carry no kind: shape inference
    for report in (result.campaign, result.frontier):
        legacy = json.loads(report.to_json())
        del legacy["kind"]
        restored = report_from_json(json.dumps(legacy))
        assert restored.digest == report.digest
    with pytest.raises(ValueError, match="not a recognizable report"):
        report_from_json(json.dumps({"hello": "world"}))


def test_merge_dispatch_is_kind_aware():
    shards = [
        CampaignRunner(grid_matrix(), shard=(i, 2)).run() for i in (1, 2)
    ]
    merged = merge_reports_any(shards)
    assert merged.run_digest == CampaignRunner(grid_matrix()).run().run_digest
    frontier = reduce_frontier(merged)
    with pytest.raises(ValueError, match="reduced artifacts"):
        merge_reports_any([frontier, frontier])
    with pytest.raises(ValueError, match="mixed report kinds"):
        merge_reports_any([shards[0], frontier])
    with pytest.raises(ValueError, match="nothing to merge"):
        merge_reports_any([])


# ----------------------------------------------------------------------
# the incremental result cache
# ----------------------------------------------------------------------
def test_warm_cache_rerun_keeps_the_digest_and_reports_hits(tmp_path):
    cache = ResultCache(tmp_path / "store")
    cold = Experiment(ablate_spec(**GRID), cache=cache).run()
    assert cold.cache_hits == 0
    warm = Experiment(ablate_spec(**GRID), cache=cache).run()
    assert warm.campaign.cache_hits == warm.campaign.scenarios > 0
    assert warm.campaign.cache_hit_rate == 1.0
    assert warm.campaign.run_digest == cold.campaign.run_digest
    assert warm.frontier.digest == cold.frontier.digest
    # the hit count survives report transport but never enters the digest
    restored = CampaignReport.from_json(warm.campaign.to_json())
    assert restored.cache_hits == warm.campaign.cache_hits
    assert restored.run_digest == cold.campaign.run_digest


def test_lattice_run_warms_the_refinement_probes(tmp_path):
    cache = ResultCache(tmp_path / "store")
    cold = Experiment(refine_spec(**GRID), cache=cache).run()
    warm = Experiment(refine_spec(**GRID), cache=cache).run()
    assert warm.refined.digest == cold.refined.digest
    # lattice + every bisection probe served from the store
    probes = sum(len(row.probes) for row in warm.refined.rows)
    assert warm.cache_hits == warm.campaign.scenarios + 2 * probes
    assert warm.cache_hits > warm.campaign.scenarios  # probes hit too


def test_cache_misses_on_different_blocks_and_requires_rebuildable_matrix(
    tmp_path,
):
    cache = ResultCache(tmp_path / "store")
    Experiment(ablate_spec(**GRID), cache=cache).run()
    other = Experiment(
        ablate_spec(
            families=("two-party",),
            premium_fractions=(0.0, 0.03),
            shock_fractions=(0.045,),
            stages=("staked",),
        ),
        cache=cache,
    ).run()
    # pi=0 cell is shared with the first grid; the 0.03 cell is not
    assert 0 < other.cache_hits < other.campaign.scenarios
    from repro.campaign import ScenarioMatrix

    with pytest.raises(ValueError, match="rebuildable matrix"):
        CampaignRunner(ScenarioMatrix(), cache=cache)


# ----------------------------------------------------------------------
# the CLI spec workflow: spec -> run -> merge
# ----------------------------------------------------------------------
def test_cli_spec_run_reproduces_the_legacy_digest(tmp_path, capsys):
    from repro.cli import main

    flag_frontier = reduce_frontier(CampaignRunner(grid_matrix()).run())
    spec_path = tmp_path / "spec.json"
    main([
        "spec", "ablate", "--families", "two-party",
        "--premiums", "0,0.02,0.05", "--shocks", "0.045",
        "--stages", "staked", "--out", str(spec_path),
    ])
    spec = ExperimentSpec.from_json(spec_path.read_text())
    assert spec.kind == "ablate"
    frontier_path = tmp_path / "frontier.json"
    main([
        "run", str(spec_path),
        "--cache", str(tmp_path / "cache"),
        "--frontier-out", str(frontier_path),
        "--expect", flag_frontier.digest,
    ])
    assert FrontierReport.from_json(
        frontier_path.read_text()
    ).digest == flag_frontier.digest
    # warm re-run: same digest expectation passes, hit-rate is printed
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    main([
        "run", str(spec_path),
        "--cache", str(tmp_path / "cache"),
        "--out", str(report_path),
        "--expect", flag_frontier.digest,
    ])
    out = capsys.readouterr().out
    assert "cache hit-rate 100%" in out
    warm = CampaignReport.from_json(report_path.read_text())
    assert warm.cache_hits == warm.scenarios > 0
    with pytest.raises(SystemExit, match="digest mismatch"):
        main(["run", str(spec_path), "--expect", "0" * 64])


def test_cli_unified_merge_is_kind_aware(tmp_path, capsys):
    from repro.cli import main

    reference = reduce_frontier(CampaignRunner(grid_matrix()).run())
    for i in (1, 2):
        main([
            "ablate", "--families", "two-party",
            "--premiums", "0,0.02,0.05", "--shocks", "0.045",
            "--stages", "staked", "--shard", f"{i}/2",
            "--out", str(tmp_path / f"s{i}.json"),
        ])
    capsys.readouterr()
    main([
        "merge", str(tmp_path / "s1.json"), str(tmp_path / "s2.json"),
        "--frontier-out", str(tmp_path / "merged-frontier.json"),
        "--expect", reference.digest,
    ])
    assert "frontier digest" in capsys.readouterr().out
    merged = FrontierReport.from_json(
        (tmp_path / "merged-frontier.json").read_text()
    )
    assert merged.digest == reference.digest
    # a reduced artifact does not merge: the error says what does
    with pytest.raises(SystemExit, match="reduced artifacts"):
        main(["merge", str(tmp_path / "merged-frontier.json")])
    # a partial merge (shards that split a frontier cell) still writes
    # the recombined campaign report; only the reduction is deferred
    capsys.readouterr()
    main([
        "merge", str(tmp_path / "s1.json"),
        "--out", str(tmp_path / "partial.json"),
    ])
    out = capsys.readouterr().out
    assert "frontier reduction needs full coverage" in out
    partial = CampaignReport.from_json((tmp_path / "partial.json").read_text())
    assert not partial.complete
    with pytest.raises(SystemExit, match="full coverage"):
        main([
            "merge", str(tmp_path / "s1.json"),
            "--frontier-out", str(tmp_path / "nope.json"),
        ])


def test_merge_aliases_route_to_merge_and_reproduce_the_unsharded_digest(
    tmp_path, capsys
):
    from repro.cli import build_parser, cmd_merge, main

    parser = build_parser()
    for alias in ("merge", "campaign-merge", "ablate-merge"):
        assert parser.parse_args([alias, "r.json"]).func is cmd_merge
    flags = ["campaign", "--families", "bootstrap"]
    main([*flags, "--out", str(tmp_path / "full.json")])
    for i in (1, 2):
        main([*flags, "--shard", f"{i}/2", "--out", str(tmp_path / f"s{i}.json")])
    full = CampaignReport.from_json((tmp_path / "full.json").read_text())
    shards = [str(tmp_path / "s1.json"), str(tmp_path / "s2.json")]
    for alias in ("campaign-merge", "ablate-merge"):
        out = tmp_path / f"{alias}.json"
        main([alias, *shards, "--out", str(out), "--expect", full.run_digest])
        assert CampaignReport.from_json(out.read_text()).run_digest == full.run_digest
    capsys.readouterr()


def test_malformed_spec_fields_fail_cleanly(tmp_path):
    # a hand-edited spec with an invalid shard must surface as a clean
    # ExperimentError (and a clean CLI message), not a raw traceback
    from repro.cli import main

    data = json.loads(ablate_spec(**GRID).to_json())
    data["shard"] = [3, 2]
    with pytest.raises(ExperimentError, match="malformed experiment spec"):
        ExperimentSpec.from_json(json.dumps(data))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(SystemExit, match="malformed experiment spec"):
        main(["run", str(bad)])


def test_partial_selections_bypass_the_cache(tmp_path):
    cache = ResultCache(tmp_path / "store")
    Experiment(ablate_spec(**GRID), cache=cache).run()
    sharded = Experiment(ablate_spec(shard=(1, 2), **GRID), cache=cache).run()
    # shard boundaries split blocks, and split blocks never consult the
    # store; only fully-covered blocks may hit
    assert sharded.campaign.run_digest  # ran clean
    assert sharded.cache_hits <= sharded.campaign.scenarios
    warm_shard = Experiment(
        ablate_spec(shard=(1, 2), **GRID), cache=cache
    ).run()
    assert warm_shard.campaign.run_digest == sharded.campaign.run_digest


# ----------------------------------------------------------------------
# one CLI route per job: KIND = spec KIND + run
# ----------------------------------------------------------------------
ROUTE_FLAGS = {
    "campaign": ["--families", "bootstrap", "--limit", "7", "--seed", "3",
                 "--shard", "1/2", "--adversaries", "1", "--pooled"],
    "ablate": ["--families", "two-party", "--premiums", "0,0.02",
               "--shocks", "0.045", "--stages", "staked", "--coalitions",
               "--shard", "2/3", "--backend", "process", "--workers", "2"],
    "ablate-refine": ["--families", "broker", "--premiums", "0,0.05",
                      "--stages", "pre-stake", "--tol", "0.01",
                      "--engine", "simulator", "--seed", "5"],
}


def _option_strings(parser):
    return {
        option for action in parser._actions for option in action.option_strings
    }


def _subparsers(parser):
    return next(
        action.choices for action in parser._actions
        if isinstance(action.choices, dict)
    )


@pytest.mark.parametrize("kind", sorted(ROUTE_FLAGS))
def test_kind_alias_parses_to_the_spec_route(kind):
    from repro.cli import _spec_from_args, build_parser

    parser = build_parser()
    flags = ROUTE_FLAGS[kind]
    via_spec = _spec_from_args(kind, parser.parse_args(["spec", kind, *flags]))
    via_alias = _spec_from_args(kind, parser.parse_args([kind, *flags]))
    assert via_alias.digest() == via_spec.digest()
    assert via_alias.backend == via_spec.backend
    # the alias takes exactly the flags of `spec KIND` plus those of `run`
    commands = _subparsers(parser)
    expected = (
        _option_strings(_subparsers(commands["spec"])[kind])
        | _option_strings(commands["run"])
        | ({"--from"} if kind == "ablate-refine" else set())
    )
    assert _option_strings(commands[kind]) == expected


def test_partial_frontier_out_is_refused_on_both_routes(tmp_path):
    from repro.cli import main

    grid = ["--families", "two-party", "--premiums", "0,0.02,0.05",
            "--shocks", "0.045", "--stages", "staked", "--shard", "1/2"]
    spec_path = tmp_path / "shard.json"
    main(["spec", "ablate", *grid, "--out", str(spec_path)])
    frontier_path = tmp_path / "frontier.json"
    for argv in (["run", str(spec_path)], ["ablate", *grid]):
        with pytest.raises(SystemExit, match="cannot honor --frontier-out"):
            main([*argv, "--frontier-out", str(frontier_path)])
        assert not frontier_path.exists()


def test_refine_from_file_shares_the_facade_refine_stage(tmp_path, capsys):
    from repro.campaign import shared_cache
    from repro.cli import main
    from repro.quote import QuoteEngine, QuoteRequest

    lattice = tmp_path / "lattice.json"
    main(["ablate", "--families", "two-party", "--premiums", "0,0.08",
          "--shocks", "0.045", "--stages", "staked",
          "--frontier-out", str(lattice)])
    refined = {}
    for engine in ("kernel", "simulator"):
        out = tmp_path / f"refined-{engine}.json"
        trace = tmp_path / f"trace-{engine}.jsonl"
        main(["ablate-refine", "--from", str(lattice), "--engine", engine,
              "--cache", str(tmp_path / f"cache-{engine}"),
              "--trace", str(trace), "--refined-out", str(out)])
        refined[engine] = RefinedFrontierReport.from_json(out.read_text())
        # --engine picks the probe engine (the default is the kernel)
        assert ("kernel.replays" in trace.read_text()) == (engine == "kernel")
    assert refined["kernel"].digest == refined["simulator"].digest
    # the refined rows feed the quote row store: tier 2 answers
    quote = QuoteEngine(cache=shared_cache(tmp_path / "cache-kernel")).quote(
        QuoteRequest(family="two-party"), tiers=(2,)
    )
    assert quote.tier == 2 and quote.pi_star is not None
    # the grid is fixed by the loaded frontier, outputs by the refinement
    for flag in (["--seed", "1"], ["--frontier-out", "f.json"], ["--list"]):
        with pytest.raises(SystemExit, match="cannot be combined with --from"):
            main(["ablate-refine", "--from", str(lattice), *flag])
    capsys.readouterr()


@pytest.mark.parametrize("workers", ["x", True, 0, -1, 2.5])
def test_spec_workers_must_be_a_positive_int(workers):
    with pytest.raises(ExperimentError, match="workers"):
        ablate_spec(workers=workers, **GRID)
    data = json.loads(ablate_spec(**GRID).to_json())
    data["workers"] = workers
    with pytest.raises(ExperimentError, match="workers"):
        ExperimentSpec.from_json(json.dumps(data))
    assert ablate_spec(workers=2, **GRID).workers == 2


def test_cli_spec_refuses_bad_workers_before_any_matrix_work(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit, match="^error: workers must be"):
        main(["spec", "campaign", "--workers", "-1"])
    assert capsys.readouterr().out == ""
