"""Command-line interface: run any protocol and print its trace/outcome.

Examples::

    python -m repro.cli two-party
    python -m repro.cli two-party --hedged --deviate Bob@3
    python -m repro.cli multi-party --graph ring:4 --deviate P2@9
    python -m repro.cli broker --deviate Alice@6
    python -m repro.cli auction --strategy publish-loser
    python -m repro.cli bootstrap --value 1000000 --rate 100
    python -m repro.cli check two-party

``--deviate NAME@ROUND`` wraps the named party in a sore-loser halt; it can
be repeated.  ``check`` runs the exhaustive model checker for a protocol
family and prints the report.

**The declarative spec workflow** is the front door to every engine: one
JSON :class:`~repro.campaign.experiment.ExperimentSpec` names the matrix
factory and its parameters, the selection, the backend, the refinement
tolerance, and (optionally) the digests the run must reproduce.

- ``spec campaign|ablate|ablate-refine [flags] --out SPEC.json`` emits a
  spec from the same flags the legacy subcommands take,
- ``run SPEC.json`` executes it — add ``--cache DIR`` for the incremental
  result cache (verified scenario blocks keyed on block descriptor + code
  version are served from the store; the hit-rate is reported next to the
  digest, which a warm run reproduces byte-identically),
- ``merge R1.json R2.json ...`` (aliases ``campaign-merge`` and
  ``ablate-merge``) is kind-aware: campaign shard reports (of either
  matrix shape) recombine into the unsharded run digest, and
  ablation-shaped merges reduce the frontier too,
- the legacy ``campaign``/``ablate``/``ablate-refine`` subcommands are
  thin shims that construct the same spec from their flags and run it
  through the same facade — flag-driven and spec-driven runs are
  byte-identical by construction.

::

    python -m repro.cli spec ablate --premiums 0,0.02,0.05 --shocks 0.045 \
        --stages staked --out spec.json
    python -m repro.cli run spec.json --cache .repro-cache
    python -m repro.cli run spec.json --cache .repro-cache --expect 9c31…

``campaign`` runs the batched adversarial scenario matrix over every
protocol family:

- ``--backend process`` parallelises it (tiny selections fall back to
  serial; the report records the backend that actually ran),
- ``--limit N`` smoke-runs a deterministic subsample of exactly
  ``min(N, total)`` scenarios, stratified by matrix block — every family
  contributes at least one scenario whenever ``N`` reaches the block
  count, with the rest apportioned by block size,
- ``--shard I/N`` runs the I-th of N contiguous slices of the selection;
  every report states its selection and coverage, and folds them into the
  run digest, so a partial run can never pass for full coverage,
- ``--out report.json`` writes the report (with per-scenario digests) for
  ``campaign-merge``, which recombines shard reports and recomputes the
  run digest — byte-identical to the unsharded run when coverage is
  complete (``--expect DIGEST`` asserts it),
- ``--seed`` stamps the matrix identity into the digests but never changes
  which scenarios run.

::

    python -m repro.cli campaign
    python -m repro.cli campaign --families two-party,broker --backend process
    python -m repro.cli campaign --limit 120
    python -m repro.cli campaign --shard 1/3 --out shard1.json
    python -m repro.cli campaign-merge shard1.json shard2.json shard3.json \
        --expect 4f0c…

``ablate`` maps the deviation-profitability frontier: it crosses the
protocol families with rational (utility-driven) pivot actors over a
premium-fraction × price-shock × shock-stage grid, runs every cell's
comply/rational arm pair, and reduces the report to — per family, stage,
and shock — the smallest swept premium π* at which walking away stops
being rational (`repro.campaign.ablation`).  The frontier digest is
byte-identical across serial, process, pooled, and sharded-then-merged
runs of the same grid:

- ``--premiums`` / ``--shocks`` take comma-separated fractions,
  ``--stages`` a comma-separated mix of the named stages
  (``pre-stake,staked``), explicit ``round:K`` heights, or ``all`` — the
  dense per-round sweep charting how the deterrent decays round by round,
- ``--coalitions`` adds the named two-party coalition pivots (adjacent
  ring members, seller+buyer vs the broker) with joint-utility arms,
- ``--pooled`` runs through a persistent worker pool (the matrix is a
  registered pool factory, so workers rebuild and digest-verify it),
- ``--shard I/N --out shard.json`` writes a mergeable campaign report;
  ``ablate-merge`` recombines the shards, reduces the frontier, and
  checks ``--expect`` against the frontier digest.

::

    python -m repro.cli ablate
    python -m repro.cli ablate --families two-party --premiums 0,0.02 \
        --shocks 0.015,0.045 --pooled --expect 9c31…
    python -m repro.cli ablate --stages all --coalitions
    python -m repro.cli ablate --shard 1/2 --out s1.json
    python -m repro.cli ablate-merge s1.json s2.json --frontier-out frontier.json

``ablate-refine`` closes the staircase: it runs (or loads, via ``--from``)
a lattice frontier, then bisects each row's walk/deter boundary with
adaptive two-scenario cell probes until the bracket is within ``--tol``
(default 1/64), reporting a *continuous* π* that brackets the §5.2
closed-form thresholds.  The refined digest hashes the lattice digest,
the tolerance, and every probe outcome + probe run digest, so it is
byte-identical across serial, pooled, and refined-from-merged runs::

    python -m repro.cli ablate-refine --premiums 0,0.02,0.05 --shocks 0.045
    python -m repro.cli ablate-refine --stages all --coalitions --pooled
    python -m repro.cli ablate-refine --from frontier.json --tol 0.0078125 \
        --refined-out refined.json --expect 5c11…
"""

from __future__ import annotations

import argparse

from repro.campaign import (
    CampaignReport,
    Experiment,
    ExperimentError,
    ExperimentSpec,
    FAMILY_NAMES,
    ResultCache,
    WorkerPool,
    ablate_spec,
    campaign_spec,
    merge_reports_any,
    reduce_frontier,
    refine_frontier,
    refine_spec,
    report_from_json,
    shared_cache,
)
from repro.campaign.ablation import (
    ABLATION_FAMILIES,
    DEFAULT_TOL,
    FrontierReport,
)
from repro.checker import ModelChecker, full_strategy_space, halt_strategies, properties as props
from repro.core.bootstrap import BootstrapSpec, BootstrappedSwap, extract_bootstrap_outcome
from repro.core.hedged_auction import (
    AuctioneerStrategy,
    HedgedAuction,
    SealedBidAuction,
    extract_auction_outcome,
)
from repro.core.hedged_broker import HedgedBrokerDeal, extract_broker_outcome
from repro.core.multi_round_deal import DealSpec, MultiRoundDeal, extract_deal_outcome
from repro.core.hedged_multi_party import (
    HedgedMultiPartySwap,
    extract_multi_party_outcome,
)
from repro.core.hedged_two_party import HedgedTwoPartySwap
from repro.core.outcomes import extract_two_party_outcome
from repro.errors import ReproError
from repro.graph.digraph import SwapGraph, complete_graph, figure3_graph, ring_graph
from repro.parties.strategies import halt_at
from repro.protocols.base_broker import BaseBrokerDeal
from repro.protocols.base_multi_party import BaseMultiPartySwap
from repro.protocols.base_two_party import BaseTwoPartySwap
from repro.protocols.instance import ProtocolInstance, execute
from repro.sim.trace import render_lanes, render_timeline


def _parse_deviations(specs: list[str]):
    out = {}
    for item in specs or []:
        try:
            name, round_text = item.split("@", 1)
            rnd = int(round_text)
        except ValueError:
            raise SystemExit(f"--deviate expects NAME@ROUND, got {item!r}")
        out[name] = lambda actor, r=rnd: halt_at(actor, r)
    return out


def _parse_graph(text: str) -> SwapGraph:
    if text == "figure3":
        return figure3_graph()
    kind, _, n = text.partition(":")
    if kind == "ring":
        return ring_graph(int(n or 3))
    if kind == "complete":
        return complete_graph(int(n or 3))
    raise SystemExit(f"unknown graph {text!r}: use figure3, ring:N, or complete:N")


def _finish(instance: ProtocolInstance, args, outcome) -> None:
    result = instance.meta.pop("_result")
    if args.timeline:
        print(render_timeline(result))
    else:
        print(render_lanes(result, width=args.width))
    print()
    print("outcome:", outcome)


def cmd_two_party(args) -> None:
    builder = HedgedTwoPartySwap() if args.hedged else BaseTwoPartySwap()
    instance = builder.build()
    result = execute(instance, _parse_deviations(args.deviate))
    instance.meta["_result"] = result
    _finish(instance, args, extract_two_party_outcome(instance, result))


def cmd_multi_party(args) -> None:
    graph = _parse_graph(args.graph)
    if args.hedged:
        builder = HedgedMultiPartySwap(graph=graph, premium=args.premium)
    else:
        builder = BaseMultiPartySwap(graph=graph)
    instance = builder.build()
    result = execute(instance, _parse_deviations(args.deviate))
    instance.meta["_result"] = result
    _finish(instance, args, extract_multi_party_outcome(instance, result))


def cmd_broker(args) -> None:
    builder = HedgedBrokerDeal(premium=args.premium) if args.hedged else BaseBrokerDeal()
    instance = builder.build()
    result = execute(instance, _parse_deviations(args.deviate))
    instance.meta["_result"] = result
    _finish(instance, args, extract_broker_outcome(instance, result))


def cmd_deal(args) -> None:
    brokers = tuple(f"Broker{i + 1}" for i in range(args.brokers))
    spec = DealSpec(brokers=brokers)
    instance = MultiRoundDeal(spec, premium=args.premium).build()
    result = execute(instance, _parse_deviations(args.deviate))
    instance.meta["_result"] = result
    _finish(instance, args, extract_deal_outcome(instance, result))


def cmd_auction(args) -> None:
    strategy = AuctioneerStrategy(args.strategy)
    builder = SealedBidAuction(strategy=strategy) if args.sealed else HedgedAuction(strategy=strategy)
    instance = builder.build()
    result = execute(instance, _parse_deviations(args.deviate))
    instance.meta["_result"] = result
    _finish(instance, args, extract_auction_outcome(instance, result))


def cmd_bootstrap(args) -> None:
    spec = BootstrapSpec(
        amount_a=args.value, amount_b=args.value, rate=args.rate, rounds=args.rounds
    )
    instance = BootstrappedSwap(spec).build()
    result = execute(instance, _parse_deviations(args.deviate))
    instance.meta["_result"] = result
    _finish(instance, args, extract_bootstrap_outcome(instance, result))


def cmd_check(args) -> None:
    if args.protocol == "two-party":
        instance = HedgedTwoPartySwap().build()
        space = full_strategy_space(
            instance.horizon, ("deposit_premium", "escrow_principal", "redeem")
        )
        checker = ModelChecker(
            builder=lambda: HedgedTwoPartySwap().build(),
            properties=[props.no_stuck_escrow, props.two_party_hedged],
            strategies={p: space for p in instance.actors},
            max_adversaries=args.adversaries,
        )
    elif args.protocol == "multi-party":
        graph = _parse_graph(args.graph)
        instance = HedgedMultiPartySwap(graph=graph).build()
        checker = ModelChecker(
            builder=lambda: HedgedMultiPartySwap(graph=_parse_graph(args.graph)).build(),
            properties=[props.no_stuck_escrow, props.multi_party_lemmas],
            strategies={p: halt_strategies(instance.horizon) for p in instance.actors},
            max_adversaries=args.adversaries,
        )
    elif args.protocol == "broker":
        instance = HedgedBrokerDeal().build()
        checker = ModelChecker(
            builder=lambda: HedgedBrokerDeal().build(),
            properties=[props.no_stuck_escrow, props.broker_bounds],
            strategies={p: halt_strategies(instance.horizon) for p in instance.actors},
            max_adversaries=args.adversaries,
        )
    elif args.protocol == "auction":
        instance = HedgedAuction().build()
        checker = ModelChecker(
            builder=lambda: HedgedAuction().build(),
            properties=[props.no_stuck_escrow, props.auction_lemmas],
            strategies={p: halt_strategies(instance.horizon) for p in instance.actors},
            max_adversaries=args.adversaries,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown protocol {args.protocol}")
    report = checker.run()
    print(report.summary())
    for violation in report.violations[:20]:
        print(f"  {violation.scenario}: {violation.message}")
    if not report.ok:
        raise SystemExit(1)


def _parse_shard(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    try:
        i, n = text.split("/", 1)
        return int(i), int(n)
    except ValueError:
        raise SystemExit(f"--shard expects I/N (e.g. 2/3), got {text!r}")


#: the report kind a given experiment kind's --expect digest refers to.
PRIMARY_KINDS = {
    "campaign": "campaign",
    "ablate": "frontier",
    "ablate-refine": "refined-frontier",
}


def _parse_fractions(text: str | None, flag: str) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        return tuple(float(f.strip()) for f in text.split(",") if f.strip())
    except ValueError:
        raise SystemExit(f"{flag} expects comma-separated fractions, got {text!r}")


def _parse_families(text: str | None) -> tuple[str, ...] | None:
    if text and text != "all":
        return tuple(f.strip() for f in text.split(",") if f.strip())
    return None


def _write_json(path: str, text: str, label: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"{label} written to {path}")


def _open_cache(args) -> ResultCache | None:
    path = getattr(args, "cache", None)
    if not path:
        return None
    try:
        # shared_cache, not a fresh ResultCache: every consumer of one
        # cache directory in this process — an experiment run, the quote
        # engine's tier-2/3 ladder, refinement probes — must see the same
        # warm store (and the same attached tracer).
        return shared_cache(path)
    except OSError as err:
        raise SystemExit(f"error opening cache {path}: {err}")


def _progress_printer():
    """A throttled stderr progress line: done/total, percent, ETA."""
    import sys

    state = {"width": 0}

    def show(update) -> None:
        message = (
            f"\r{update.done}/{update.total} scenarios "
            f"({update.fraction:.0%})"
        )
        if update.eta is not None:
            message += f", eta {update.eta:.1f}s"
        padding = max(0, state["width"] - (len(message) - 1))
        state["width"] = len(message) - 1
        sys.stderr.write(message + " " * padding)
        if update.total and update.done >= update.total:
            sys.stderr.write("\n")
        sys.stderr.flush()

    return show


def _obs_from_args(args):
    """The --trace/--progress wiring shared by every engine subcommand.

    Returns ``(tracer, progress)``: a :class:`repro.obs.Tracer` writing a
    JSONL sink when ``--trace FILE`` was given (the caller must close
    it), and a throttled stderr progress callback for ``--progress``.
    Telemetry is digest-inert — a traced run reproduces the untraced
    digests byte-identically (CI's trace-smoke job asserts it).
    """
    trace_path = getattr(args, "trace", None)
    want_progress = getattr(args, "progress", False)
    tracer = None
    if trace_path:
        from repro.obs import Tracer, TraceWriter

        try:
            tracer = Tracer(TraceWriter(trace_path))
        except OSError as err:
            raise SystemExit(f"error opening trace file {trace_path}: {err}")
    progress = _progress_printer() if want_progress else None
    return tracer, progress


def _spec_from_args(kind: str, args) -> ExperimentSpec:
    """One spec constructor behind both `spec` and the legacy shims."""
    backend = "pooled" if getattr(args, "pooled", False) else args.backend
    try:
        if kind == "campaign":
            return campaign_spec(
                families=_parse_families(args.families),
                seed=args.seed,
                max_adversaries=args.adversaries,
                backend=backend,
                workers=args.workers,
                limit=args.limit,
                shard=_parse_shard(args.shard),
            )
        grid = dict(
            families=_parse_families(args.families),
            premium_fractions=_parse_fractions(args.premiums, "--premiums"),
            shock_fractions=_parse_fractions(args.shocks, "--shocks"),
            stages=tuple(s.strip() for s in args.stages.split(",") if s.strip())
            if args.stages
            else None,
            coalitions=args.coalitions,
            seed=args.seed,
            backend=backend,
            workers=args.workers,
            engine=getattr(args, "engine", "kernel"),
        )
        if kind == "ablate":
            return ablate_spec(shard=_parse_shard(args.shard), **grid)
        return refine_spec(tol=args.tol, **grid)
    except (ValueError, ExperimentError) as err:
        raise SystemExit(f"error: {err}")


def _print_matrix_breakdown(matrix, label: str) -> None:
    sizes = matrix.block_sizes()
    print(
        f"{label}: {len(matrix)} scenarios over {len(sizes)} families "
        f"(seed={matrix.seed}, digest={matrix.digest()[:16]})"
    )
    for family, size in sizes.items():
        print(f"  {family:<14} {size:>6}")


def _print_violations(report: CampaignReport, traces: int = 1) -> None:
    for index, violation in enumerate(report.violations[:20]):
        print(f"  {violation.scenario}: {violation.message}")
        if violation.trace and index < traces:
            print("    " + violation.trace.replace("\n", "\n    "))


def _cache_note(report: CampaignReport) -> str:
    """The hit-rate note printed beside a digest (never hashed into it)."""
    if not report.cache_hits:
        return ""
    return (
        f" (cache hit-rate {report.cache_hit_rate:.0%}, "
        f"{report.cache_hits}/{report.scenarios})"
    )


def _print_campaign_report(report: CampaignReport) -> None:
    print(report.summary())
    for axis in ("family", "strategy"):
        rows = report.axis_table(axis)
        if not rows:
            continue
        print(f"by {axis}:")
        for value, scenarios, violations in rows:
            print(f"  {value:<24} {scenarios:>6} scenarios  {violations:>4} violations")
    payoffs = report.payoff_summary()
    print(
        f"premium flows: n={payoffs['n']} nonzero={payoffs['nonzero']} "
        f"min={payoffs['min']} max={payoffs['max']} mean={payoffs['mean']:.3f}"
    )
    print(f"selection: {report.selection} "
          f"({report.scenarios}/{report.total_scenarios} scenarios)")
    print(f"run digest: {report.run_digest}{_cache_note(report)}")
    _print_violations(report)


def _print_frontier(frontier: FrontierReport) -> None:
    print()
    print(frontier.summary())
    print(frontier.table())
    print(f"frontier digest: {frontier.digest}")


def _print_refined(refined) -> None:
    print()
    print(refined.summary())
    print(refined.table())
    print(f"refined digest: {refined.digest}")


def _run_experiment(spec: ExperimentSpec, args, list_only: bool = False):
    """Execute a spec and print its reports (the shared engine behind
    ``run`` and the legacy shims).  Returns the :class:`ExperimentResult`,
    or None for ``--list``."""
    cache = _open_cache(args)
    try:
        matrix = spec.matrix.build()
    except (KeyError, ValueError) as err:
        raise SystemExit(f"error: {err}")
    label = "matrix" if spec.kind == "campaign" else "ablation grid"
    _print_matrix_breakdown(matrix, label)
    if list_only:
        return None
    tracer, progress = _obs_from_args(args)
    try:
        result = Experiment(
            spec, cache=cache, matrix=matrix, tracer=tracer, progress=progress
        ).run()
    except ExperimentError as err:
        raise SystemExit(f"error: {err}")
    except (ValueError, RuntimeError) as err:
        # RuntimeError: a bisection probe violated a protocol property
        raise SystemExit(f"error: {err}")
    finally:
        if tracer is not None:
            tracer.close()
    if getattr(args, "trace", None):
        print(f"trace written to {args.trace} "
              f"(summarize with: python -m repro.obs summarize {args.trace})")
    report = result.campaign
    print()
    if spec.kind == "campaign":
        _print_campaign_report(report)
    else:
        print(report.summary())
        print(f"run digest: {report.run_digest}{_cache_note(report)}")
        _print_violations(report)
    if getattr(args, "out", None):
        _write_json(args.out, report.to_json(), "report")
    if result.frontier is not None:
        _print_frontier(result.frontier)
        if getattr(args, "frontier_out", None):
            _write_json(args.frontier_out, result.frontier.to_json(), "frontier")
    if result.refined is not None:
        _print_refined(result.refined)
        if getattr(args, "refined_out", None):
            _write_json(
                args.refined_out, result.refined.to_json(), "refined frontier"
            )
    return result


def _check_expect(args, kind: str, result) -> None:
    """Honor a shim/run --expect flag against the primary report digest."""
    if not getattr(args, "expect", None):
        return
    primary_kind = PRIMARY_KINDS[kind]
    produced = {type(r).kind: r.digest for r in result.reports}
    actual = produced.get(primary_kind)
    if actual is None:
        raise SystemExit(
            f"error: selection {result.campaign.selection} cannot honor "
            f"--expect — {primary_kind} reduction needs full coverage; "
            "merge all shards with the merge subcommand"
        )
    if actual != args.expect:
        raise SystemExit(
            f"digest mismatch: {primary_kind} {actual} != expected {args.expect}"
        )


# ----------------------------------------------------------------------
# spec workflow subcommands
# ----------------------------------------------------------------------
def cmd_spec(args) -> None:
    spec = _spec_from_args(args.spec_kind, args)
    if args.expect:
        from dataclasses import replace

        spec = replace(
            spec, expect=((PRIMARY_KINDS[args.spec_kind], args.expect),)
        )
    text = spec.to_json()
    if args.out:
        _write_json(args.out, text, "spec")
        print(f"spec digest: {spec.digest()}")
    else:
        print(text)


def cmd_run(args) -> None:
    try:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = ExperimentSpec.from_json(handle.read())
    except (OSError, ExperimentError) as err:
        raise SystemExit(f"error reading {args.spec}: {err}")
    print(f"spec: kind={spec.kind} digest={spec.digest()[:16]} "
          f"backend={spec.backend}")
    result = _run_experiment(spec, args, list_only=args.list)
    if result is None:
        return
    _check_expect(args, spec.kind, result)
    if not result.ok:
        raise SystemExit(1)
    if spec.kind == "ablate" and result.frontier is None and not args.expect:
        print(
            f"selection {result.campaign.selection}: frontier reduction "
            "needs full coverage — merge all shards with the merge "
            "subcommand"
        )


def cmd_merge(args) -> None:
    reports = []
    for path in args.reports:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                reports.append(report_from_json(handle.read()))
        except (OSError, ValueError, KeyError, TypeError) as err:
            raise SystemExit(f"error reading {path}: {err}")
    try:
        merged = merge_reports_any(reports)
    except ValueError as err:
        raise SystemExit(f"error: {err}")
    ablation_shaped = _is_ablation_report(merged)
    frontier = None
    if ablation_shaped and merged.complete:
        try:
            frontier = reduce_frontier(merged)
        except ValueError as err:
            raise SystemExit(f"error: {err}")
    _print_campaign_report(merged)
    if args.out:
        _write_json(args.out, merged.to_json(), "merged report")
    if frontier is not None:
        _print_frontier(frontier)
        if args.frontier_out:
            _write_json(args.frontier_out, frontier.to_json(), "frontier")
    elif ablation_shaped:
        # A partial merge still writes/prints the recombined report above;
        # only the frontier reduction needs every shard.
        if args.frontier_out:
            raise SystemExit(
                f"error: selection {merged.selection} cannot honor "
                "--frontier-out — frontier reduction needs full coverage; "
                "merge the remaining shards first"
            )
        print(
            f"selection {merged.selection}: frontier reduction needs full "
            "coverage — merge the remaining shards first"
        )
    primary = frontier if frontier is not None else merged
    if args.expect and primary.digest != args.expect:
        raise SystemExit(
            f"digest mismatch: merged {primary.digest} != expected {args.expect}"
        )
    if not merged.ok:
        raise SystemExit(1)


def _is_ablation_report(report: CampaignReport) -> bool:
    """True iff the report came from an ablation-shaped matrix (every
    result carries the grid axes the frontier reducer needs)."""
    if not report.results:
        return False
    axes = dict(report.results[0].axes)
    return all(axis in axes for axis in ("pi", "shock", "stage"))


# ----------------------------------------------------------------------
# legacy shims (flag-driven spec construction, same facade)
# ----------------------------------------------------------------------
def cmd_campaign(args) -> None:
    spec = _spec_from_args("campaign", args)
    result = _run_experiment(spec, args, list_only=args.list)
    if result is None:
        return
    if not result.ok:
        raise SystemExit(1)


def cmd_ablate(args) -> None:
    spec = _spec_from_args("ablate", args)
    result = _run_experiment(spec, args, list_only=args.list)
    if result is None:
        return
    if result.frontier is None:
        if args.expect or args.frontier_out:
            raise SystemExit(
                f"error: selection {result.campaign.selection} cannot honor "
                "--expect/--frontier-out — frontier reduction needs full "
                "coverage; merge all shards with ablate-merge"
            )
        print(
            f"selection {result.campaign.selection}: frontier reduction "
            "needs full coverage — merge all shards with ablate-merge"
        )
    else:
        _check_expect(args, "ablate", result)
    if not result.ok:
        raise SystemExit(1)


def cmd_ablate_refine(args) -> None:
    if args.from_report:
        _refine_from_file(args)
        return
    spec = _spec_from_args("ablate-refine", args)
    result = _run_experiment(spec, args, list_only=getattr(args, "list", False))
    if result is None:
        return
    if not result.ok:
        raise SystemExit(1)
    _check_expect(args, "ablate-refine", result)


def _refine_from_file(args) -> None:
    """The ``ablate-refine --from FRONTIER.json`` path: refine a loaded
    lattice instead of running the grid (no spec involved — the loaded
    frontier fixes the grid)."""
    overridden = [
        flag
        for flag, given in (
            ("--families", args.families != "all"),
            ("--premiums", args.premiums is not None),
            ("--shocks", args.shocks is not None),
            ("--stages", args.stages is not None),
            ("--coalitions", args.coalitions),
            ("--seed", args.seed != 0),
        )
        if given
    ]
    if overridden:
        raise SystemExit(
            f"error: {', '.join(overridden)} cannot be combined with "
            "--from — the loaded frontier already fixes the grid"
        )
    try:
        with open(args.from_report, "r", encoding="utf-8") as handle:
            frontier = FrontierReport.from_json(handle.read())
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise SystemExit(f"error reading {args.from_report}: {err}")
    print(f"lattice frontier loaded from {args.from_report}")
    print(frontier.summary())
    pool = WorkerPool(workers=args.workers) if args.pooled else None
    tracer, _ = _obs_from_args(args)
    try:
        refined = refine_frontier(
            frontier,
            tol=args.tol,
            backend="process" if args.pooled else "serial",
            pool=pool,
            cache=_open_cache(args),
            tracer=tracer,
        )
    except (ValueError, RuntimeError) as err:
        # RuntimeError: a bisection probe violated a protocol property
        raise SystemExit(f"error: {err}")
    finally:
        if pool is not None:
            pool.close()
        if tracer is not None:
            tracer.close()
    _print_refined(refined)
    if args.refined_out:
        _write_json(args.refined_out, refined.to_json(), "refined frontier")
    if args.expect and refined.digest != args.expect:
        raise SystemExit(
            f"digest mismatch: refined {refined.digest} != expected {args.expect}"
        )


def _tiers_from_args(args) -> tuple[int, ...]:
    text = getattr(args, "tiers", None)
    if not text:
        from repro.quote import ALL_TIERS

        return ALL_TIERS
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise SystemExit(
            f"error: --tiers takes a comma list from 1,2,3 — got {text!r}"
        )


def _print_quote(quote, label: str = "quote") -> None:
    from repro.campaign.canon import fmt_fraction

    pivot = quote.coalition or "pivot"
    print(
        f"{label}: family={quote.family} pivot={pivot} "
        f"stage={quote.stage} shock={fmt_fraction(quote.shock)} "
        f"tol={fmt_fraction(quote.tol)}"
    )
    if quote.hedgeable:
        print(
            f"pi*: {fmt_fraction(quote.pi_star)}  "
            f"premium: {quote.premium} (base {quote.base})"
        )
        total = sum(entry.amount for entry in quote.schedule)
        print(f"schedule: {len(quote.schedule)} deposits, total {total}")
        for entry in quote.schedule:
            path = "->".join(entry.path) if entry.path else "-"
            print(
                f"  {entry.kind:<10} {entry.depositor:<6} "
                f"{entry.arc[0]}->{entry.arc[1]}  round {entry.round}  "
                f"amount {entry.amount:>5}  path {path}"
            )
    else:
        print("pi*: un-hedgeable (no premium up to the ceiling deters this walk)")
    print(f"tier: {quote.tier}")
    print(f"latency: {quote.latency_ms:.3f} ms")
    print(f"provenance: {quote.provenance}")
    print(f"quote digest: {quote.digest()}")


def _quote_request_from_args(args):
    from repro.quote import QuoteRequest

    return QuoteRequest(
        family=args.family or "",
        graph=args.graph or "",
        coalition=args.coalition or "",
        shock=args.shock,
        stage=args.stage,
        tol=args.tol,
        seed=args.seed,
    )


def cmd_quote(args) -> None:
    from repro.quote import QuoteEngine

    tracer, _ = _obs_from_args(args)
    try:
        request = _quote_request_from_args(args)
        engine = QuoteEngine(cache=_open_cache(args), tracer=tracer)
        quote = engine.quote(request, tiers=_tiers_from_args(args))
    finally:
        if tracer is not None:
            tracer.close()
    print(f"request digest: {request.digest()}")
    _print_quote(quote)
    if args.out:
        _write_json(args.out, quote.to_json(), "quote")
    if args.expect and quote.digest() != args.expect:
        raise SystemExit(
            f"digest mismatch: quote {quote.digest()} != expected {args.expect}"
        )


def cmd_quote_batch(args) -> None:
    import json

    from repro.quote import QuoteEngine, QuoteRequest, batch_digest, quote_batch

    try:
        with open(args.requests, "r", encoding="utf-8") as handle:
            items = json.load(handle)
    except (OSError, ValueError) as err:
        raise SystemExit(f"error reading {args.requests}: {err}")
    if not isinstance(items, list):
        raise SystemExit(
            f"error: {args.requests} must hold a JSON array of quote requests"
        )
    requests = [
        QuoteRequest.from_json(json.dumps(item)) for item in items
    ]
    tracer, progress = _obs_from_args(args)
    try:
        engine = QuoteEngine(cache=_open_cache(args), tracer=tracer)
        quotes = quote_batch(
            engine, requests, tiers=_tiers_from_args(args), progress=progress
        )
    finally:
        if tracer is not None:
            tracer.close()
    from repro.campaign.canon import fmt_fraction

    tiers_served = {tier: 0 for tier in (1, 2, 3)}
    for index, quote in enumerate(quotes):
        tiers_served[quote.tier] += 1
        answer = (
            fmt_fraction(quote.pi_star) if quote.hedgeable else "un-hedgeable"
        )
        pivot = quote.coalition or "pivot"
        print(
            f"[{index}] {quote.family:<12} {pivot:<14} {quote.stage:<10} "
            f"shock={fmt_fraction(quote.shock)}  pi*={answer:<14} "
            f"premium={quote.premium if quote.premium is not None else '-':>4}  "
            f"tier: {quote.tier}"
        )
    print(
        f"{len(quotes)} quotes: "
        + ", ".join(f"tier {t}: {n}" for t, n in sorted(tiers_served.items()))
    )
    digest = batch_digest(quotes)
    print(f"batch digest: {digest}")
    if args.out:
        payload = json.dumps(
            {
                "quotes": [json.loads(quote.to_json()) for quote in quotes],
                "digest": digest,
            },
            indent=2,
        )
        _write_json(args.out, payload, "quote batch")
    if args.expect and digest != args.expect:
        raise SystemExit(
            f"digest mismatch: batch {digest} != expected {args.expect}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hedged cross-chain transaction protocols (Xue-Herlihy PODC'21)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, hedged_default=True):
        p.add_argument("--deviate", action="append", metavar="NAME@ROUND",
                       help="halt a party from a round on (repeatable)")
        p.add_argument("--timeline", action="store_true", help="flat timeline output")
        p.add_argument("--width", type=int, default=36, help="lane width")
        if hedged_default is not None:
            group = p.add_mutually_exclusive_group()
            group.add_argument("--hedged", dest="hedged", action="store_true", default=True)
            group.add_argument("--base", dest="hedged", action="store_false",
                               help="run the unhedged base protocol")

    p = sub.add_parser("two-party", help="two-party atomic swap (§5)")
    common(p)
    p.set_defaults(func=cmd_two_party)

    p = sub.add_parser("multi-party", help="multi-party swap (§7)")
    common(p)
    p.add_argument("--graph", default="figure3", help="figure3 | ring:N | complete:N")
    p.add_argument("--premium", type=int, default=1)
    p.set_defaults(func=cmd_multi_party)

    p = sub.add_parser("broker", help="brokered deal (§8)")
    common(p)
    p.add_argument("--premium", type=int, default=1)
    p.set_defaults(func=cmd_broker)

    p = sub.add_parser("deal", help="multi-round resale chain (§8.2 extension)")
    common(p, hedged_default=None)
    p.add_argument("--brokers", type=int, default=2, help="chain length r")
    p.add_argument("--premium", type=int, default=1)
    p.set_defaults(func=cmd_deal)

    p = sub.add_parser("auction", help="ticket auction (§9)")
    common(p, hedged_default=None)
    p.add_argument("--strategy", default="honest",
                   choices=[s.value for s in AuctioneerStrategy])
    p.add_argument("--sealed", action="store_true", help="commit-reveal bids")
    p.set_defaults(func=cmd_auction)

    p = sub.add_parser("bootstrap", help="bootstrapped swap (§6)")
    common(p, hedged_default=None)
    p.add_argument("--value", type=int, default=1_000_000)
    p.add_argument("--rate", type=int, default=100)
    p.add_argument("--rounds", type=int, default=3)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("check", help="run the model checker")
    p.add_argument("protocol", choices=["two-party", "multi-party", "broker", "auction"])
    p.add_argument("--graph", default="figure3")
    p.add_argument("--adversaries", type=int, default=1)
    p.set_defaults(func=cmd_check)

    def obs_flags(p):
        """--trace/--progress: the digest-inert telemetry layer, shared
        by every engine subcommand (spec, run, and shim alike)."""
        p.add_argument("--trace", default=None, metavar="FILE.jsonl",
                       help="write a JSONL span/counter trace of the run "
                            "(inspect with python -m repro.obs summarize); "
                            "digests are byte-identical with or without it")
        p.add_argument("--progress", action="store_true",
                       help="stream scenarios done/total + ETA to stderr")

    def exec_flags(p):
        """--backend/--pooled/--workers/--cache: execution layout, shared
        by every engine subcommand (spec and shim alike)."""
        p.add_argument("--backend", choices=["serial", "process"],
                       default="serial")
        p.add_argument("--pooled", action="store_true",
                       help="run through a persistent WorkerPool "
                            "(implies process)")
        p.add_argument("--workers", type=int, default=None,
                       help="process-pool size")
        p.add_argument("--cache", default=None, metavar="DIR",
                       help="incremental result cache: serve already-"
                            "verified scenario blocks from this store")
        obs_flags(p)

    def campaign_flags(p):
        """The campaign matrix/selection flags (spec and shim alike)."""
        p.add_argument(
            "--families",
            default="all",
            help="comma-separated subset of " + ",".join(FAMILY_NAMES),
        )
        p.add_argument("--limit", type=int, default=None,
                       help="run exactly min(N, total) scenarios, stratified "
                            "by block (every family covered when N >= block "
                            "count)")
        p.add_argument("--shard", default=None, metavar="I/N",
                       help="run the I-th of N contiguous slices of the "
                            "selection")
        p.add_argument("--seed", type=int, default=0,
                       help="matrix identity seed")
        p.add_argument("--adversaries", type=int, default=None,
                       help="override max simultaneous adversaries per family")
        exec_flags(p)

    def ablation_grid_flags(p, shard=True):
        """The shared ablation grid wiring: --premiums/--shocks/--stages/
        --coalitions plus the execution flags — one builder behind
        ``ablate``, ``ablate-refine``, and their ``spec`` counterparts."""
        p.add_argument(
            "--families",
            default="all",
            help="comma-separated subset of " + ",".join(ABLATION_FAMILIES),
        )
        p.add_argument("--premiums", default=None, metavar="F1,F2,...",
                       help="premium fractions pi to sweep (default grid)")
        p.add_argument("--shocks", default=None, metavar="F1,F2,...",
                       help="relative price drops s to sweep (default grid)")
        p.add_argument("--stages", default=None, metavar="S1,S2",
                       help="shock stages: named (pre-stake,staked), round:K, "
                            "or 'all' for the dense per-round sweep")
        p.add_argument("--coalitions", action="store_true",
                       help="add the named two-party coalition pivots "
                            "(joint-utility arms)")
        p.add_argument("--engine", choices=["kernel", "simulator"],
                       default="kernel",
                       help="scenario engine: the vectorized payoff kernels "
                            "(default; byte-identical digests) or the full "
                            "simulator audit path")
        p.add_argument("--seed", type=int, default=0,
                       help="matrix identity seed")
        if shard:
            p.add_argument("--shard", default=None, metavar="I/N",
                           help="run the I-th of N contiguous slices of the "
                                "grid")
        exec_flags(p)

    def refine_flags(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="bisection tolerance on the premium fraction "
                            f"(default {DEFAULT_TOL} = 1/64)")

    def expect_flag(p, what: str):
        p.add_argument("--expect", default=None, metavar="DIGEST",
                       help=f"exit non-zero unless the {what} digest matches")

    # ------------------------------------------------------------------
    # spec workflow: spec / run / merge
    # ------------------------------------------------------------------
    p = sub.add_parser(
        "spec",
        help="emit a declarative ExperimentSpec JSON from engine flags",
    )
    spec_sub = p.add_subparsers(dest="spec_kind", required=True)
    sp = spec_sub.add_parser("campaign", help="spec for the adversarial campaign")
    campaign_flags(sp)
    sp = spec_sub.add_parser("ablate", help="spec for the ablation lattice")
    ablation_grid_flags(sp)
    sp = spec_sub.add_parser(
        "ablate-refine", help="spec for the bisected frontier"
    )
    ablation_grid_flags(sp, shard=False)
    refine_flags(sp)
    for kind, sp in spec_sub.choices.items():
        sp.add_argument("--out", default=None, metavar="SPEC.json",
                        help="write the spec here (default: stdout)")
        expect_flag(sp, "primary report")
        sp.set_defaults(func=cmd_spec, spec_kind=kind)

    p = sub.add_parser(
        "run",
        help="run an ExperimentSpec (any engine, one entry point)",
    )
    p.add_argument("spec", metavar="SPEC.json",
                   help="an experiment spec written by the spec subcommand")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="incremental result cache directory")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the campaign report as JSON (for merge)")
    p.add_argument("--frontier-out", default=None, metavar="PATH",
                   help="write the reduced frontier as JSON")
    p.add_argument("--refined-out", default=None, metavar="PATH",
                   help="write the refined frontier as JSON")
    p.add_argument("--list", action="store_true",
                   help="print the matrix breakdown and exit")
    obs_flags(p)
    expect_flag(p, "primary report")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "merge",
        aliases=["campaign-merge", "ablate-merge"],
        help="kind-aware merge of shard reports (campaign or ablation)",
    )
    p.add_argument("reports", nargs="+", metavar="REPORT.json",
                   help="shard reports written with --out")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the merged campaign report as JSON")
    p.add_argument("--frontier-out", default=None, metavar="PATH",
                   help="write the reduced frontier as JSON "
                        "(ablation-shaped merges only)")
    expect_flag(p, "merged primary (run or frontier)")
    p.set_defaults(func=cmd_merge)

    # ------------------------------------------------------------------
    # legacy shims: flag-driven specs through the same facade
    # ------------------------------------------------------------------
    p = sub.add_parser("campaign", help="batched adversarial scenario matrix")
    campaign_flags(p)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the report as JSON (for merge)")
    p.add_argument("--list", action="store_true",
                   help="print the matrix breakdown and exit")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "ablate",
        help="map the rational-adversary deviation-profitability frontier",
    )
    ablation_grid_flags(p)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the campaign report as JSON (for merge)")
    p.add_argument("--frontier-out", default=None, metavar="PATH",
                   help="write the reduced frontier as JSON")
    expect_flag(p, "frontier")
    p.add_argument("--list", action="store_true",
                   help="print the grid breakdown and exit")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser(
        "ablate-refine",
        help="bisect the frontier between lattice points to a continuous pi*",
    )
    ablation_grid_flags(p, shard=False)
    refine_flags(p)
    p.add_argument("--from", dest="from_report", default=None,
                   metavar="FRONTIER.json",
                   help="refine an existing frontier (written by ablate "
                        "--frontier-out or merge) instead of running the "
                        "lattice grid")
    p.add_argument("--refined-out", default=None, metavar="PATH",
                   help="write the refined frontier as JSON")
    expect_flag(p, "refined")
    p.set_defaults(func=cmd_ablate_refine)

    # ------------------------------------------------------------------
    # the premium-quoting service
    # ------------------------------------------------------------------
    from repro.quote import DEFAULT_SHOCK

    def quote_common_flags(p):
        """The assumption/ladder flags shared by quote and quote-batch."""
        p.add_argument("--tiers", default=None, metavar="T1,T2,...",
                       help="restrict the answer ladder (default 1,2,3): "
                            "1 closed forms, 2 cached refined rows, "
                            "3 narrow measurement fallback")
        p.add_argument("--cache", default=None, metavar="DIR",
                       help="shared result cache: tier 2 reads refined "
                            "rows from it, tier 3 stores them back")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the quote (JSON, digest-stamped)")
        obs_flags(p)

    p = sub.add_parser(
        "quote",
        help="price one cross-chain deal: deterring pi*, integer premium, "
             "per-arc deposit schedule",
    )
    shape = p.add_mutually_exclusive_group(required=True)
    shape.add_argument("--family", default=None,
                       help="a named family: " + ",".join(ABLATION_FAMILIES))
    shape.add_argument("--graph", default=None, metavar="SHAPE",
                       help="a graph-shaped deal: ring:N, complete:N, "
                            "figure3")
    p.add_argument("--coalition", default=None,
                   help="price a named joint pivot (e.g. multi-party "
                        "P1+P2, broker seller+buyer)")
    p.add_argument("--shock", type=float, default=DEFAULT_SHOCK,
                   help="relative price drop to deter "
                        f"(default {DEFAULT_SHOCK})")
    p.add_argument("--stage", default="staked",
                   help="shock stage: pre-stake, staked, or round:K "
                        "(default staked)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="premium-fraction tolerance on pi* "
                        f"(default {DEFAULT_TOL} = 1/64)")
    p.add_argument("--seed", type=int, default=0,
                   help="matrix identity seed for measurement fallbacks")
    quote_common_flags(p)
    expect_flag(p, "quote")
    p.set_defaults(func=cmd_quote)

    p = sub.add_parser(
        "quote-batch",
        help="price a basket of deals from a JSON request list "
             "(grouped by cell, results in input order)",
    )
    p.add_argument("requests", metavar="REQUESTS.json",
                   help="a JSON array of quote-request objects "
                        "(same fields as the quote flags)")
    quote_common_flags(p)
    expect_flag(p, "batch")
    p.set_defaults(func=cmd_quote_batch)
    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ReproError as err:
        raise SystemExit(f"error: {err}")


if __name__ == "__main__":
    main()
