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
  spec from the kind's flags,
- ``run SPEC.json`` executes it — add ``--cache DIR`` for the incremental
  result cache (verified scenario blocks keyed on block descriptor + code
  version are served from the store; the hit-rate is reported next to the
  digest, which a warm run reproduces byte-identically),
- ``merge R1.json R2.json ...`` (aliases ``campaign-merge`` and
  ``ablate-merge``) is kind-aware: campaign shard reports (of either
  matrix shape) recombine into the unsharded run digest, and
  ablation-shaped merges reduce the frontier too,
- ``KIND`` = ``spec KIND`` + ``run``: the ``campaign``/``ablate``/
  ``ablate-refine`` subcommands take exactly the flags of ``spec KIND``
  plus those of ``run``, build the same spec, and run it through the same
  facade and output tail — flag-driven and spec-driven runs are
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
from contextlib import contextmanager, nullcontext
from dataclasses import replace

from repro.campaign import (
    Experiment,
    ExperimentError,
    ExperimentSpec,
    FAMILY_NAMES,
    ablate_spec,
    campaign_spec,
    merge_reports_any,
    reduce_frontier,
    refine_spec,
    report_from_json,
    shared_cache,
)
from repro.campaign.ablation import (
    ABLATION_FAMILIES,
    DEFAULT_TOL,
    FrontierReport,
)
from repro.campaign.ablation.grid import parse_graph_family
from repro.campaign.experiment import PRIMARY_KINDS, refine_stage
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
from repro.parties.strategies import halt_at
from repro.protocols.base_broker import BaseBrokerDeal
from repro.protocols.base_multi_party import BaseMultiPartySwap
from repro.protocols.base_two_party import BaseTwoPartySwap
from repro.protocols.instance import execute
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


def _parse_graph(text: str):
    parsed = parse_graph_family(text)
    if parsed is None:
        raise SystemExit(f"unknown graph {text!r}: use figure3, ring:N, or complete:N")
    return parsed[0]


#: protocol subcommand -> (help, takes --hedged/--base, outcome extractor,
#: builder from the parsed flags).
PROTOCOLS = {
    "two-party": (
        "two-party atomic swap (§5)", True, extract_two_party_outcome,
        lambda a: HedgedTwoPartySwap() if a.hedged else BaseTwoPartySwap(),
    ),
    "multi-party": (
        "multi-party swap (§7)", True, extract_multi_party_outcome,
        lambda a: HedgedMultiPartySwap(graph=_parse_graph(a.graph), premium=a.premium)
        if a.hedged else BaseMultiPartySwap(graph=_parse_graph(a.graph)),
    ),
    "broker": (
        "brokered deal (§8)", True, extract_broker_outcome,
        lambda a: HedgedBrokerDeal(premium=a.premium) if a.hedged else BaseBrokerDeal(),
    ),
    "deal": (
        "multi-round resale chain (§8.2 extension)", False, extract_deal_outcome,
        lambda a: MultiRoundDeal(
            DealSpec(brokers=tuple(f"Broker{i + 1}" for i in range(a.brokers))),
            premium=a.premium,
        ),
    ),
    "auction": (
        "ticket auction (§9)", False, extract_auction_outcome,
        lambda a: (SealedBidAuction if a.sealed else HedgedAuction)(
            strategy=AuctioneerStrategy(a.strategy)
        ),
    ),
    "bootstrap": (
        "bootstrapped swap (§6)", False, extract_bootstrap_outcome,
        lambda a: BootstrappedSwap(BootstrapSpec(
            amount_a=a.value, amount_b=a.value, rate=a.rate, rounds=a.rounds
        )),
    ),
}


def cmd_protocol(args) -> None:
    _, _, extract, make = PROTOCOLS[args.command]
    instance = make(args).build()
    result = execute(instance, _parse_deviations(args.deviate))
    print(render_timeline(result) if args.timeline else render_lanes(result, width=args.width))
    print()
    print("outcome:", extract(instance, result))


#: check protocol -> (builder from the parsed flags, the protocol's
#: properties beyond no-stuck-escrow, strategy space for a horizon).
CHECKS = {
    "two-party": (
        lambda a: HedgedTwoPartySwap(), [props.two_party_hedged],
        lambda horizon: full_strategy_space(
            horizon, ("deposit_premium", "escrow_principal", "redeem")
        ),
    ),
    "multi-party": (
        lambda a: HedgedMultiPartySwap(graph=_parse_graph(a.graph)),
        [props.multi_party_lemmas], halt_strategies,
    ),
    "broker": (lambda a: HedgedBrokerDeal(), [props.broker_bounds], halt_strategies),
    "auction": (lambda a: HedgedAuction(), [props.auction_lemmas], halt_strategies),
}


def cmd_check(args) -> None:
    make, properties, space = CHECKS[args.protocol]
    build = lambda: make(args).build()
    instance = build()
    strategies = space(instance.horizon)
    report = ModelChecker(
        builder=build,
        properties=[props.no_stuck_escrow, *properties],
        strategies={party: strategies for party in instance.actors},
        max_adversaries=args.adversaries,
    ).run()
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


def _expect_digest(args, label: str, digest: str) -> None:
    if args.expect and digest != args.expect:
        raise SystemExit(f"digest mismatch: {label} {digest} != expected {args.expect}")


def _write_json(path: str, text: str, label: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"{label} written to {path}")


def _open_cache(args):
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


@contextmanager
def _observed(args):
    """The --trace/--progress wiring shared by every engine subcommand.

    Yields ``(tracer, progress)``: a :class:`repro.obs.Tracer` writing a
    JSONL sink when ``--trace FILE`` was given (closed on exit, and
    recording this process's cycle-collector pauses while open; see
    :func:`repro.obs.gc_pauses`), and a throttled stderr progress callback
    for ``--progress``.  Telemetry is digest-inert — a traced run
    reproduces the untraced digests byte-identically (CI's trace-smoke
    job asserts it).
    """
    trace_path = getattr(args, "trace", None)
    tracer = None
    pauses = nullcontext()
    if trace_path:
        from repro.obs import Tracer, TraceWriter, gc_pauses

        try:
            tracer = Tracer(TraceWriter(trace_path))
        except OSError as err:
            raise SystemExit(f"error opening trace file {trace_path}: {err}")
        pauses = gc_pauses(tracer)
    try:
        with pauses:
            yield tracer, _progress_printer() if getattr(args, "progress", False) else None
    finally:
        if tracer is not None:
            tracer.close()
    if trace_path:
        print(f"trace written to {trace_path} "
              f"(summarize with: python -m repro.obs summarize {trace_path})")


def _spec_from_args(kind: str, args) -> ExperimentSpec:
    """One spec constructor behind ``spec KIND`` and the ``KIND`` alias."""
    backend = "pooled" if args.pooled else args.backend
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
            engine=args.engine,
        )
        if kind == "ablate":
            return ablate_spec(shard=_parse_shard(args.shard), **grid)
        return refine_spec(tol=args.tol, **grid)
    except (ValueError, ExperimentError) as err:
        raise SystemExit(f"error: {err}")


def _print_campaign_report(report, tables: bool = True) -> None:
    print(report.summary())
    if tables:
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
    # the hit-rate note beside the digest is never hashed into it
    note = (
        f" (cache hit-rate {report.cache_hit_rate:.0%}, "
        f"{report.cache_hits}/{report.scenarios})"
        if report.cache_hits
        else ""
    )
    print(f"run digest: {report.run_digest}{note}")
    for index, violation in enumerate(report.violations[:20]):
        print(f"  {violation.scenario}: {violation.message}")
        if violation.trace and index == 0:
            print("    " + violation.trace.replace("\n", "\n    "))


#: (report kind, output flag, written label, digest label) of every
#: artifact an experiment route can print or write.
_ARTIFACTS = (
    ("campaign", "out", "report", None),
    ("frontier", "frontier_out", "frontier", "frontier digest"),
    ("refined-frontier", "refined_out", "refined frontier", "refined digest"),
)


def _emit(args, reports, primary_kind: str) -> None:
    """The output tail of every experiment route (``run``, each ``KIND``
    alias, ``merge``, ``ablate-refine --from``).

    Prints each reduced report, writes the requested artifacts, exits 1
    on violations, refuses an output flag or ``--expect`` the run's
    coverage cannot back, and checks ``--expect`` against the digest of
    ``primary_kind``.
    """
    produced = {type(report).kind: report for report in reports}
    for kind, flag, label, digest_label in _ARTIFACTS:
        report = produced.get(kind)
        if report is None:
            continue
        if digest_label is not None:
            print()
            print(report.summary())
            print(report.table())
            print(f"{digest_label}: {report.digest}")
        if getattr(args, flag, None):
            _write_json(getattr(args, flag), report.to_json(), label)
    campaign = produced.get("campaign")
    if campaign is not None and not campaign.ok:
        raise SystemExit(1)
    unmet = [
        "--" + flag.replace("_", "-")
        for kind, flag, _, _ in _ARTIFACTS
        if getattr(args, flag, None) and kind not in produced
    ]
    if args.expect and primary_kind not in produced:
        unmet.append("--expect")
    if unmet:
        raise SystemExit(
            f"error: selection {campaign.selection} cannot honor "
            f"{'/'.join(unmet)} — the run produced only {', '.join(produced)}; "
            "frontier reduction needs an ablation grid at full coverage "
            "(merge all shards with the merge subcommand)"
        )
    if campaign is not None and "frontier" not in produced and "pi" in campaign.by_axis:
        print(
            f"selection {campaign.selection}: frontier reduction needs full "
            "coverage — merge all shards with the merge subcommand"
        )
    if args.expect:
        _expect_digest(args, primary_kind, produced[primary_kind].digest)


def _run_spec(spec: ExperimentSpec, args) -> None:
    """The one route behind ``run`` and every ``KIND`` alias: build and
    list the matrix, run the facade, then hand the reports to
    :func:`_emit`."""
    print(f"spec: kind={spec.kind} digest={spec.digest()[:16]} "
          f"backend={spec.backend}")
    cache = _open_cache(args)
    try:
        matrix = spec.matrix.build()
    except (KeyError, ValueError) as err:
        raise SystemExit(f"error: {err}")
    sizes = matrix.block_sizes()
    print(
        f"{'matrix' if spec.kind == 'campaign' else 'ablation grid'}: "
        f"{len(matrix)} scenarios over {len(sizes)} families "
        f"(seed={matrix.seed}, digest={matrix.digest()[:16]})"
    )
    for family, size in sizes.items():
        print(f"  {family:<14} {size:>6}")
    if args.list:
        return
    with _observed(args) as (tracer, progress):
        try:
            result = Experiment(
                spec, cache=cache, matrix=matrix, tracer=tracer, progress=progress
            ).run()
        except (ValueError, RuntimeError) as err:
            # ValueError includes ExperimentError; RuntimeError: a
            # bisection probe violated a protocol property
            raise SystemExit(f"error: {err}")
    print()
    _print_campaign_report(result.campaign, tables=spec.kind == "campaign")
    _emit(args, result.reports, PRIMARY_KINDS[spec.kind])


# ----------------------------------------------------------------------
# experiment subcommands: spec / run / KIND / merge
# ----------------------------------------------------------------------
def cmd_spec(args) -> None:
    spec = _spec_from_args(args.kind, args)
    if args.expect:
        spec = replace(spec, expect=((PRIMARY_KINDS[args.kind], args.expect),))
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
    _run_spec(spec, args)


def cmd_kind(args) -> None:
    """``KIND`` = ``spec KIND`` + ``run`` (``ablate-refine --from`` aside)."""
    if getattr(args, "from_report", None):
        _refine_from_file(args)
    else:
        _run_spec(_spec_from_args(args.kind, args), args)


def _refine_from_file(args) -> None:
    """``ablate-refine --from FRONTIER.json``: refine a loaded lattice
    through the facade's refine stage instead of running the grid (the
    loaded frontier fixes the grid; the flags still pick the engine,
    tolerance, layout, cache and trace)."""
    defaults = vars(build_parser().parse_args(["ablate-refine"]))
    overridden = [
        "--" + dest.replace("_", "-")
        for dest in ("families", "premiums", "shocks", "stages", "coalitions",
                     "seed", "out", "frontier_out", "list")
        if getattr(args, dest) != defaults[dest]
    ]
    if overridden:
        raise SystemExit(
            f"error: {', '.join(overridden)} cannot be combined with "
            "--from — the loaded frontier already fixes the grid"
        )
    spec = _spec_from_args("ablate-refine", args)
    try:
        with open(args.from_report, "r", encoding="utf-8") as handle:
            frontier = FrontierReport.from_json(handle.read())
    except (OSError, ValueError) as err:
        raise SystemExit(f"error reading {args.from_report}: {err}")
    print(f"lattice frontier loaded from {args.from_report}")
    print(frontier.summary())
    cache = _open_cache(args)
    with _observed(args) as (tracer, _):
        try:
            refined, _ = refine_stage(spec, frontier, cache=cache, tracer=tracer)
        except (ValueError, RuntimeError) as err:
            # RuntimeError: a bisection probe violated a protocol property
            raise SystemExit(f"error: {err}")
    _emit(args, [refined], "refined-frontier")


def cmd_merge(args) -> None:
    reports = []
    for path in args.reports:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                reports.append(report_from_json(handle.read()))
        except (OSError, ValueError) as err:
            raise SystemExit(f"error reading {path}: {err}")
    try:
        merged = merge_reports_any(reports)
        reduced = [merged]
        if merged.complete and "pi" in merged.by_axis:
            reduced.append(reduce_frontier(merged))
    except ValueError as err:
        raise SystemExit(f"error: {err}")
    _print_campaign_report(merged)
    _emit(args, reduced, type(reduced[-1]).kind)
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


def cmd_quote(args) -> None:
    from repro.quote import QuoteEngine, QuoteRequest

    with _observed(args) as (tracer, _):
        request = QuoteRequest(
            family=args.family or "", graph=args.graph or "",
            coalition=args.coalition or "", shock=args.shock,
            stage=args.stage, tol=args.tol, seed=args.seed,
        )
        engine = QuoteEngine(cache=_open_cache(args), tracer=tracer)
        quote = engine.quote(request, tiers=_tiers_from_args(args))
    print(f"request digest: {request.digest()}")
    _print_quote(quote)
    if args.out:
        _write_json(args.out, quote.to_json(), "quote")
    _expect_digest(args, "quote", quote.digest())


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
    with _observed(args) as (tracer, progress):
        engine = QuoteEngine(cache=_open_cache(args), tracer=tracer)
        quotes = quote_batch(
            engine, requests, tiers=_tiers_from_args(args), progress=progress
        )
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
    _expect_digest(args, "batch", digest)


def _obs_flags(p) -> None:
    """--trace/--progress: the digest-inert telemetry layer."""
    p.add_argument("--trace", default=None, metavar="FILE.jsonl",
                   help="write a JSONL span/counter trace of the run "
                        "(inspect with python -m repro.obs summarize); "
                        "digests are byte-identical with or without it")
    p.add_argument("--progress", action="store_true",
                   help="stream scenarios done/total + ETA to stderr")


def _expect_flag(p, what: str) -> None:
    p.add_argument("--expect", default=None, metavar="DIGEST",
                   help=f"exit non-zero unless the {what} digest matches")


def _grid_flags(p, families, shard: bool = True) -> None:
    """The flags every experiment kind shares: the family subset, seed,
    selection, and the execution layout a spec records."""
    p.add_argument("--families", default="all",
                   help="comma-separated subset of " + ",".join(families))
    p.add_argument("--seed", type=int, default=0,
                   help="matrix identity seed")
    if shard:
        p.add_argument("--shard", default=None, metavar="I/N",
                       help="run the I-th of N contiguous slices of the "
                            "selection")
    p.add_argument("--backend", choices=["serial", "process"],
                   default="serial")
    p.add_argument("--pooled", action="store_true",
                   help="run through a persistent WorkerPool "
                        "(implies process)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size")


def _campaign_flags(p) -> None:
    _grid_flags(p, FAMILY_NAMES)
    p.add_argument("--limit", type=int, default=None,
                   help="run exactly min(N, total) scenarios, stratified "
                        "by block (every family covered when N >= block "
                        "count)")
    p.add_argument("--adversaries", type=int, default=None,
                   help="override max simultaneous adversaries per family")


def _ablate_flags(p, shard: bool = True) -> None:
    _grid_flags(p, ABLATION_FAMILIES, shard)
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
                   help="scenario engine: the payoff kernels "
                        "(default; byte-identical digests) or the full "
                        "simulator audit path")


def _refine_flags(p) -> None:
    _ablate_flags(p, shard=False)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="bisection tolerance on the premium fraction "
                        f"(default {DEFAULT_TOL} = 1/64)")


def _run_flags(p) -> None:
    """What ``run`` adds to a spec: cache, outputs, --list, telemetry and
    the --expect check."""
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="incremental result cache: serve already-"
                        "verified scenario blocks from this store")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the campaign report as JSON (for merge)")
    p.add_argument("--frontier-out", default=None, metavar="PATH",
                   help="write the reduced frontier as JSON")
    p.add_argument("--refined-out", default=None, metavar="PATH",
                   help="write the refined frontier as JSON")
    p.add_argument("--list", action="store_true",
                   help="print the matrix breakdown and exit")
    _obs_flags(p)
    _expect_flag(p, "primary report")


#: experiment kind -> (``spec KIND`` help, ``KIND`` alias help, the
#: kind's own flags).
KINDS = {
    "campaign": ("spec for the adversarial campaign",
                 "batched adversarial scenario matrix", _campaign_flags),
    "ablate": ("spec for the ablation lattice",
               "map the rational-adversary deviation-profitability frontier",
               _ablate_flags),
    "ablate-refine": ("spec for the bisected frontier",
                      "bisect the frontier between lattice points to a "
                      "continuous pi*", _refine_flags),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hedged cross-chain transaction protocols (Xue-Herlihy PODC'21)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    protocol = {}
    for name, (help_text, hedgeable, _, _) in PROTOCOLS.items():
        p = protocol[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--deviate", action="append", metavar="NAME@ROUND",
                       help="halt a party from a round on (repeatable)")
        p.add_argument("--timeline", action="store_true", help="flat timeline output")
        p.add_argument("--width", type=int, default=36, help="lane width")
        if hedgeable:
            group = p.add_mutually_exclusive_group()
            group.add_argument("--hedged", dest="hedged", action="store_true", default=True)
            group.add_argument("--base", dest="hedged", action="store_false",
                               help="run the unhedged base protocol")
        p.set_defaults(func=cmd_protocol)
    protocol["multi-party"].add_argument(
        "--graph", default="figure3", help="figure3 | ring:N | complete:N"
    )
    for name in ("multi-party", "broker", "deal"):
        protocol[name].add_argument("--premium", type=int, default=1)
    protocol["deal"].add_argument("--brokers", type=int, default=2,
                                  help="chain length r")
    protocol["auction"].add_argument("--strategy", default="honest",
                                     choices=[s.value for s in AuctioneerStrategy])
    protocol["auction"].add_argument("--sealed", action="store_true",
                                     help="commit-reveal bids")
    protocol["bootstrap"].add_argument("--value", type=int, default=1_000_000)
    protocol["bootstrap"].add_argument("--rate", type=int, default=100)
    protocol["bootstrap"].add_argument("--rounds", type=int, default=3)

    p = sub.add_parser("check", help="run the model checker")
    p.add_argument("protocol", choices=list(CHECKS))
    p.add_argument("--graph", default="figure3")
    p.add_argument("--adversaries", type=int, default=1)
    p.set_defaults(func=cmd_check)

    # ------------------------------------------------------------------
    # experiments: spec / run / merge, and KIND = spec KIND + run
    # ------------------------------------------------------------------
    p = sub.add_parser(
        "spec",
        help="emit a declarative ExperimentSpec JSON from engine flags",
    )
    spec_sub = p.add_subparsers(dest="spec_kind", required=True)
    for kind, (spec_help, _, kind_flags) in KINDS.items():
        sp = spec_sub.add_parser(kind, help=spec_help)
        kind_flags(sp)
        sp.add_argument("--out", default=None, metavar="SPEC.json",
                        help="write the spec here (default: stdout)")
        _expect_flag(sp, "primary report")
        sp.set_defaults(func=cmd_spec, kind=kind)

    p = sub.add_parser(
        "run",
        help="run an ExperimentSpec (any engine, one entry point)",
    )
    p.add_argument("spec", metavar="SPEC.json",
                   help="an experiment spec written by the spec subcommand")
    _run_flags(p)
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
    _expect_flag(p, "merged primary (run or frontier)")
    p.set_defaults(func=cmd_merge)

    for kind, (_, alias_help, kind_flags) in KINDS.items():
        p = sub.add_parser(kind, help=alias_help + f" (= spec {kind} + run)")
        kind_flags(p)
        _run_flags(p)
        p.set_defaults(func=cmd_kind, kind=kind)
        if kind == "ablate-refine":
            p.add_argument("--from", dest="from_report", default=None,
                           metavar="FRONTIER.json",
                           help="refine an existing frontier (written by "
                                "ablate --frontier-out or merge) instead of "
                                "running the lattice grid")

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
        _obs_flags(p)

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
    _expect_flag(p, "quote")
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
    _expect_flag(p, "batch")
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
