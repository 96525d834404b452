"""Rational-adversary ablations: the deviation-profitability frontier.

The campaign engine asks whether *named* adversary strategies can hurt a
compliant party; this subsystem asks the complementary economic question —
**when does deviating pay?**  The paper's central quantitative claim (§5.2)
is that a hedged premium of fraction π makes walking away irrational for
any relative price drop smaller than π; here that claim becomes an
executable grid:

- :mod:`~repro.campaign.ablation.grid` crosses protocol families with
  utility-driven pivots (`repro.parties.rational`) over premium fractions
  × shock sizes × shock stages.  Each cell runs a *comply* and a
  *rational* arm as ordinary campaign scenarios, with digest-covered
  metrics recording completion and the pivot's realized utility at
  post-shock prices.  :func:`ablation_matrix` is a registered worker-pool
  factory, so the grid runs through the serial backend and a
  :class:`~repro.campaign.pool.WorkerPool` opened per run or reused
  alike — and shards/merges with the standard campaign transport,
- :mod:`~repro.campaign.ablation.frontier` reduces the campaign report to
  a :class:`FrontierReport`: per (family, coalition, stage, shock) the
  smallest swept premium ``pi_star`` at which the rational pivot (or
  pivot coalition; ``""`` is the single pivot) completes, plus each
  cell's measured deviation gain and victim compensation.

**Frontier semantics.**  ``pi_star`` is a *measured* quantity — the pivot
walks exactly when its live walk-forfeit (premium stake plus abandoned
escrows) is smaller than the shocked value drop — so at the ``staked``
stage it reproduces the closed-form thresholds (two-party: π itself;
other families: the stake :func:`~repro.campaign.ablation.grid.deterrence_stake`
computes from the paper's premium equations).  At the ``pre-stake`` stage
nothing is forfeit, walking is always rational, and every row reports
``pi_star = None`` — premiums deter only staked parties, which is itself a
statement of the paper's model.

**Digest rules.**  The frontier digest hashes the underlying campaign
``run_digest`` (which already binds the matrix identity and the effective
limit/shard selection) plus coverage and every cell in canonical order.
Serial, pooled, and sharded-then-merged runs of the same grid therefore
produce byte-identical frontier digests, and a partial run can never
masquerade as full coverage.
"""

from repro import lazy_exports

lazy_exports(globals(), {
    "DEFAULT_TOL": "repro.campaign.ablation.bounds",
    "EXPAND_CEILING": "repro.campaign.ablation.bounds",
    "FrontierCell": "repro.campaign.ablation.frontier",
    "FrontierReport": "repro.campaign.ablation.frontier",
    "FrontierRow": "repro.campaign.ablation.frontier",
    "reduce_frontier": "repro.campaign.ablation.frontier",
    "ABLATION_COALITIONS": "repro.campaign.ablation.grid",
    "ABLATION_FAMILIES": "repro.campaign.ablation.grid",
    "DEFAULT_PREMIUM_FRACTIONS": "repro.campaign.ablation.grid",
    "DEFAULT_SHOCK_FRACTIONS": "repro.campaign.ablation.grid",
    "DEFAULT_STAGES": "repro.campaign.ablation.grid",
    "AblationGrid": "repro.campaign.ablation.grid",
    "ablation_cell": "repro.campaign.ablation.grid",
    "ablation_matrix": "repro.campaign.ablation.grid",
    "ablation_matrix_spec": "repro.campaign.ablation.grid",
    "closed_form_pi_star": "repro.campaign.ablation.grid",
    "deterrence_stake": "repro.campaign.ablation.grid",
    "is_graph_family": "repro.campaign.ablation.grid",
    "parse_graph_family": "repro.campaign.ablation.grid",
    "premium_base": "repro.campaign.ablation.grid",
    "shocked_notional": "repro.campaign.ablation.grid",
    "KERNEL_FACTORIES": "repro.campaign.runner",
    "KernelEngine": "repro.campaign.ablation.kernels",
    "KernelUnsupported": "repro.campaign.ablation.kernels",
    "RefinedFrontierReport": "repro.campaign.ablation.refine",
    "RefinedRow": "repro.campaign.ablation.refine",
    "refine_frontier": "repro.campaign.ablation.refine",
    "load_row": "repro.campaign.ablation.rowstore",
    "row_descriptor": "repro.campaign.ablation.rowstore",
    "row_key": "repro.campaign.ablation.rowstore",
    "store_refined_rows": "repro.campaign.ablation.rowstore",
    "store_row": "repro.campaign.ablation.rowstore",
})
