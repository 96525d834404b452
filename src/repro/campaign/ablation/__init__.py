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

from repro.campaign.ablation.frontier import (
    FrontierCell,
    FrontierReport,
    FrontierRow,
    reduce_frontier,
)
from repro.campaign.ablation.grid import (
    ABLATION_COALITIONS,
    ABLATION_FAMILIES,
    DEFAULT_PREMIUM_FRACTIONS,
    DEFAULT_SHOCK_FRACTIONS,
    DEFAULT_STAGES,
    AblationGrid,
    ablation_cell,
    ablation_matrix,
    ablation_matrix_spec,
    closed_form_pi_star,
    deterrence_stake,
    is_graph_family,
    parse_graph_family,
    premium_base,
    shocked_notional,
)
from repro.campaign.ablation.kernels import (
    KERNEL_FACTORIES,
    KernelEngine,
    KernelUnsupported,
)
from repro.campaign.ablation.refine import (
    DEFAULT_TOL,
    EXPAND_CEILING,
    RefinedFrontierReport,
    RefinedRow,
    refine_frontier,
    refined_row_from_payload,
    refined_row_payload,
)
from repro.campaign.ablation.rowstore import (
    load_row,
    row_descriptor,
    row_key,
    store_refined_rows,
    store_row,
)

__all__ = [
    "ABLATION_COALITIONS",
    "ABLATION_FAMILIES",
    "AblationGrid",
    "DEFAULT_PREMIUM_FRACTIONS",
    "DEFAULT_SHOCK_FRACTIONS",
    "DEFAULT_STAGES",
    "DEFAULT_TOL",
    "EXPAND_CEILING",
    "FrontierCell",
    "FrontierReport",
    "FrontierRow",
    "KERNEL_FACTORIES",
    "KernelEngine",
    "KernelUnsupported",
    "RefinedFrontierReport",
    "RefinedRow",
    "ablation_cell",
    "ablation_matrix",
    "ablation_matrix_spec",
    "closed_form_pi_star",
    "deterrence_stake",
    "is_graph_family",
    "load_row",
    "parse_graph_family",
    "premium_base",
    "reduce_frontier",
    "refine_frontier",
    "refined_row_from_payload",
    "refined_row_payload",
    "row_descriptor",
    "row_key",
    "shocked_notional",
    "store_refined_rows",
    "store_row",
]
