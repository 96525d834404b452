"""Batched adversarial scenario campaigns.

The campaign engine is the scale substrate the ROADMAP asks for: it turns
the paper's "a hedged compliant party is compensated at *every* deviation
point" claim into something executable at thousands-of-scenarios scale.

- :mod:`repro.campaign.scenario` — one scenario = one full deterministic
  simulation (builder + adversary profile + properties) condensed into a
  picklable :class:`ScenarioResult` with a stable content digest,
- :mod:`repro.campaign.matrix` — :class:`ScenarioMatrix` expands axes
  (protocol family × premium/timeout schedule × adversary subset × named
  strategy × deviation round) into scenario specs in a deterministic order,
- :mod:`repro.campaign.runner` — :class:`CampaignRunner` executes a matrix
  (or one ``shard=(i, n)`` slice of it) through a pluggable serial or
  ``multiprocessing`` backend and aggregates per-axis violation counts,
  payoff distributions, throughput, and a reproducible run digest whose
  preamble records the effective selection; :func:`merge_reports`
  recombines shard reports into the byte-identical unsharded digest,
- :mod:`repro.campaign.pool` — :class:`WorkerPool`, the process backend's
  fork pool, opened per run or kept across runs and fed by picklable
  :class:`MatrixSpec` rebuild recipes,
- :mod:`repro.campaign.families` — the registry of protocol families
  (two-party, multi-party, broker, auction, sealed-auction, bootstrap)
  with their default adversary spaces and premium/timeout/graph schedules;
  :func:`default_matrix` builds the standard all-families campaign,
- :mod:`repro.campaign.ablation` — the rational-adversary ablation engine:
  :func:`ablation_matrix` crosses families with utility-driven pivots
  (single and coalition) over premium fractions × price shocks × shock
  stages (named, per-round, or the dense ``all`` sweep),
  :func:`reduce_frontier` reduces the resulting report into the
  deviation-profitability frontier (the measured π-threshold of §5.2), and
  :func:`refine_frontier` bisects between lattice points — via
  :func:`ablation_cell` probe matrices — for a continuous π* that
  brackets the closed forms.

``repro.checker.ModelChecker`` is a thin client of this package: profile
enumeration, execution, and property evaluation all live here.
"""

from repro import lazy_exports

lazy_exports(globals(), {
    "ScenarioMatrix": "repro.campaign.matrix",
    "enumerate_profiles": "repro.campaign.matrix",
    "MatrixSpec": "repro.campaign.pool",
    "WorkerPool": "repro.campaign.pool",
    "register_matrix_factory": "repro.campaign.pool",
    "ResultCache": "repro.campaign.cache",
    "code_version": "repro.campaign.cache",
    "shared_cache": "repro.campaign.cache",
    "Report": "repro.campaign.report",
    "merge_reports_any": "repro.campaign.report",
    "register_report": "repro.campaign.report",
    "registered_report_kinds": "repro.campaign.report",
    "report_from_json": "repro.campaign.report",
    "CampaignReport": "repro.campaign.runner",
    "CampaignRunner": "repro.campaign.runner",
    "ScenarioViolation": "repro.campaign.runner",
    "merge_reports": "repro.campaign.runner",
    "Scenario": "repro.campaign.scenario",
    "ScenarioResult": "repro.campaign.scenario",
    "run_scenario": "repro.campaign.scenario",
    "FAMILY_NAMES": "repro.campaign.families",
    "default_matrix": "repro.campaign.families",
    "default_matrix_spec": "repro.campaign.families",
    "AblationGrid": "repro.campaign.ablation.grid",
    "ablation_cell": "repro.campaign.ablation.grid",
    "ablation_matrix": "repro.campaign.ablation.grid",
    "FrontierReport": "repro.campaign.ablation.frontier",
    "reduce_frontier": "repro.campaign.ablation.frontier",
    "KernelEngine": "repro.campaign.ablation.kernels",
    "KernelUnsupported": "repro.campaign.ablation.kernels",
    "RefinedFrontierReport": "repro.campaign.ablation.refine",
    "refine_frontier": "repro.campaign.ablation.refine",
    "EXPERIMENT_KINDS": "repro.campaign.experiment",
    "Experiment": "repro.campaign.experiment",
    "ExperimentError": "repro.campaign.experiment",
    "ExperimentResult": "repro.campaign.experiment",
    "ExperimentSpec": "repro.campaign.experiment",
    "ablate_spec": "repro.campaign.experiment",
    "campaign_spec": "repro.campaign.experiment",
    "refine_spec": "repro.campaign.experiment",
})
