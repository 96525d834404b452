"""Frontier refinement: bisect the deterrence threshold between lattice points.

The lattice frontier (:func:`~repro.campaign.ablation.frontier.reduce_frontier`)
measures π* only on the swept premium fractions, so the reported threshold
is a *staircase*: the true boundary lies somewhere between the last
premium that still walked and the first that deterred.
:func:`refine_frontier` closes that gap by adaptive bisection:

- per frontier row (single pivot or coalition alike: one
  :class:`~repro.campaign.ablation.frontier.FrontierRow` type whose
  ``coalition`` field is ``""`` for the single pivot) it takes the
  measured bracket ``[last walking π, first deterring π]`` from the
  lattice cells,
- repeatedly probes the midpoint by running a two-scenario
  :func:`~repro.campaign.ablation.grid.ablation_cell` matrix — through the
  serial backend or a persistent :class:`~repro.campaign.pool.WorkerPool`
  (each probe cell is a registered pool factory, digest-audited
  worker-side like any campaign),
- narrows until ``hi − lo ≤ tol`` (default :data:`DEFAULT_TOL`, 1/64 of
  the premium fraction) and reports ``pi_star`` as the bracket midpoint.

The refined π* therefore sits within ``tol/2`` of the *measured* walk
boundary, which itself sits within half a premium quantization unit
(``0.5 / premium_base``) of the §5.2 closed form
(:func:`~repro.campaign.ablation.grid.closed_form_pi_star`) — so with the
default tolerance the refined threshold brackets the closed form for all
four families.

Rows with no lattice bracket refine too, where possible: when the
*smallest* swept premium already deters, the engine opens the bracket at
π = 0 with one extra probe; when the lattice *ceiling* still walks the
engine extends the bracket **upward by doubling** — probing 2·π, 4·π, …
up to :data:`EXPAND_CEILING` — and bisects as soon as a probe deters, so
a boundary that merely sits above the swept grid (e.g. two-party at
s = 0.105 with premiums ≤ 0.08) refines instead of carrying through
unrefined.  Only a row no probed premium deters (every ``pre-stake`` row,
or a coalition rent no premium hedges — see
:func:`~repro.campaign.ablation.grid.closed_form_pi_star`)
reports ``pi_hi = None`` — undeterred is a result, not an error.

**Digest rules.**  The refined digest hashes the input frontier digest
(which already binds matrix identity, run digest, and coverage), the
tolerance, and — per row — the bracket endpoints plus every probe cell's
outcome *and* the probe campaign's own run digest.  Bisection is
deterministic (same bracket → same midpoints → same probe matrices), and
probe run digests are backend-independent, so a refined frontier is
byte-identical whether the lattice came from a serial, pooled, or
sharded-then-merged run and whether the probes ran serially or pooled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from hashlib import sha256
from typing import Iterable

from repro import codec
from repro.campaign.canon import canon_float, canon_opt, fmt_fraction
from repro.campaign.report import load_payload, register_report
from repro.campaign.ablation.frontier import (
    FrontierCell,
    FrontierReport,
    FrontierRow,
    cells_from_json,
    cells_to_json,
    reduce_frontier,
)
from repro.campaign.ablation.grid import ablation_cell

#: default bisection tolerance on the premium fraction: 1/64.
DEFAULT_TOL = 0.015625

#: hard cap on probes per row (the default tol needs at most a handful).
MAX_ITERATIONS = 32

#: largest premium fraction the upward-doubling expansion will probe: the
#: full principal.  A row still walking at π = 1 forfeits a premium the
#: size of the trade itself — undeterrable in any economically meaningful
#: sense (pre-stake rows, the broker coalition's markup rent).
EXPAND_CEILING = 1.0

#: the finest tol a bisection can promise: MAX_ITERATIONS halvings of the
#: widest starting bracket, [0, EXPAND_CEILING].  The floor does not come
#: from a family's premium quantum (the auction's 1/60 sits above the
#: default tol): bisection narrows on π, not on the integer premium.
MIN_TOL = EXPAND_CEILING / 2**MAX_ITERATIONS


@dataclass(frozen=True)
class ProbeCell(FrontierCell):
    """One bisection probe: a measured cell plus its provenance."""

    run_digest: str = field(kw_only=True)

    def describe(self) -> str:
        return f"probe|{super().describe()}|run={self.run_digest}"


@dataclass(frozen=True)
class RefinedRow:
    """One frontier row after bisection.

    ``pi_lo`` is the largest premium fraction measured to walk, ``pi_hi``
    the smallest measured to deter (``None`` when nothing swept or probed
    deters), and ``pi_star`` the midpoint of the final bracket — the
    refined deterrence threshold.  ``lattice_lo``/``lattice_hi`` record
    the bracket the lattice supplied, so the report shows how much the
    staircase overstated the threshold.
    """

    family: str
    stage: str
    shock: float
    coalition: str
    lattice_lo: float | None
    lattice_hi: float | None
    pi_lo: float | None
    pi_hi: float | None
    pi_star: float | None
    iterations: int
    converged: bool
    probes: tuple[ProbeCell, ...]

    @property
    def deterred(self) -> bool:
        return self.pi_hi is not None

    @property
    def bracket_width(self) -> float | None:
        if self.pi_lo is None or self.pi_hi is None:
            return None
        return self.pi_hi - self.pi_lo

    def payload(self) -> dict:
        """The row's JSON object, as a refined frontier embeds it and the
        quote row store files it; probes leave out the row's coordinates."""
        return cells_to_json(codec.encode(self), "probes")

    @classmethod
    def from_payload(cls, data) -> "RefinedRow":
        """The inverse of :meth:`payload`."""
        return codec.decode(cls, cells_from_json(data, "probes"))


@register_report("refined-frontier")
@dataclass(frozen=True)
class RefinedFrontierReport:
    """The bisected frontier plus its reproducibility digest.

    A registered :class:`~repro.campaign.report.Report` of kind
    ``"refined-frontier"``; like the lattice frontier it is a reduced
    artifact, so ``merge`` raises with guidance.
    """

    base_digest: str
    tol: float
    rows: tuple[RefinedRow, ...]
    digest: str = ""

    def row(
        self, family: str, stage: str, shock: float, coalition: str = ""
    ) -> RefinedRow:
        for candidate in self.rows:
            key = (candidate.family, candidate.stage, candidate.shock,
                   candidate.coalition)
            if key == (family, stage, shock, coalition):
                return candidate
        raise KeyError(
            f"no refined row ({family}, {stage}, {shock}, {coalition!r})"
        )

    @property
    def probes(self) -> int:
        return sum(len(row.probes) for row in self.rows)

    def summary(self) -> str:
        refined = sum(1 for row in self.rows if row.converged)
        deterred = sum(1 for row in self.rows if row.deterred)
        return (
            f"refined frontier: {len(self.rows)} rows, {refined} converged to "
            f"tol={fmt_fraction(self.tol)} via {self.probes} bisection probes, "
            f"{deterred} deterred"
        )

    def table(self) -> str:
        lines = [
            f"{'family':<12} {'pivot':<14} {'stage':<10} {'shock':>7}  "
            f"{'lattice pi*':>11}  {'refined pi*':>11}  {'bracket':>19}  probes"
        ]
        for row in self.rows:
            bracket = (
                f"[{fmt_fraction(row.pi_lo)}, {fmt_fraction(row.pi_hi)}]"
                if row.pi_lo is not None and row.pi_hi is not None
                else "-"
            )
            lines.append(
                # fmt_fraction, not %g: printed axes must read exactly
                # like the digest-covered labels (see FrontierReport.table).
                f"{row.family:<12} {row.coalition or 'pivot':<14} "
                f"{row.stage:<10} {fmt_fraction(row.shock):>7}  "
                f"{'-' if row.lattice_hi is None else fmt_fraction(row.lattice_hi):>11}  "
                f"{'-' if row.pi_star is None else fmt_fraction(row.pi_star):>11}  "
                f"{bracket:>19}  {len(row.probes)}"
            )
        return "\n".join(lines)

    @classmethod
    def merge(
        cls, reports: "Iterable[RefinedFrontierReport]"
    ) -> "RefinedFrontierReport":
        raise ValueError(
            "refined frontiers are reduced artifacts and do not merge: "
            "merge the underlying campaign shard reports, reduce the "
            "frontier, and refine the result instead"
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        data = {"kind": self.kind, **codec.encode(self)}
        data["rows"] = [cells_to_json(row, "probes") for row in data["rows"]]
        return json.dumps(data, indent=None, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RefinedFrontierReport":
        data = load_payload(cls, text)
        if isinstance(data.get("rows"), list):
            data["rows"] = [cells_from_json(row, "probes") for row in data["rows"]]
        stamped = codec.decode(cls, data)
        report = _with_digest(stamped)
        if report.digest != stamped.digest:
            raise ValueError(
                "refined-frontier digest mismatch after deserialization: "
                f"{report.digest[:16]} != {stamped.digest[:16]}"
            )
        return report


def _with_digest(report: RefinedFrontierReport) -> RefinedFrontierReport:
    digest = sha256(
        f"refined-frontier|base={report.base_digest}"
        f"|tol={fmt_fraction(report.tol)}".encode()
    )
    for row in report.rows:
        digest.update(b"\n")
        digest.update(
            f"row|{row.family}|{row.coalition}|{row.stage}"
            f"|{canon_float(row.shock)!r}"
            f"|lattice=[{canon_opt(row.lattice_lo)!r},{canon_opt(row.lattice_hi)!r}]"
            f"|bracket=[{canon_opt(row.pi_lo)!r},{canon_opt(row.pi_hi)!r}]"
            f"|pi_star={canon_opt(row.pi_star)!r}"
            f"|iterations={row.iterations}|converged={row.converged}".encode()
        )
        for probe in row.probes:
            digest.update(b"\n")
            digest.update(probe.describe().encode())
    return replace(report, digest=digest.hexdigest())


class _CellProber:
    """Runs single ablation cells through the backend its knobs imply.

    ``cache`` is the incremental result cache: each probe cell is one
    matrix block, so a warm refinement (or one following a lattice run
    that already executed the same cells) serves probes straight from the
    store.  ``cache_hits`` counts the scenarios so served.

    With a ``kernel`` engine probes run through the payoff kernels; the
    engine is shared across every probe, so the cell-template calibration
    cost is paid once per ``(family, coalition, premium)`` even though
    bisection probes arrive one premium at a time.  Otherwise a ``pool``
    runs them on the process backend, and with neither they run serially.
    """

    def __init__(
        self,
        pool=None,
        seed: int = 0,
        cache=None,
        kernel=None,
        tracer=None,
    ) -> None:
        from repro.campaign.runner import CampaignRunner

        self._runner_cls = CampaignRunner
        self.backend = (
            "kernel" if kernel is not None
            else "process" if pool is not None
            else "serial"
        )
        self.pool = pool
        self.seed = seed
        self.cache = cache
        self.kernel = kernel
        #: observability only (spans/counters around each probe run).
        self.tracer = tracer
        self.cache_hits = 0

    def probe(
        self, family: str, pi: float, shock: float, stage: str, coalition: str
    ) -> ProbeCell:
        matrix = ablation_cell(
            family, pi, shock, stage, coalition=coalition, seed=self.seed
        )
        report = self._runner_cls(
            matrix,
            backend=self.backend,
            pool=self.pool,
            cache=self.cache,
            kernel=self.kernel,
            tracer=self.tracer,
        ).run()
        self.cache_hits += report.cache_hits
        if not report.ok:
            raise RuntimeError(
                f"bisection probe ({family}, {pi}, {shock}, {stage}) violated "
                f"properties: {[v.message for v in report.violations]}"
            )
        (row,) = reduce_frontier(report).rows
        (cell,) = row.cells
        return ProbeCell(**vars(cell), run_digest=report.run_digest)


def _bracket(row) -> tuple[float | None, float | None]:
    """The lattice bracket: (largest walking π, smallest deterring π)."""
    walked = [cell.pi for cell in row.cells if cell.walked]
    deterring = [cell.pi for cell in row.cells if not cell.walked]
    lo = max(walked) if walked else None
    hi = min(deterring) if deterring else None
    return lo, hi


def refine_row(
    row: FrontierRow,
    prober: _CellProber,
    tol: float,
    max_iterations: int = MAX_ITERATIONS,
) -> RefinedRow:
    """Bisect one frontier row's walk/deter boundary down to ``tol``."""
    lattice_lo, lattice_hi = _bracket(row)
    lo, hi = lattice_lo, lattice_hi
    probes: list[ProbeCell] = []
    iterations = 0

    def run_probe(pi: float) -> bool:
        nonlocal iterations
        iterations += 1
        probe = prober.probe(row.family, pi, row.shock, row.stage, row.coalition)
        probes.append(probe)
        return probe.walked

    if hi is not None and lo is None and hi > 0.0:
        # The smallest swept premium already deters: open the bracket at
        # the unhedged baseline with one probe.
        if run_probe(0.0):
            lo = 0.0
        else:
            hi = 0.0  # even π = 0 deters this shock at this stage
    if hi is None and lo is not None and lo < EXPAND_CEILING:
        # The lattice ceiling still walks: extend the bracket upward by
        # doubling before bisecting, so a boundary that merely sits above
        # the swept grid refines instead of carrying through unrefined.
        # A row that walks all the way to EXPAND_CEILING is genuinely
        # undeterred (pre-stake rows, un-hedgeable coalition rent).
        probe_pi = lo * 2 if lo > 0.0 else tol
        while hi is None and iterations < max_iterations:
            pi = canon_float(min(probe_pi, EXPAND_CEILING))
            if pi <= lo:
                break
            if run_probe(pi):
                lo = pi
            else:
                hi = pi
            if pi >= EXPAND_CEILING:
                break
            probe_pi = pi * 2
    if lo is not None and hi is not None:
        while hi - lo > tol and iterations < max_iterations:
            mid = canon_float((lo + hi) / 2)
            if mid <= lo or mid >= hi:  # float exhaustion: bracket is exact
                break
            if run_probe(mid):
                lo = mid
            else:
                hi = mid

    if hi is None:
        pi_star = None  # undeterred at (and below) every measured premium
        converged = False
    elif hi == 0.0 or lo is None:
        pi_star = 0.0
        converged = True
    else:
        pi_star = canon_float((lo + hi) / 2)
        converged = hi - lo <= tol
    return RefinedRow(
        family=row.family,
        stage=row.stage,
        shock=canon_float(row.shock),
        coalition=row.coalition,
        lattice_lo=canon_opt(lattice_lo),
        lattice_hi=canon_opt(lattice_hi),
        pi_lo=canon_opt(lo),
        pi_hi=canon_opt(hi),
        pi_star=pi_star,
        iterations=iterations,
        converged=converged,
        probes=tuple(probes),
    )


def refine_frontier(
    frontier: FrontierReport,
    tol: float = DEFAULT_TOL,
    pool=None,
    seed: int = 0,
    max_iterations: int = MAX_ITERATIONS,
    cache=None,
    prober: "_CellProber | None" = None,
    tracer=None,
) -> RefinedFrontierReport:
    """Refine every row of a lattice frontier by adaptive bisection.

    ``frontier`` may come from any backend or from merged shards — its
    digest (hashed into the refined digest) pins the lattice provenance.
    ``pool`` dispatches the probe cells through a persistent
    :class:`~repro.campaign.pool.WorkerPool`; ``cache`` (a
    :class:`~repro.campaign.cache.ResultCache`) serves repeat probes from
    the incremental store.  The refined digest is backend- and
    cache-invariant either way.  ``prober`` lets a caller supply (and
    afterwards inspect, e.g. for cache accounting) the cell prober; it
    overrides the other execution knobs.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not frontier.complete:
        raise ValueError(
            "refinement needs a full-coverage frontier: merge all shards "
            f"first (got {frontier.scenarios}/{frontier.total_scenarios})"
        )
    if prober is None:
        prober = _CellProber(pool=pool, seed=seed, cache=cache, tracer=tracer)
    rows = [
        refine_row(row, prober, canon_float(tol), max_iterations)
        for row in frontier.rows
    ]
    return _with_digest(
        RefinedFrontierReport(
            base_digest=frontier.digest,
            tol=canon_float(tol),
            rows=tuple(rows),
        )
    )
