"""Reduce an ablation campaign into a deviation-profitability frontier.

:func:`reduce_frontier` consumes the :class:`~repro.campaign.runner.CampaignReport`
an ablation matrix produced — on any backend, merged from any shards — and
pairs each grid cell's two arms into a :class:`FrontierCell` (:func:`frontier_cells`):

- ``walked``: did the rational pivot (or pivot coalition) abandon the
  protocol?
- ``deviation_gain``: rational-arm utility minus comply-arm utility, both
  measured on live runs at post-shock prices — deviating *paid* iff this
  is positive,
- ``victim_net``: the best premium compensation any non-pivot party
  collected in the rational arm (zero when the walk was victimless); for
  coalition cells every member counts as a pivot, so compensation flowing
  *inside* the coalition can never masquerade as victim relief.

Cells aggregate into one :class:`FrontierRow` per ``(family, coalition,
stage, shock)`` line, where ``coalition`` names a joint pivot set swept with
``coalitions=True`` and ``""`` is the family's single pivot: ``pi_star`` is
the smallest swept premium fraction at which the (joint) pivot completes —
the measured deterrence frontier.  ``None`` means no swept premium deters
that shock (always the case at the ``pre-stake`` stage, where walking
forfeits nothing).  Rows are ordered single-pivot lines first, then
coalition lines.

Digest rules: the frontier digest hashes a preamble naming the underlying
run digest and coverage, then every row and cell in canonical order —
coalition rows included.  The run digest already folds in the matrix
identity and the effective selection, so a frontier from a partial run can
never collide with one from full coverage, and serial/pooled/sharded-then-
merged runs of the same grid yield byte-identical frontier digests.  All
float fields pass through :func:`repro.campaign.canon.canon_float`, so a
bisected premium deserialized on another host hashes identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from hashlib import sha256
from itertools import groupby
from typing import Iterable

from repro import codec
from repro.campaign.canon import canon_float, canon_opt, fmt_fraction
from repro.campaign.report import load_payload, parse_report, register_report
from repro.campaign.runner import CampaignReport
from repro.campaign.scenario import ScenarioResult

#: a cell's coordinates: on disk its row carries them once for all cells.
ROW_COORDINATES = ("family", "stage", "shock", "coalition")


@dataclass(frozen=True)
class FrontierCell:
    """One measured grid cell: a (family, stage, shock, π) pair of arms."""

    family: str
    stage: str
    shock: float
    pi: float
    walked: bool
    rational_utility: float
    comply_utility: float
    victim_net: int
    #: the joint-pivot name for coalition cells ("" = single pivot).
    coalition: str = ""

    @property
    def deviation_gain(self) -> float:
        return self.rational_utility - self.comply_utility

    @property
    def deviation_profitable(self) -> bool:
        return self.deviation_gain > 0

    def describe(self) -> str:
        return "|".join(
            (
                self.family,
                self.coalition,
                self.stage,
                repr(canon_float(self.shock)),
                repr(canon_float(self.pi)),
                "walked" if self.walked else "completed",
                repr(canon_float(self.rational_utility)),
                repr(canon_float(self.comply_utility)),
                str(self.victim_net),
            )
        )


@dataclass(frozen=True)
class FrontierRow:
    """The frontier along π for one (family, coalition, stage, shock) line.

    A coalition row's ``pi_star`` prices the collusive walk — at least the
    single-pivot threshold, since member-to-member forfeits deter nothing.
    """

    family: str
    stage: str
    shock: float
    #: smallest swept π at which the rational pivot completes; None if the
    #: shock stays profitable to walk from at every swept premium.
    pi_star: float | None
    cells: tuple[FrontierCell, ...]
    #: the joint-pivot name ("" = the family's single pivot).
    coalition: str = ""

    @property
    def deterred(self) -> bool:
        return self.pi_star is not None


@register_report("frontier")
@dataclass(frozen=True)
class FrontierReport:
    """The reduced frontier plus its reproducibility digest.

    A registered :class:`~repro.campaign.report.Report` of kind
    ``"frontier"``.  It is a *reduced* artifact: ``merge`` raises with
    guidance, because the mergeable unit is the underlying campaign shard
    report (merge those, then :func:`reduce_frontier` the result).
    """

    matrix_digest: str
    run_digest: str
    complete: bool
    scenarios: int
    total_scenarios: int
    rows: tuple[FrontierRow, ...]
    digest: str = ""

    @property
    def cells(self) -> tuple[FrontierCell, ...]:
        return tuple(cell for row in self.rows for cell in row.cells)

    def families(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(row.family for row in self.rows))

    def row(
        self, family: str, stage: str, shock: float, coalition: str = ""
    ) -> FrontierRow:
        return find_row(self.rows, "frontier", family, stage, shock, coalition)

    def stages(self, family: str) -> tuple[str, ...]:
        """The stage labels swept for one family (coalition rows included),
        in row order."""
        return tuple(
            dict.fromkeys(row.stage for row in self.rows if row.family == family)
        )

    def summary(self) -> str:
        pivot_rows = [row for row in self.rows if not row.coalition]
        deterred = sum(1 for row in pivot_rows if row.deterred)
        coverage = (
            "full coverage"
            if self.complete
            else f"PARTIAL coverage {self.scenarios}/{self.total_scenarios}"
        )
        coalition_lines = len(self.rows) - len(pivot_rows)
        coalition = (
            f", {coalition_lines} coalition lines" if coalition_lines else ""
        )
        cells = sum(len(row.cells) for row in pivot_rows)
        return (
            f"frontier: {len(pivot_rows)} (family × stage × shock) lines over "
            f"{cells} cells, {deterred} deterred{coalition} ({coverage})"
        )

    def table(self) -> str:
        """A printable frontier table (one line per row)."""
        lines = [
            f"{'family':<12} {'pivot':<14} {'stage':<10} {'shock':>7}  {'pi*':>6}  "
            f"{'walk premiums':<24} profitable-deviation span"
        ]
        for row in self.rows:
            walked = [cell.pi for cell in row.cells if cell.walked]
            profitable = [
                cell.pi for cell in row.cells if cell.deviation_profitable
            ]
            # fmt_fraction, not %g: the printed axes must read exactly
            # like the digest-covered scenario labels ('g' is lossy past
            # six significant digits, so two distinct deeply-bisected
            # premiums could print identically while differing in the
            # digest — ungreppable).
            lines.append(
                f"{row.family:<12} {row.coalition or 'pivot':<14} {row.stage:<10} "
                f"{fmt_fraction(row.shock):>7}  "
                f"{'-' if row.pi_star is None else fmt_fraction(row.pi_star):>6}  "
                f"{','.join(fmt_fraction(p) for p in walked) or '-':<24} "
                f"{','.join(fmt_fraction(p) for p in profitable) or '-'}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, reports: "Iterable[FrontierReport]") -> "FrontierReport":
        raise ValueError(
            "frontier reports are reduced artifacts and do not merge: merge "
            "the underlying campaign shard reports (written by `ablate "
            "--shard I/N --out`) and reduce the merged report instead"
        )

    def to_json(self) -> str:
        # Two keys on disk, one row type in memory: single-pivot lines
        # under "rows" (without their empty coalition), coalition lines
        # under "coalition_rows".
        data = {"kind": self.kind, **codec.encode(self)}
        rows = [cells_to_json(row, "cells") for row in data["rows"]]
        data["rows"] = [
            {key: value for key, value in row.items() if key != "coalition"}
            for row in rows if not row["coalition"]
        ]
        data["coalition_rows"] = [row for row in rows if row["coalition"]]
        data["digest"] = data.pop("digest")
        return json.dumps(data, indent=None, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FrontierReport":
        """Rebuild a report from :meth:`to_json` (see :meth:`from_data`)."""
        return cls.from_data(parse_report(text))

    @classmethod
    def from_data(cls, data: dict) -> "FrontierReport":
        """Rebuild a report from the parsed JSON object of :meth:`to_json`."""
        data = load_payload(cls, data)
        rows, coalition_rows = data.get("rows"), data.get("coalition_rows", [])
        if isinstance(rows, list) and isinstance(coalition_rows, list):
            data.pop("coalition_rows", None)
            data["rows"] = [
                cells_from_json(row, "cells") for row in rows + coalition_rows
            ]
        stamped = codec.decode(cls, data)
        report = _with_digest(stamped)
        if report.digest != stamped.digest:
            raise ValueError(
                "frontier digest mismatch after deserialization: "
                f"{report.digest[:16]} != {stamped.digest[:16]}"
            )
        return report


def find_row(rows, kind: str, family: str, stage: str, shock: float, coalition: str):
    """The row of ``rows`` on one ``(family, stage, shock, coalition)`` line."""
    for row in rows:
        if (row.family, row.stage, row.shock, row.coalition) == (
            family, stage, shock, coalition
        ):
            return row
    raise KeyError(f"no {kind} row ({family}, {stage}, {shock}, {coalition!r})")


def cells_to_json(row: dict, key: str) -> dict:
    """An encoded row's JSON shape: its ``key`` cells leave out the
    coordinates (:data:`ROW_COORDINATES`) the row carries."""
    row[key] = [
        {name: value for name, value in cell.items() if name not in ROW_COORDINATES}
        for cell in row[key]
    ]
    return row


def cells_from_json(row, key: str):
    """The inverse, on a JSON row before it is decoded: each of its
    ``key`` cells takes the row's coordinates.  A value of the wrong
    shape is left as it is, for :func:`repro.codec.decode` to report."""
    if not (isinstance(row, dict) and isinstance(row.get(key), list)):
        return row
    coordinates = {name: row[name] for name in ROW_COORDINATES if name in row}
    cells = [
        {**cell, **coordinates} if isinstance(cell, dict) else cell
        for cell in row[key]
    ]
    return {**row, key: cells}


def _with_digest(report: FrontierReport) -> FrontierReport:
    """Stamp the canonical digest: every header field and every row/cell.

    The preamble binds the matrix identity, the run digest, and the
    coverage claim; each row line binds its ``pi_star``.  Tampering with
    any headline value in a serialized frontier therefore fails
    :meth:`FrontierReport.from_json`'s recomputation.
    """
    digest = sha256(
        f"frontier|matrix={report.matrix_digest}|run={report.run_digest}"
        f"|complete={report.complete}"
        f"|coverage={report.scenarios}/{report.total_scenarios}".encode()
    )
    for row in report.rows:
        line = (
            f"coalition-row|{row.family}|{row.coalition}|{row.stage}"
            if row.coalition
            else f"row|{row.family}|{row.stage}"
        )
        digest.update(b"\n")
        digest.update(
            f"{line}|{canon_float(row.shock)!r}"
            f"|pi_star={canon_opt(row.pi_star)!r}".encode()
        )
        for cell in row.cells:
            digest.update(b"\n")
            digest.update(cell.describe().encode())
    return replace(report, digest=digest.hexdigest())


def frontier_cells(
    results: Iterable[ScenarioResult], make: type = FrontierCell, **extra
) -> list[FrontierCell]:
    """Pair ablation results' arms into cells, in ``(family, coalition,
    stage, shock, π)`` order.

    Every result carries ``pi``, ``shock`` and ``stage`` axes and a
    ``comply``/``rational`` strategy coordinate (coalition cells use the
    all-``compliant`` profile as their comply arm).  ``make`` builds each
    cell from its fields and ``extra`` — a bisection probe's
    :class:`~repro.campaign.ablation.refine.ProbeCell` in one construction.
    """
    # Each arm is kept with its axes dict: one dict(result.axes) per result.
    arms: dict[tuple[str, str, str, float, float], dict[str, tuple]] = {}
    for result in results:
        axes = dict(result.axes)
        if "pi" not in axes or "shock" not in axes or "stage" not in axes:
            raise ValueError(
                f"not an ablation result: {result.label!r} lacks pi/shock/stage "
                "axes — reduce_frontier needs a report from ablation_matrix"
            )
        key = (
            axes["family"],
            axes.get("coalition", ""),
            axes["stage"],
            canon_float(axes["shock"]),
            canon_float(axes["pi"]),
        )
        arms.setdefault(key, {})[axes["strategy"]] = (result, axes)
    cells = []
    for key in sorted(arms):
        pair = arms[key]
        # A coalition cell's comply arm is the all-compliant profile.
        comply = pair.get("comply", pair.get("compliant"))
        rational = pair.get("rational")
        if comply is None or rational is None:
            missing = [arm for arm, r in (("comply", comply), ("rational", rational)) if r is None]
            raise ValueError(
                f"cell {key} is missing its {missing} arm(s): merge "
                "all shards before reducing the frontier"
            )
        family, coalition, stage, shock, pi = key
        rational, r_axes = rational
        r_metrics = dict(rational.metrics)
        # Every pivot (all coalition members) is excluded from victimhood.
        pivots = r_axes["adversaries"].split(",")
        cells.append(
            make(
                family,
                stage,
                shock,
                pi,
                r_metrics["completed"] == 0.0,
                canon_float(r_metrics["utility"]),
                canon_float(dict(comply[0].metrics)["utility"]),
                max(
                    [net for party, net in rational.premium_net if party not in pivots],
                    default=0,
                ),
                coalition,
                **extra,
            )
        )
    return cells


def reduce_frontier(report: CampaignReport) -> FrontierReport:
    """Reduce an ablation campaign report into the frontier: one row per
    ``(family, coalition, stage, shock)`` line of its
    :func:`frontier_cells`, single-pivot lines first.  A cell missing one
    arm (e.g. a lone shard) raises — merge the shards first
    (:func:`repro.campaign.runner.merge_reports`).
    """
    # A stable sort keeps frontier_cells' order inside each group, so
    # every line's cells stay sorted by π.
    cells = sorted(frontier_cells(report.results), key=lambda c: bool(c.coalition))
    rows = []
    for _, line in groupby(cells, key=lambda c: (c.family, c.coalition, c.stage, c.shock)):
        line = tuple(line)
        deterring = [cell.pi for cell in line if not cell.walked]
        first = line[0]
        rows.append(
            FrontierRow(
                family=first.family,
                stage=first.stage,
                shock=first.shock,
                pi_star=min(deterring) if deterring else None,
                cells=line,
                coalition=first.coalition,
            )
        )
    return _with_digest(
        FrontierReport(
            matrix_digest=report.matrix_digest,
            run_digest=report.run_digest,
            complete=report.complete,
            scenarios=report.scenarios,
            total_scenarios=report.total_scenarios,
            rows=tuple(rows),
        )
    )
