"""Reduce an ablation campaign into a deviation-profitability frontier.

:func:`reduce_frontier` consumes the :class:`~repro.campaign.runner.CampaignReport`
an ablation matrix produced — on any backend, merged from any shards — and
pairs each grid cell's two arms into a :class:`FrontierCell`:

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
from typing import Iterable

from repro import codec
from repro.campaign.canon import canon_float, canon_opt, fmt_fraction
from repro.campaign.report import load_payload, register_report
from repro.campaign.runner import CampaignReport

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
        for candidate in self.rows:
            key = (candidate.family, candidate.stage, candidate.shock,
                   candidate.coalition)
            if key == (family, stage, shock, coalition):
                return candidate
        raise KeyError(
            f"no frontier row ({family}, {stage}, {shock}, {coalition!r})"
        )

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
        data = load_payload(cls, text)
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


def reduce_frontier(report: CampaignReport) -> FrontierReport:
    """Pair arms and reduce a campaign report into the frontier.

    Requires an ablation-shaped report: every result carries ``pi``,
    ``shock``, and ``stage`` axes and a ``comply``/``rational`` strategy
    coordinate (coalition cells use the all-``compliant`` profile as their
    comply arm).  A cell missing one arm (e.g. a lone shard) raises —
    merge the shards first (:func:`repro.campaign.runner.merge_reports`).
    """
    arms: dict[tuple[str, str, str, float, float], dict[str, object]] = {}
    for result in report.results:
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
        arms.setdefault(key, {})[axes["strategy"]] = result
    # One line per (family, coalition, stage, shock), single-pivot lines
    # first; arms iterate in key order, so each line's cells arrive
    # sorted by π.
    lines: dict[tuple, list[FrontierCell]] = {}
    for key in sorted(arms):
        pair = arms[key]
        # A coalition cell's comply arm is the all-compliant profile.
        comply = pair.get("comply", pair.get("compliant"))
        rational = pair.get("rational")
        missing = [
            arm
            for arm, result in (("comply", comply), ("rational", rational))
            if result is None
        ]
        if missing:
            raise ValueError(
                f"cell {key} is missing its {missing} arm(s): merge "
                "all shards before reducing the frontier"
            )
        family, coalition, stage, shock, pi = key
        r_metrics = dict(rational.metrics)
        c_metrics = dict(comply.metrics)
        # Every pivot (all coalition members) is excluded from victimhood.
        pivots = set(dict(rational.axes)["adversaries"].split(","))
        line = (bool(coalition), family, coalition, stage, shock)
        lines.setdefault(line, []).append(
            FrontierCell(
                family=family,
                stage=stage,
                shock=shock,
                pi=pi,
                walked=r_metrics["completed"] == 0.0,
                rational_utility=canon_float(r_metrics["utility"]),
                comply_utility=canon_float(c_metrics["utility"]),
                victim_net=max(
                    (
                        net
                        for party, net in rational.premium_net
                        if party not in pivots
                    ),
                    default=0,
                ),
                coalition=coalition,
            )
        )
    rows = []
    for line in sorted(lines):
        _, family, coalition, stage, shock = line
        cells = tuple(lines[line])
        deterring = [cell.pi for cell in cells if not cell.walked]
        rows.append(
            FrontierRow(
                family=family,
                stage=stage,
                shock=shock,
                pi_star=min(deterring) if deterring else None,
                cells=cells,
                coalition=coalition,
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
