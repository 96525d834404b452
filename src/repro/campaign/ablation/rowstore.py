"""The refined-row store: content-addressed single rows of a refined frontier.

The quote engine's tier-2 ladder needs to answer "what is π* for this
(family, coalition, stage, shock) at this tolerance?" in one cache
lookup, not one refinement run.  The :class:`~repro.campaign.cache.
ResultCache` already holds the *probe blocks* a refinement executed —
which makes a re-refinement cheap — but a quote must skip the bisection
loop entirely, so this module stores the refinement's *answer* rows as
first-class cache entries:

- the descriptor (:func:`row_descriptor`) names one refined row by its
  grid coordinates, the bisection tolerance, and the matrix identity
  seed — exactly the result-determining inputs of a narrow
  ``ablate-refine`` run of that single cell,
- the key prefixes the descriptor with the :func:`~repro.campaign.cache.
  code_version`, so a row can never outlive the engine that measured it
  (the same freshness discipline the probe-block cache enforces),
- the stored payload is :meth:`~repro.campaign.ablation.refine.
  RefinedRow.payload` — byte-identical to the row's embedding in a
  :class:`~repro.campaign.ablation.refine.RefinedFrontierReport`, so a
  row loaded by a quote carries the same probes and provenance digests
  the refinement report published.

:func:`store_refined_rows` is the warm path's feeder: the experiment
facade calls it after every cached ``ablate-refine`` run, so any prior
refinement — a CLI sweep, a tier-3 quote fallback — turns the next
identical quote into a tier-2 hit.
"""

from __future__ import annotations

from hashlib import sha256

from repro.campaign.cache import ResultCache, code_version
from repro.campaign.canon import canon_float, fmt_fraction
from repro.campaign.ablation.refine import RefinedFrontierReport, RefinedRow

#: one decoder object for every read: the cache's read memo serves an
#: entry only to the decoder that produced it.
_decode_row = RefinedRow.from_payload


def row_descriptor(
    family: str,
    coalition: str,
    stage: str,
    shock: float,
    tol: float,
    seed: int = 0,
) -> str:
    """The canonical name of one refined row's result-determining inputs.

    Everything a narrow single-cell ``ablate-refine`` run's answer depends
    on, in one pipe-joined line: the cell coordinates, the bisection
    tolerance, and the matrix identity seed.  Floats render through
    :func:`~repro.campaign.canon.fmt_fraction`, the same canonical form
    the grid's schedule labels use, so two descriptors are equal exactly
    when the runs they name are.
    """
    return (
        f"refined-row|family={family}|coalition={coalition}|stage={stage}"
        f"|shock={fmt_fraction(canon_float(shock))}"
        f"|tol={fmt_fraction(canon_float(tol))}|seed={seed}"
    )


def row_key(descriptor: str) -> str:
    """The content address of one refined row (code-version prefixed)."""
    return sha256(f"v={code_version()}|{descriptor}".encode()).hexdigest()


def store_row(cache: ResultCache, descriptor: str, row: RefinedRow) -> bool:
    """Store one refined row under its descriptor; False when ineligible.

    Two kinds of row are final answers a quote may serve: a converged
    bracket (``pi_star`` within tol of the boundary) and an *undeterred*
    row (``pi_hi is None`` — every probe up to the expansion ceiling
    still walked, the "un-hedgeable" verdict).  The one ineligible shape
    is an unconverged bracket: bisection ran out of iterations mid-way,
    so the midpoint is a partial answer tier 3 must re-measure.
    """
    if not row.converged and row.pi_hi is not None:
        return False
    return cache.put_entry(row_key(descriptor), row.payload())


def load_row(cache: ResultCache, descriptor: str) -> RefinedRow | None:
    """The stored refined row for ``descriptor``, or None on any miss.

    The cache decodes the payload (a payload that does not decode is a
    corrupt miss), so a warm row is served without re-parsing its file.
    """
    return cache.get_entry(row_key(descriptor), decode=_decode_row)


def store_refined_rows(
    cache: ResultCache, report: RefinedFrontierReport, seed: int = 0
) -> int:
    """Store every row of a refined frontier; returns the rows stored.

    The experiment facade's post-refine hook: a cached ``ablate-refine``
    run — whatever grid it swept — leaves one row entry per cell, so the
    quote engine's tier 2 answers any cell a prior refinement measured.
    """
    stored = 0
    for row in report.rows:
        descriptor = row_descriptor(
            row.family, row.coalition, row.stage, row.shock, report.tol, seed
        )
        if store_row(cache, descriptor, row):
            stored += 1
    return stored
