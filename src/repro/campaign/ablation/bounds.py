"""The input domains the ablation grid, refinement and quotes share: a
leaf module, so a quote request or an experiment spec declares its
tolerance without loading the refinement engine."""

from __future__ import annotations

from typing import Annotated

from repro.codec import Interval

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

#: a grid's or a probe's premium fraction: refinement never probes higher.
PI = Interval(0.0, EXPAND_CEILING)

#: a grid's shock fraction: a relative drop, zero for the unshocked control.
GRID_SHOCK = Interval(0.0, 1.0, hi_open=True)

#: a bisection tolerance: a finer (or non-finite) tol spends every
#: iteration and still fails to converge, so it is refused before any probe.
Tol = Annotated[float, Interval(
    MIN_TOL, float("inf"), hi_open=True,
    what=f"finite and at least {MIN_TOL:.3g}, the finest bracket "
    f"{MAX_ITERATIONS} bisection iterations reach",
)]
