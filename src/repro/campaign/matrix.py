"""Scenario matrices: deterministic expansion of campaign axes.

A :class:`ScenarioMatrix` is a list of *blocks*.  Each block fixes the
protocol-level axes — family, premium/timeout schedule, builder, properties
— and carries a per-party strategy space; expansion enumerates every
adversary subset (up to ``max_adversaries``) crossed with every strategy
assignment, in a deterministic order, yielding :class:`Scenario` specs with
stable global indices and labels.

The matrix also knows its own identity: :meth:`ScenarioMatrix.digest`
hashes the seed and every block descriptor (family, schedule, strategy
labels, property names), so a campaign report can state exactly *which*
matrix produced it.

Selection semantics (:meth:`ScenarioMatrix.selection`): ``limit=N``
deterministically subsamples **exactly** ``min(N, total)`` scenarios,
*stratified by block*: whenever ``N`` is at least the number of blocks,
every block contributes at least one scenario, with the remaining picks
apportioned over each block's remaining capacity — proportional to
``size - 1``, by largest-remainder rounding — and spread evenly inside
each block.  An even spread over the raw index range
— the previous policy — could skip an entire small family whenever ``N``
fell below ``total / family size``; stratification makes a limited run a
guaranteed cross-family smoke sample.  Below the block count the picks
spread evenly across *blocks* (one scenario from each of ``N`` evenly
spaced blocks), which is still the best stratification ``N`` scenarios can
buy.  ``shard=(i, n)`` then takes the ``i``-th of ``n`` contiguous
index-range slices of the (possibly limited) selection; the ``n`` shards
partition the selection exactly, so per-scenario digests from all shards
recombine — via :func:`repro.campaign.runner.merge_reports` — into the
unsharded run digest, byte for byte.  The stratified policy is recorded in
the selection label (``limit=N:stratified``) and hence in the
selection-honest run-digest preamble.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from hashlib import sha256
from itertools import combinations, product
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

from repro.campaign.scenario import (
    Builder,
    LabelledStrategy,
    MetricsFn,
    Property,
    Scenario,
)


def enumerate_profiles(
    strategies: dict[str, list[LabelledStrategy]],
    max_adversaries: int = 1,
    include_compliant: bool = True,
    min_adversaries: int = 1,
) -> Iterator[dict[str, LabelledStrategy]]:
    """All adversary profiles in deterministic order.

    The all-compliant profile (if included) comes first, then subsets by
    ascending size — from ``min_adversaries`` up to ``max_adversaries`` —
    parties sorted, strategy assignments in product order — the ordering
    contract ``ModelChecker.profiles`` has always had.  A block that
    models only *joint* deviations (e.g. a two-party coalition arm) sets
    ``min_adversaries == max_adversaries == 2`` so the spurious
    single-member profiles never expand.
    """
    if include_compliant:
        yield {}
    parties = sorted(strategies)
    for size in range(max(1, min_adversaries), max_adversaries + 1):
        for subset in combinations(parties, size):
            spaces = [strategies[p] for p in subset]
            for combo in product(*spaces):
                yield dict(zip(subset, combo))


def profile_label(profile: dict[str, LabelledStrategy]) -> str:
    """Human-readable profile name; ``profile`` is in sorted party order."""
    return "; ".join([f"{p}:{s.label}" for p, s in profile.items()]) or "all-compliant"


def validate_shard(shard: tuple[int, int]) -> tuple[int, int]:
    """Check a 1-based ``(i, n)`` shard coordinate; returns it unchanged."""
    i, n = shard
    if n < 1:
        raise ValueError(f"shard count must be >= 1, got {n}")
    if not 1 <= i <= n:
        raise ValueError(f"shard index must be in 1..{n}, got {i}")
    return i, n


def _strategy_kind(label: str) -> str:
    """"halt@3" → "halt", "skip:redeem" → "skip", "lag+2" → "lag"."""
    for sep in ("@", ":", "+"):
        label = label.split(sep)[0]
    return label


def _strategy_axes(profile: dict[str, LabelledStrategy]) -> list[tuple[str, str]]:
    """Strategy-kind and deviation-round coordinates for aggregation."""
    if not profile:
        return [("strategy", "compliant"), ("round", "-")]
    if len(profile) > 1:
        kinds = sorted({_strategy_kind(s.label) for s in profile.values()})
        return [("strategy", "&".join(kinds)), ("round", "multi")]
    (strategy,) = profile.values()
    rnd = strategy.label.split("@", 1)[1] if "@" in strategy.label else "-"
    return [("strategy", _strategy_kind(strategy.label)), ("round", rnd)]


_label = attrgetter("label")


class _Slot(NamedTuple):
    """A strategy stand-in: its label and its place in the space."""

    label: str
    index: int


@lru_cache(maxsize=1024)
def _profile_rows(
    labels: tuple[tuple[str, tuple[str, ...]], ...],
    max_adversaries: int,
    include_compliant: bool,
    min_adversaries: int,
    extra: tuple[str, ...],
) -> tuple[tuple[str, tuple[tuple[str, int], ...], tuple[str, ...], tuple], ...]:
    """A block's profiles from its strategy labels alone, expanded once
    per block structure: ``(label suffix, (party, strategy index) picks,
    adversaries, axes after the block's own)`` per profile, in
    :func:`enumerate_profiles` order."""
    spaces = {
        party: [_Slot(label, index) for index, label in enumerate(names)]
        for party, names in labels
    }
    rows = []
    for profile in enumerate_profiles(spaces, max_adversaries, include_compliant, min_adversaries):
        # enumerate_profiles yields parties in sorted order already.
        adversaries = tuple(sorted({*profile, *extra})) if extra else tuple(profile)
        strategy_axes = _strategy_axes(profile)
        if not profile and extra:
            # The deviation is baked into the builder (e.g. a cheating
            # auctioneer): not a compliant scenario.
            strategy_axes = [("strategy", "builder-deviant"), ("round", "-")]
        rows.append((
            profile_label(profile),
            tuple((party, slot.index) for party, slot in profile.items()),
            adversaries,
            (*strategy_axes, ("adversaries", ",".join(adversaries) or "none")),
        ))
    return tuple(rows)


@dataclass(frozen=True)
class MatrixBlock:
    """One protocol-level cell of the matrix (family × schedule)."""

    family: str
    schedule: str
    builder: Builder = field(repr=False)
    #: the protocol's identity in :meth:`describe`: an explicit name, so
    #: a block's digest never depends on where its builder was written.
    builder_id: str
    properties: tuple[Property, ...] = field(repr=False)
    strategies: tuple[tuple[str, tuple[LabelledStrategy, ...]], ...] = field(repr=False)
    max_adversaries: int = 1
    #: smallest adversary subset expanded; 2 with ``max_adversaries=2``
    #: models joint-only deviations (coalition arms).
    min_adversaries: int = 1
    include_compliant: bool = True
    #: builder-level deviants (counted adversarial in every scenario).
    extra_adversaries: tuple[str, ...] = ()
    #: extra (axis, value) coordinates stamped on every scenario of the
    #: block, e.g. the ablation grid's premium fraction and shock size.
    extra_axes: tuple[tuple[str, str], ...] = ()
    #: optional per-scenario metric extractor (see ``repro.campaign.scenario``).
    metrics: MetricsFn | None = field(default=None, repr=False)
    #: the block's profiles, from :func:`_profile_rows`: shared by every
    #: block of its structure (party names, strategy labels, adversary
    #: bounds) and expanded once per structure.
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = tuple([(party, tuple(map(_label, space))) for party, space in self.strategies])
        object.__setattr__(self, "_rows", _profile_rows(
            labels, self.max_adversaries, self.include_compliant,
            self.min_adversaries, self.extra_adversaries,
        ))

    def strategy_map(self) -> dict[str, list[LabelledStrategy]]:
        return {party: list(space) for party, space in self.strategies}

    def size(self) -> int:
        return len(self._rows)

    def describe(self) -> str:
        """The block's identity line, rendered once: the block is frozen,
        so the text is kept in its ``__dict__``, like a cached_property."""
        text = self.__dict__.get("_describe")
        if text is not None:
            return text
        parts = [
            self.family,
            self.schedule,
            # The explicit builder id names the protocol even when
            # family/schedule are blank (ModelChecker blocks); parameters
            # captured inside the builder stay invisible to it.
            self.builder_id,
            str(self.max_adversaries),
            str(self.min_adversaries),
            str(self.include_compliant),
            ",".join(self.extra_adversaries),
            ",".join([p.__name__ if hasattr(p, "__name__") else repr(p) for p in self.properties]),
            ",".join([f"{axis}={value}" for axis, value in self.extra_axes]),
            getattr(self.metrics, "__qualname__", type(self.metrics).__name__)
            if self.metrics is not None
            else "",
        ]
        for party, space in self.strategies:
            parts.append(party + "=" + ",".join(map(_label, space)))
        text = self.__dict__["_describe"] = "|".join(parts)
        return text


class ScenarioMatrix:
    """Axis expansion: (family × schedule × adversaries × strategy)."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.blocks: list[MatrixBlock] = []
        #: picklable rebuild recipe (:class:`repro.campaign.pool.MatrixSpec`)
        #: set by registered factories like ``default_matrix``; lets a
        #: persistent :class:`~repro.campaign.pool.WorkerPool` rebuild the
        #: matrix worker-side instead of inheriting it through fork.
        self.spec = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_block(
        self,
        family: str,
        schedule: str,
        builder: Builder,
        builder_id: str,
        properties: Iterable[Property],
        strategies: dict[str, Iterable[LabelledStrategy]],
        max_adversaries: int = 1,
        min_adversaries: int = 1,
        include_compliant: bool = True,
        extra_adversaries: Iterable[str] = (),
        extra_axes: Iterable[tuple[str, str]] = (),
        metrics: MetricsFn | None = None,
    ) -> "ScenarioMatrix":
        if not 1 <= min_adversaries <= max(1, max_adversaries):
            raise ValueError(
                f"min_adversaries must be in 1..max_adversaries, got "
                f"{min_adversaries} (max {max_adversaries})"
            )
        self.spec = None  # any rebuild recipe no longer describes this matrix
        self.blocks.append(
            MatrixBlock(
                family,
                schedule,
                builder,
                builder_id,
                tuple(properties),
                tuple([(party, tuple(space)) for party, space in sorted(strategies.items())]),
                max_adversaries,
                min_adversaries,
                include_compliant,
                tuple(extra_adversaries),
                tuple(extra_axes),
                metrics,
            )
        )
        return self

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum([len(block._rows) for block in self.blocks])

    def families(self) -> list[str]:
        seen: dict[str, None] = {}
        for block in self.blocks:
            seen.setdefault(block.family, None)
        return list(seen)

    def block_sizes(self) -> dict[str, int]:
        """Scenario count per family (for --list style reporting)."""
        sizes: dict[str, int] = {}
        for block in self.blocks:
            sizes[block.family] = sizes.get(block.family, 0) + block.size()
        return sizes

    def block_ranges(self) -> list[tuple[int, int, MatrixBlock]]:
        """``(start index, size, block)`` per block, in expansion order.

        The global-index geometry of the matrix — what the incremental
        result cache partitions a selection against.
        """
        ranges = []
        start = 0
        for block in self.blocks:
            size = block.size()
            ranges.append((start, size, block))
            start += size
        return ranges

    def digest(self) -> str:
        """*Structural* identity: seed + every block descriptor.

        Covers the axes, strategy labels, property names, and each block's
        explicit ``builder_id`` — not parameters captured inside builder
        closures, which no hash of the matrix can see.  Two matrices
        differing only in a closure-captured spec share a structural
        digest; their *run* digests still differ, because per-scenario
        digests hash the actual outcomes (final ledgers, premium flows).
        Provenance claims should therefore cite the run digest; this one
        names the campaign shape.
        """
        h = sha256(f"seed={self.seed}".encode())
        for block in self.blocks:
            h.update(b"\n")
            h.update(block.describe().encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def _stratified_counts(self, sizes: list[int], count: int) -> list[int]:
        """Apportion ``count`` picks over blocks: one guaranteed pick per
        block, the rest spread over each block's *remaining capacity*
        (``size - 1``, the scenarios above the guaranteed pick) by
        largest-remainder rounding.

        Requires ``len(sizes) <= count < sum(sizes)``.  Deterministic:
        remainders tie-break on block index.
        """
        blocks = len(sizes)
        pool = sum(sizes) - blocks  # distributable slack above the floors
        counts = [1] * blocks
        remaining = count - blocks
        if remaining and pool:
            shares = [remaining * (size - 1) for size in sizes]
            extras = [share // pool for share in shares]
            leftover = remaining - sum(extras)
            order = sorted(range(blocks), key=lambda j: (-(shares[j] % pool), j))
            while leftover:
                for j in order:
                    if not leftover:
                        break
                    if counts[j] + extras[j] < sizes[j]:
                        extras[j] += 1
                        leftover -= 1
            counts = [base + extra for base, extra in zip(counts, extras)]
        assert sum(counts) == count, "stratified apportionment lost picks"
        return counts

    def selection(
        self,
        limit: int | None = None,
        shard: tuple[int, int] | None = None,
    ) -> list[int]:
        """The global scenario indices a ``(limit, shard)`` run executes.

        ``limit=N`` picks exactly ``min(N, total)`` indices, stratified by
        block: with ``N`` at or above the block count every block yields at
        least one scenario (remaining picks apportioned over the blocks'
        remaining capacity, spread evenly inside each block); below the
        block count one scenario is taken from each of ``N`` evenly spaced
        blocks.  Either
        way the picks are strictly increasing global indices and the count
        is exact.  ``shard=(i, n)`` (1-based) then takes the *i*-th of *n*
        contiguous slices; the slices partition the selection exactly, each
        within one scenario of ``count / n`` in length (some shards are
        empty when ``n`` exceeds the selection size).
        """
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        total = len(self)
        count = total if limit is None else min(limit, total)
        if count == total:
            indices = list(range(total))
        else:
            ranges = self.block_ranges()
            offsets = [start for start, _, _ in ranges]
            sizes = [size for _, size, _ in ranges]
            indices = []
            if count >= len(sizes):
                per_block = self._stratified_counts(sizes, count)
                for offset, size, picks in zip(offsets, sizes, per_block):
                    # (i * size) // picks is strictly increasing for
                    # picks <= size, so the block contributes exactly
                    # ``picks`` distinct local indices.
                    indices.extend(
                        offset + (i * size) // picks for i in range(picks)
                    )
            else:
                # Fewer picks than blocks: spread over the *blocks*, taking
                # each chosen block's first scenario.
                chosen = [(i * len(sizes)) // count for i in range(count)]
                indices = [offsets[j] for j in chosen]
            assert len(set(indices)) == count, "subsampler collapsed picks"
            assert indices == sorted(indices), "subsampler disordered picks"
        if shard is not None:
            i, n = validate_shard(shard)
            lo = ((i - 1) * len(indices)) // n
            hi = (i * len(indices)) // n
            indices = indices[lo:hi]
        return indices

    def scenarios(
        self,
        limit: int | None = None,
        shard: tuple[int, int] | None = None,
        indices: Iterable[int] | None = None,
    ) -> Iterator[Scenario]:
        """Expand the matrix; ``limit``/``shard`` select per :meth:`selection`.

        ``indices`` names an explicit global-index subset instead (the
        runner's cache-miss path); it is mutually exclusive with
        ``limit``/``shard``.  Every yielded :class:`Scenario` keeps its
        *global* matrix index, so sharded results interleave back into
        full-matrix order.
        """
        selected: set[int] | None = None
        if indices is not None:
            if limit is not None or shard is not None:
                raise ValueError("indices= is exclusive with limit=/shard=")
            selected = set(indices)
        elif limit is not None or shard is not None:
            selected = set(self.selection(limit=limit, shard=shard))
        if selected is not None and len(selected) == len(self):
            selected = None  # a full selection tests no index
        index = 0
        for block in self.blocks:
            label_prefix = (
                f"{block.family}/{block.schedule}/" if block.family else ""
            )
            base_axes = (("family", block.family), ("schedule", block.schedule), *block.extra_axes)
            spaces = dict(block.strategies)
            for suffix, picks, adversaries, axes in block._rows:
                if selected is None or index in selected:
                    yield Scenario(
                        index,
                        label_prefix + suffix,
                        block.builder,
                        block.properties,
                        tuple([(party, spaces[party][pick]) for party, pick in picks]),
                        adversaries,
                        base_axes + axes,
                        block.metrics,
                    )
                index += 1
