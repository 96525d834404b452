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
from hashlib import sha256
from itertools import combinations, product
from typing import Iterable, Iterator

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
    #: enumerate_profiles' count, counted once: the block is frozen.
    _size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # by_size[k]: profiles deviating exactly k parties (k-th elementary symmetric sum)
        by_size = [1] + [0] * self.max_adversaries
        for _, space in self.strategies:
            for k in range(self.max_adversaries, 0, -1):
                by_size[k] += by_size[k - 1] * len(space)
        count = int(self.include_compliant) + sum(by_size[max(1, self.min_adversaries):])
        object.__setattr__(self, "_size", count)

    def strategy_map(self) -> dict[str, list[LabelledStrategy]]:
        return {party: list(space) for party, space in self.strategies}

    def size(self) -> int:
        return self._size

    def describe(self) -> str:
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
            ",".join([getattr(p, "__name__", repr(p)) for p in self.properties]),
            ",".join([f"{axis}={value}" for axis, value in self.extra_axes]),
            getattr(self.metrics, "__qualname__", type(self.metrics).__name__)
            if self.metrics is not None
            else "",
        ]
        for party, space in self.strategies:
            parts.append(party + "=" + ",".join([s.label for s in space]))
        return "|".join(parts)


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
                family=family,
                schedule=schedule,
                builder=builder,
                builder_id=builder_id,
                properties=tuple(properties),
                strategies=tuple(
                    (party, tuple(space)) for party, space in sorted(strategies.items())
                ),
                max_adversaries=max_adversaries,
                min_adversaries=min_adversaries,
                include_compliant=include_compliant,
                extra_adversaries=tuple(extra_adversaries),
                extra_axes=tuple(extra_axes),
                metrics=metrics,
            )
        )
        return self

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum([block._size for block in self.blocks])

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
        total = len(self)
        selected: set[int] | None = None
        if indices is not None:
            if limit is not None or shard is not None:
                raise ValueError("indices= is exclusive with limit=/shard=")
            chosen = set(indices)
            if len(chosen) != total:
                selected = chosen
        elif limit is not None or shard is not None:
            chosen = self.selection(limit=limit, shard=shard)
            if len(chosen) != total:
                selected = set(chosen)
        index = 0
        for block in self.blocks:
            label_prefix = (
                f"{block.family}/{block.schedule}/" if block.family else ""
            )
            base_axes = (("family", block.family), ("schedule", block.schedule), *block.extra_axes)
            extra = block.extra_adversaries
            for profile in enumerate_profiles(
                dict(block.strategies),
                block.max_adversaries,
                block.include_compliant,
                block.min_adversaries,
            ):
                if selected is not None and index not in selected:
                    index += 1
                    continue
                # enumerate_profiles yields parties in sorted order already.
                adversaries = tuple(sorted({*profile, *extra})) if extra else tuple(profile)
                strategy_axes = _strategy_axes(profile)
                if not profile and extra:
                    # The deviation is baked into the builder (e.g. a
                    # cheating auctioneer): not a compliant scenario.
                    strategy_axes = [("strategy", "builder-deviant"), ("round", "-")]
                yield Scenario(
                    index=index,
                    label=label_prefix + profile_label(profile),
                    builder=block.builder,
                    properties=block.properties,
                    profile=tuple(profile.items()),
                    adversaries=adversaries,
                    axes=(*base_axes, *strategy_axes, ("adversaries", ",".join(adversaries) or "none")),
                    metrics_fn=block.metrics,
                )
                index += 1
        # size() mirrors enumerate_profiles' combinatorics; keep them honest.
        assert index == total, f"matrix size {total} != enumerated {index}"
