"""Sharded execution, pool reuse, selection honesty, and the new axes.

These pin the PR-2 contracts: ``limit=N`` yields exactly ``min(N, total)``
scenarios (the subsampler can never silently collapse), ``shard=(i, n)``
partitions the selection exactly, :func:`merge_reports` recombines shard
runs into the byte-identical unsharded run digest, a partial run's digest
preamble records its selection so it can never masquerade as full
coverage, tiny process runs fall back to serial, and a persistent
:class:`WorkerPool` reproduces fresh-pool digests across reused runs.
"""

import math
import os
import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.campaign.runner as runner_module
from repro.campaign import (
    CampaignReport,
    CampaignRunner,
    MatrixSpec,
    ResultCache,
    ScenarioMatrix,
    WorkerPool,
    default_matrix,
    merge_reports,
)
from repro.campaign.pool import (
    TASKS_PER_WORKER,
    WorkerLostError,
    dispatch_layout,
    register_matrix_factory,
)
from repro.campaign.runner import MIN_PROCESS_SCENARIOS
from repro.checker import halt_strategies, properties
from repro.core.hedged_multi_party import HedgedMultiPartySwap
from repro.core.hedged_two_party import HedgedTwoPartySpec, HedgedTwoPartySwap
from repro.graph.digraph import complete_graph
from repro.obs import MetricsSnapshot, Tracer


def two_party_builder():
    return HedgedTwoPartySwap().build()


def small_matrix(seed: int = 0) -> ScenarioMatrix:
    matrix = ScenarioMatrix(seed=seed)
    matrix.add_block(
        family="two-party",
        schedule="default",
        builder=two_party_builder,
        properties=(properties.no_stuck_escrow, properties.two_party_hedged),
        strategies={p: halt_strategies(8) for p in ("Alice", "Bob")},
        max_adversaries=2,
    )
    return matrix  # 81 scenarios


# ----------------------------------------------------------------------
# limit: exactly min(N, total), no silent collapse (satellite bugfix)
# ----------------------------------------------------------------------
def test_limit_total_minus_one_yields_exactly_that_many():
    matrix = small_matrix()
    total = len(matrix)
    assert len(list(matrix.scenarios(limit=total - 1))) == total - 1


@pytest.mark.parametrize("limit", [1, 2, 3, 79, 80, 81, 82, 1000])
def test_limit_yields_exactly_min_of_limit_and_total(limit):
    matrix = small_matrix()
    total = len(matrix)
    selected = list(matrix.scenarios(limit=limit))
    assert len(selected) == min(limit, total)
    # global indices stay strictly increasing (full-matrix order)
    indices = [s.index for s in selected]
    assert indices == sorted(set(indices))


def test_selection_is_exact_for_every_limit_on_the_default_matrix():
    matrix = default_matrix(families=["broker", "bootstrap"])
    total = len(matrix)
    for limit in range(1, total + 2):
        assert len(matrix.selection(limit=limit)) == min(limit, total)


# ----------------------------------------------------------------------
# stratified limit: no family/block skipped (satellite bugfix)
# ----------------------------------------------------------------------
def _block_of(matrix, index):
    offset = 0
    for j, block in enumerate(matrix.blocks):
        if offset <= index < offset + block.size():
            return j
        offset += block.size()
    raise AssertionError(f"index {index} beyond matrix")


def test_limit_at_or_above_block_count_covers_every_block():
    matrix = default_matrix(families=["broker", "auction", "bootstrap"])
    blocks = len(matrix.blocks)
    for limit in (blocks, blocks + 3, 2 * blocks, len(matrix) - 1):
        selected = matrix.selection(limit=limit)
        assert len(selected) == min(limit, len(matrix))
        covered = {_block_of(matrix, index) for index in selected}
        assert covered == set(range(blocks)), (limit, covered)


def test_small_families_survive_limits_that_used_to_skip_them():
    # the documented caveat this PR fixes: an even index-range spread with
    # a small N skipped the smallest families entirely
    matrix = default_matrix(families=["multi-party", "bootstrap"])
    report = CampaignRunner(matrix, limit=len(matrix.blocks) + 4).run()
    families = {value for value, _, _ in report.axis_table("family")}
    assert families == {"multi-party", "bootstrap"}


def test_below_block_count_limit_spreads_across_blocks():
    matrix = default_matrix(families=["broker", "auction", "bootstrap"])
    blocks = len(matrix.blocks)
    selected = matrix.selection(limit=3)
    assert len(selected) == 3
    covered = {_block_of(matrix, index) for index in selected}
    assert len(covered) == 3  # three distinct blocks, evenly spaced


def test_stratified_allocation_is_proportional_within_one():
    matrix = small_matrix()  # one 81-scenario block
    matrix.add_block(
        family="tiny",
        schedule="x",
        builder=two_party_builder,
        properties=(),
        strategies={"Alice": halt_strategies(2)},
    )  # 3 scenarios
    selected = matrix.selection(limit=28)
    per_block = [0, 0]
    for index in selected:
        per_block[_block_of(matrix, index)] += 1
    assert sum(per_block) == 28
    assert per_block[1] >= 1  # the tiny block is never skipped
    # the big block keeps roughly its proportional share
    assert per_block[0] == 28 - per_block[1] >= 26


# ----------------------------------------------------------------------
# empty shards: more shards than scenarios (satellite bugfix)
# ----------------------------------------------------------------------
def test_empty_shards_run_and_merge_without_corruption():
    matrix = small_matrix()  # 81 scenarios
    reference = CampaignRunner(matrix).run()
    n = 100  # > total: some shards are empty
    shards = [
        CampaignRunner(small_matrix(), shard=(i, n)).run()
        for i in range(1, n + 1)
    ]
    empties = [s for s in shards if s.scenarios == 0]
    assert empties, "expected empty shards with n > total"
    # an empty shard survives the JSON transport with its digest intact
    restored = CampaignReport.from_json(empties[0].to_json())
    assert restored.run_digest == empties[0].run_digest
    assert restored.scenarios == 0
    merged = merge_reports(
        [CampaignReport.from_json(s.to_json()) for s in shards]
    )
    assert merged.run_digest == reference.run_digest
    assert merged.complete
    assert merged.scenarios == reference.scenarios
    assert merged.premium_net_hist == reference.premium_net_hist


def test_empty_shard_of_a_limited_selection_merges_to_the_limited_digest():
    limited = CampaignRunner(small_matrix(), limit=8).run()
    shards = [
        CampaignRunner(small_matrix(), limit=8, shard=(i, 12)).run()
        for i in range(1, 13)
    ]
    assert any(s.scenarios == 0 for s in shards)
    assert merge_reports(shards).run_digest == limited.run_digest


# ----------------------------------------------------------------------
# shard: contiguous, exact partition of the selection
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 2, 3, 7, 81, 100])
def test_shards_partition_the_full_matrix(n):
    matrix = small_matrix()
    pieces = [matrix.selection(shard=(i, n)) for i in range(1, n + 1)]
    flat = [index for piece in pieces for index in piece]
    assert flat == list(range(len(matrix)))  # exact, ordered, no overlap


def test_shards_partition_a_limited_selection():
    matrix = small_matrix()
    whole = matrix.selection(limit=50)
    pieces = [matrix.selection(limit=50, shard=(i, 3)) for i in (1, 2, 3)]
    assert [i for piece in pieces for i in piece] == whole


@pytest.mark.parametrize("shard", [(0, 3), (4, 3), (1, 0), (-1, 2)])
def test_invalid_shards_rejected(shard):
    with pytest.raises(ValueError):
        small_matrix().selection(shard=shard)
    with pytest.raises(ValueError):
        CampaignRunner(small_matrix(), shard=shard)


# ----------------------------------------------------------------------
# merge_reports: byte-identical unsharded digest (tentpole contract)
# ----------------------------------------------------------------------
def test_merged_shards_equal_unsharded_run_digest():
    unsharded = CampaignRunner(small_matrix()).run()
    shards = [
        CampaignRunner(small_matrix(), shard=(i, 3)).run() for i in (1, 2, 3)
    ]
    assert sum(s.scenarios for s in shards) == unsharded.scenarios
    merged = merge_reports(shards)
    assert merged.run_digest == unsharded.run_digest
    assert merged.complete
    assert merged.scenarios == unsharded.scenarios
    assert merged.transactions == unsharded.transactions
    assert merged.by_axis.keys() == unsharded.by_axis.keys()
    assert merged.premium_net_hist == unsharded.premium_net_hist


def test_merged_limited_shards_equal_limited_run_digest():
    limited = CampaignRunner(small_matrix(), limit=50).run()
    shards = [
        CampaignRunner(small_matrix(), limit=50, shard=(i, 2)).run()
        for i in (1, 2)
    ]
    assert merge_reports(shards).run_digest == limited.run_digest


def test_merge_order_does_not_matter():
    shards = [
        CampaignRunner(small_matrix(), shard=(i, 3)).run() for i in (1, 2, 3)
    ]
    forward = merge_reports(shards)
    shuffled = merge_reports([shards[2], shards[0], shards[1]])
    assert forward.run_digest == shuffled.run_digest


def test_merge_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        merge_reports([])
    a = CampaignRunner(small_matrix(), shard=(1, 2)).run()
    with pytest.raises(ValueError, match="different matrices"):
        merge_reports([a, CampaignRunner(small_matrix(seed=1), shard=(2, 2)).run()])
    with pytest.raises(ValueError, match="duplicate"):
        merge_reports([a, CampaignRunner(small_matrix(), shard=(1, 2)).run()])
    with pytest.raises(ValueError, match="different limits"):
        merge_reports([a, CampaignRunner(small_matrix(), limit=40, shard=(2, 2)).run()])


def test_partial_merge_cannot_masquerade_as_full():
    unsharded = CampaignRunner(small_matrix()).run()
    two_of_three = merge_reports(
        [CampaignRunner(small_matrix(), shard=(i, 3)).run() for i in (1, 2)]
    )
    assert not two_of_three.complete
    assert two_of_three.run_digest != unsharded.run_digest
    assert two_of_three.selection == "partial"  # the label is honest too
    assert "partial" in two_of_three.summary()


# ----------------------------------------------------------------------
# selection honesty in the report (satellite bugfix)
# ----------------------------------------------------------------------
def test_limited_report_records_selection_and_differs_from_full():
    full = CampaignRunner(small_matrix()).run()
    limited = CampaignRunner(small_matrix(), limit=80).run()
    assert full.complete and full.selection == "full"
    assert not limited.complete
    assert limited.selection == "limit=80:stratified"
    assert limited.scenarios == 80 and limited.total_scenarios == 81
    assert limited.matrix_digest == full.matrix_digest
    assert limited.run_digest != full.run_digest
    assert "limit=80:stratified: 80/81" in limited.summary()


def test_sharded_report_records_selection():
    shard = CampaignRunner(small_matrix(), shard=(2, 3)).run()
    assert shard.selection == "shard=2/3"
    assert not shard.complete
    assert shard.shard == (2, 3)


def test_noop_selections_normalize_to_the_full_digest():
    full = CampaignRunner(small_matrix()).run()
    clamped = CampaignRunner(small_matrix(), limit=10_000).run()
    one_shard = CampaignRunner(small_matrix(), shard=(1, 1)).run()
    assert clamped.run_digest == full.run_digest
    assert one_shard.run_digest == full.run_digest
    assert clamped.complete and one_shard.complete


def test_report_json_roundtrip_preserves_digest_and_aggregates():
    report = CampaignRunner(small_matrix(), shard=(1, 2)).run()
    restored = CampaignReport.from_json(report.to_json())
    assert restored.run_digest == report.run_digest
    assert restored.shard == (1, 2)
    assert restored.scenarios == report.scenarios
    assert restored.premium_net_hist == report.premium_net_hist
    assert [r.digest for r in restored.results] == [
        r.digest for r in report.results
    ]
    with pytest.raises(ValueError, match="digest mismatch"):
        CampaignReport.from_json(
            report.to_json().replace(report.results[0].digest, "0" * 64)
        )


# ----------------------------------------------------------------------
# serial fallback for tiny selections (satellite bugfix)
# ----------------------------------------------------------------------
def test_tiny_process_run_falls_back_to_serial():
    report = CampaignRunner(
        small_matrix(), backend="process", limit=MIN_PROCESS_SCENARIOS - 1
    ).run()
    assert report.backend == "serial"
    assert report.workers == 1
    big = CampaignRunner(small_matrix(), backend="process").run()
    assert big.backend == "process"  # 81 scenarios clears the threshold


# ----------------------------------------------------------------------
# persistent worker pool
# ----------------------------------------------------------------------
def test_worker_pool_reuse_matches_serial_digests():
    serial = CampaignRunner(default_matrix(families=["broker", "bootstrap"])).run()
    with WorkerPool(workers=2) as pool:
        first = CampaignRunner(
            default_matrix(families=["broker", "bootstrap"]),
            backend="process",
            pool=pool,
        ).run()
        second = CampaignRunner(
            default_matrix(families=["broker", "bootstrap"]),
            backend="process",
            pool=pool,
        ).run()
        # a different matrix through the same (already started) workers
        other = CampaignRunner(
            default_matrix(families=["bootstrap"]), backend="process", pool=pool
        ).run()
    assert first.backend == second.backend == "process"
    assert first.run_digest == second.run_digest == serial.run_digest
    assert other.backend == "process"  # started pool serves tiny runs
    assert other.ok


def test_worker_pool_shards_merge_to_the_serial_digest():
    serial = CampaignRunner(default_matrix(families=["broker", "bootstrap"])).run()
    with WorkerPool(workers=2) as pool:
        shards = [
            CampaignRunner(
                default_matrix(families=["broker", "bootstrap"]),
                backend="process",
                pool=pool,
                shard=(i, 2),
            ).run()
            for i in (1, 2)
        ]
    assert merge_reports(shards).run_digest == serial.run_digest


def test_cache_warm_pooled_run_neither_forks_nor_expands(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path / "store")
    cold = CampaignRunner(
        default_matrix(families=["broker", "bootstrap"]), cache=cache
    ).run()
    matrix = default_matrix(families=["broker", "bootstrap"])
    expansions = []
    expand = matrix.scenarios

    def counting(**kwargs):
        expansions.append(kwargs)
        return expand(**kwargs)

    monkeypatch.setattr(matrix, "scenarios", counting)
    with WorkerPool(workers=2) as pool:
        warm = CampaignRunner(
            matrix, backend="process", pool=pool, cache=cache
        ).run()
        assert not pool.started  # every scenario was a hit: nothing to fork for
    assert warm.cache_hits == warm.scenarios == cold.scenarios
    assert expansions == []  # and no row was expanded for it
    assert warm.run_digest == cold.run_digest


def test_pool_requires_process_backend_and_rebuildable_matrix():
    pool = WorkerPool(workers=2)
    with pytest.raises(ValueError, match="backend"):
        CampaignRunner(default_matrix(families=["bootstrap"]), pool=pool)
    with pytest.raises(ValueError, match="rebuildable"):
        CampaignRunner(small_matrix(), backend="process", pool=pool)
    with pytest.raises(ValueError, match="workers= conflicts"):
        CampaignRunner(
            default_matrix(families=["bootstrap"]),
            backend="process",
            workers=8,
            pool=pool,
        )
    assert not pool.started  # nothing forced a fork


def test_matrix_mutated_after_runner_construction_fails_loudly():
    matrix = default_matrix(families=["bootstrap"])
    with WorkerPool(workers=2) as pool:
        # start the pool so the pooled path is chosen regardless of size
        CampaignRunner(
            default_matrix(families=["bootstrap"]), backend="process", pool=pool
        ).run()
        runner = CampaignRunner(matrix, backend="process", pool=pool)
        matrix.add_block(
            family="extra",
            schedule="x",
            builder=two_party_builder,
            properties=(),
            strategies={"Alice": halt_strategies(2)},
        )
        with pytest.raises(ValueError, match="rebuildable"):
            runner.run()


def test_add_block_invalidates_the_rebuild_spec():
    matrix = default_matrix(families=["bootstrap"])
    assert isinstance(matrix.spec, MatrixSpec)
    rebuilt = matrix.spec.build()
    assert rebuilt.digest() == matrix.digest()
    matrix.add_block(
        family="extra",
        schedule="x",
        builder=two_party_builder,
        properties=(),
        strategies={"Alice": halt_strategies(2)},
    )
    assert matrix.spec is None  # the recipe no longer describes the matrix


def test_unknown_matrix_factory_raises():
    with pytest.raises(KeyError, match="unknown matrix factory"):
        MatrixSpec(factory="nope").build()


# ----------------------------------------------------------------------
# new workload axes: one compensation-bound sweep through each
# ----------------------------------------------------------------------
def test_two_party_premium_grid_and_stretched_schedules_hold_bounds():
    matrix = default_matrix(families=["two-party"])
    report = CampaignRunner(matrix, limit=400).run()
    assert report.ok, [f"{v.scenario}: {v.message}" for v in report.violations]
    schedules = {value for value, _, _ in report.axis_table("schedule")}
    grid = {f"p{pa}:{pb}" for pa in (1, 2, 3) for pb in (1, 2)}
    assert grid <= schedules  # the whole premium-growth grid is swept
    assert {"p2:1/k2", "p2:1/k3"} <= schedules  # stretched k·Δ timeouts


def test_stretched_spec_scales_every_deadline():
    spec = HedgedTwoPartySpec().stretched(3)
    assert spec.alice_premium_deadline == 3
    assert spec.bob_redeem_deadline == 18
    assert spec.premium_a == HedgedTwoPartySpec().premium_a  # premiums untouched
    with pytest.raises(ValueError):
        HedgedTwoPartySpec().stretched(0)


def test_multi_party_larger_graphs_hold_lemma_bounds():
    report = CampaignRunner(default_matrix(families=["multi-party"])).run()
    assert report.ok, [f"{v.scenario}: {v.message}" for v in report.violations]
    schedules = {value for value, _, _ in report.axis_table("schedule")}
    # complete:7/8 joined once worst-case funding enumerated member
    # subsets instead of simple paths (coarsened halt grids)
    assert {
        "ring5/p1", "ring8/p1", "complete4/p1", "complete5/p2",
        "complete7/p1", "complete8/p1",
    } <= schedules


def test_sealed_auction_family_holds_lemma_bounds():
    report = CampaignRunner(default_matrix(families=["sealed-auction"])).run()
    assert report.ok, [f"{v.scenario}: {v.message}" for v in report.violations]
    rows = report.axis_table("family")
    assert rows == [("sealed-auction", report.scenarios, 0)]
    # both the hedged (p1) and unhedged base (p0) forms are swept
    schedules = {value for value, _, _ in report.axis_table("schedule")}
    assert "p0/honest" in schedules
    assert any(s.startswith("p1/") for s in schedules)


# ----------------------------------------------------------------------
# striped dispatch layout
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 6000), workers=st.integers(1, 64))
def test_layout_covers_every_index_once_in_few_groups(n, workers):
    layout = dispatch_layout(n, workers)
    assert sorted(i for group in layout for i in group) == list(range(n))
    assert len(layout) <= workers * TASKS_PER_WORKER
    assert all(len(group) for group in layout)
    assert layout == dispatch_layout(n, workers)  # a function of (n, workers)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6000),
    workers=st.integers(1, 64),
    start=st.integers(0, 5999),
    size=st.integers(1, 6000),
)
def test_layout_spreads_any_contiguous_block_over_every_group(
    n, workers, start, size
):
    start = min(start, n - 1)
    end = min(n, start + size)
    layout = dispatch_layout(n, workers)
    cap = math.ceil((end - start) / len(layout))
    assert all(
        sum(start <= i < end for i in group) <= cap for group in layout
    )


def _multi_party_block(matrix: ScenarioMatrix) -> None:
    graph = complete_graph(4)
    instance = HedgedMultiPartySwap(graph=graph, premium=1).build()
    matrix.add_block(
        family="multi-party",
        schedule="complete4/p1",
        builder=lambda: HedgedMultiPartySwap(graph=graph, premium=1).build(),
        properties=(properties.no_stuck_escrow, properties.multi_party_lemmas),
        strategies={
            party: halt_strategies(instance.horizon) for party in instance.actors
        },
    )


def _two_party_block(matrix: ScenarioMatrix, schedule: str) -> None:
    matrix.add_block(
        family="two-party",
        schedule=schedule,
        builder=two_party_builder,
        properties=(properties.no_stuck_escrow, properties.two_party_hedged),
        strategies={p: halt_strategies(8) for p in ("Alice", "Bob")},
        max_adversaries=2,
    )


@register_matrix_factory("test-lopsided")
def lopsided_matrix(expensive_first: bool) -> ScenarioMatrix:
    """One costly multi-party block beside two cheap two-party ones."""
    matrix = ScenarioMatrix()
    if expensive_first:
        _multi_party_block(matrix)
    _two_party_block(matrix, "a")
    _two_party_block(matrix, "b")
    if not expensive_first:
        _multi_party_block(matrix)
    matrix.spec = MatrixSpec(
        factory="test-lopsided", kwargs=(("expensive_first", expensive_first),)
    )
    return matrix


@pytest.mark.parametrize("expensive_first", [True, False])
def test_serial_process_and_pooled_runs_agree_whatever_the_block_order(
    expensive_first,
):
    def run(**kwargs):
        return CampaignRunner(lopsided_matrix(expensive_first), **kwargs).run()

    serial = run()
    process = run(backend="process", workers=2)
    with WorkerPool(workers=2) as pool:
        pooled = run(backend="process", pool=pool)
    assert (process.backend, pooled.backend) == ("process", "process")
    expected = [r.digest for r in serial.results]
    for report in (process, pooled):
        assert [r.index for r in report.results] == list(range(len(expected)))
        assert [r.digest for r in report.results] == expected
        assert report.run_digest == serial.run_digest


def test_traced_striped_process_run_matches_untraced():
    matrix = lopsided_matrix(expensive_first=True)
    untraced = CampaignRunner(matrix, backend="process", workers=2).run()
    tracer = Tracer()
    traced = CampaignRunner(
        matrix, backend="process", workers=2, tracer=tracer
    ).run()
    assert traced.run_digest == untraced.run_digest
    assert [r.digest for r in traced.results] == [
        r.digest for r in untraced.results
    ]
    # every scenario's worker sample made it home inside a task reply
    counters = dict(tracer.metrics.snapshot().counters)
    assert sum(
        value for name, value in counters.items() if name.endswith(".scenarios")
    ) == len(matrix)


def test_metered_hook_runs_once_per_scenario_on_both_pool_lifetimes(monkeypatch):
    # Wrap the hook before any fork, the way perfbench's layer tracer does:
    # a counter rides home inside each scenario's worker sample.
    original = runner_module._run_at_metered

    def counting(scenario):
        result, sample = original(scenario)
        return result, sample.merge(MetricsSnapshot(counters=(("hook.calls", 1),)))

    monkeypatch.setattr(runner_module, "_run_at_metered", counting)
    matrix = lopsided_matrix(expensive_first=True)

    def hook_calls(**kwargs) -> int:
        tracer = Tracer()
        report = CampaignRunner(
            matrix, backend="process", tracer=tracer, **kwargs
        ).run()
        assert report.backend == "process"
        return dict(tracer.metrics.snapshot().counters).get("hook.calls", 0)

    assert hook_calls(workers=2) == len(matrix)
    with WorkerPool(workers=2) as pool:
        assert hook_calls(pool=pool) == len(matrix)
        assert hook_calls(pool=pool) == len(matrix)  # already-forked workers


# ----------------------------------------------------------------------
# a worker lost mid-dispatch ends the run instead of hanging it
# ----------------------------------------------------------------------
def _kill_if_worker(parent: int):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return two_party_builder()


@register_matrix_factory("test-suicidal")
def suicidal_matrix(parent: int) -> ScenarioMatrix:
    """Two cheap blocks around a one-scenario block whose build kills any
    process but ``parent``."""
    matrix = ScenarioMatrix()
    _two_party_block(matrix, "a")
    matrix.add_block(
        family="suicide",
        schedule="kill",
        builder=lambda: _kill_if_worker(parent),
        properties=(),
        strategies={},
    )
    _two_party_block(matrix, "b")
    matrix.spec = MatrixSpec(factory="test-suicidal", kwargs=(("parent", parent),))
    return matrix


@contextmanager
def _deadline(seconds: int):
    """Fail instead of hanging the suite if dispatch never returns."""

    def expire(signum, frame):
        raise AssertionError(f"dispatch still hung after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_killed_worker_ends_a_one_shot_run_with_worker_lost_error():
    matrix = suicidal_matrix(parent=os.getpid())
    with _deadline(60), pytest.raises(WorkerLostError, match=r"pid \d+ .*SIGKILL"):
        CampaignRunner(matrix, backend="process", workers=2).run()


def test_killed_worker_ends_a_pooled_run_and_the_pool_recovers():
    matrix = suicidal_matrix(parent=os.getpid())
    with WorkerPool(workers=2) as pool:
        with _deadline(60), pytest.raises(WorkerLostError, match="SIGKILL"):
            CampaignRunner(matrix, backend="process", pool=pool).run()
        assert not pool.started  # torn down: the lost task can never reply
        report = CampaignRunner(
            default_matrix(families=["bootstrap"]), backend="process", pool=pool
        ).run()
    assert report.ok and report.backend == "process"


def test_worker_pool_exit_on_error_terminates_instead_of_waiting():
    with pytest.raises(KeyError):
        with WorkerPool(workers=2) as pool:
            pool._ensure_started()
            raise KeyError("boom")
    assert not pool.started
