"""Canonical-float and result-cache correctness fixes (ISSUE 6 satellites).

Pins:

- **fmt_fraction fixed point**: deeply-bisected premium fractions (below
  ``1e-4``, where ``repr`` switches to scientific notation) render in
  fixed point, parse back to the identical double, and never mix decimal
  and exponent forms across a grid of labels,
- **canon_float rejects non-finite values**: NaN and ±inf raise
  ``ValueError`` at the source instead of poisoning digests or JSON
  transport downstream,
- **ResultCache.get key verification**: a copied/renamed entry file whose
  stored ``"key"`` field disagrees with its address reads as a miss,
- **orphan temp sweep**: hour-old ``.tmp-*`` writer leftovers are removed
  on cache open, young ones (a concurrent writer mid-flight) survive,
- **code_version refresh**: the per-process memo can be dropped
  (``refresh=True`` / ``invalidate_code_version``) so a long-lived
  process re-hashes sources that changed underneath it,
- **get_entry read memo coherence**: a warm memo never outlives the
  entry file it was read from — a deleted file is a miss, another
  writer's ``put_entry`` is served, an in-place overwrite re-validates,
  an undecodable payload is never memoized, and the memo stays bounded.
"""

import json
import math
import os
import time

import pytest

from repro.campaign import ResultCache, ScenarioResult
from repro.campaign import cache as cache_module
from repro.campaign.cache import (
    TEMP_SWEEP_AGE_SECONDS,
    code_version,
    invalidate_code_version,
)
from repro.campaign.canon import canon_float, canon_opt, fmt_fraction


# ---------------------------------------------------------------------------
# fmt_fraction: fixed-point rendering (satellite 1)


def test_fmt_fraction_plain_values():
    assert fmt_fraction(0.025) == "0.025"
    assert fmt_fraction(0.0) == "0"
    assert fmt_fraction(-0.0) == "0"
    assert fmt_fraction(2.0) == "2"
    assert fmt_fraction(0.0328125) == "0.0328125"


@pytest.mark.parametrize(
    "value",
    [
        1e-05,
        5e-05,
        1.5e-05,
        2.44140625e-06,  # 0.01 / 2**12: a deeply-bisected premium
        9.5367431640625e-09,
        1e-10,
        -1e-05,
        -2.44140625e-06,
        1.2345678901234567e-05,
        7e-05,
    ],
)
def test_fmt_fraction_small_values_fixed_point(value):
    text = fmt_fraction(value)
    # Never scientific notation: labels across a grid must not mix forms.
    assert "e" not in text and "E" not in text
    # Value-preserving: the label parses back to the identical double.
    assert float(text) == canon_float(value)


def test_fmt_fraction_bisection_chain_injective():
    """Successive bisection midpoints below 1e-4 keep distinct labels."""
    lo, hi = 0.0, 0.01
    labels = set()
    values = []
    for _ in range(20):
        hi = (lo + hi) / 2
        values.append(hi)
        labels.add(fmt_fraction(hi))
    assert len(labels) == len(values)
    for value in values:
        assert float(fmt_fraction(value)) == value


def test_fmt_fraction_large_magnitudes_fixed_point():
    assert fmt_fraction(1e16) == "10000000000000000"
    assert float(fmt_fraction(1.25e17)) == 1.25e17


# ---------------------------------------------------------------------------
# canon_float: non-finite rejection (satellite 2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_canon_float_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="no canonical form"):
        canon_float(bad)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "Infinity"])
def test_canon_float_rejects_non_finite_strings(bad):
    with pytest.raises(ValueError):
        canon_float(bad)


def test_canon_opt_passthrough_and_rejection():
    assert canon_opt(None) is None
    assert canon_opt(-0.0) == 0.0
    assert math.copysign(1.0, canon_opt(-0.0)) == 1.0
    with pytest.raises(ValueError):
        canon_opt(float("nan"))


def test_canon_float_collapses_negative_zero():
    out = canon_float(-0.0)
    assert out == 0.0
    assert math.copysign(1.0, out) == 1.0
    assert repr(out) == "0.0"


# ---------------------------------------------------------------------------
# ResultCache: stored-key verification + temp sweeping (satellite 3)


def _result(index: int = 0) -> ScenarioResult:
    return ScenarioResult(
        index=index,
        label=f"cell-{index}",
        axes=(("family", "two-party"),),
        violations=(),
        transactions=3,
        reverted=0,
        premium_net=(("P1", 5),),
        elapsed_seconds=0.01,
        digest="0" * 64,
        metrics=(("completed", 1.0),),
    )


def test_cache_get_rejects_key_mismatch(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.block_key("block-a", 1)
    assert cache.put(key, [_result()])
    assert cache.get(key, 1) is not None
    # Simulate a copied/renamed entry: contents earned a different address.
    other = cache.block_key("block-b", 1)
    os.replace(cache._path(key), cache._path(other))
    assert cache.get(other, 1) is None
    # A doctored key field is equally refused.
    path = cache._path(other)
    data = json.loads(path.read_text())
    data["key"] = "not-the-address"
    path.write_text(json.dumps(data))
    assert cache.get(other, 1) is None


def test_cache_get_non_object_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.block_key("block-a", 1)
    cache._path(key).write_text("[1, 2]")
    assert cache.get(key, 1) is None
    assert cache.get_entry(key) is None


def test_cache_roundtrip_still_works(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.block_key("block-a", 2)
    results = [_result(0), _result(1)]
    assert cache.put(key, results)
    got = cache.get(key, 2)
    assert got == results


def test_cache_sweeps_stale_temps_on_open(tmp_path):
    stale = tmp_path / ".tmp-dead123.json"
    young = tmp_path / ".tmp-live456.json"
    entry = tmp_path / "deadbeef.json"
    for path in (stale, young, entry):
        path.write_text("{}")
    old = time.time() - TEMP_SWEEP_AGE_SECONDS - 10
    os.utime(stale, (old, old))
    ResultCache(tmp_path)
    assert not stale.exists()
    assert young.exists()  # may belong to a concurrent writer
    assert entry.exists()  # real entries are never swept


def test_cache_sweep_temps_returns_count(tmp_path):
    cache = ResultCache(tmp_path)
    for name in (".tmp-a.json", ".tmp-b.json"):
        path = tmp_path / name
        path.write_text("{}")
        old = time.time() - 7200
        os.utime(path, (old, old))
    assert cache.sweep_temps() == 2


# ---------------------------------------------------------------------------
# code_version: refresh / invalidate (satellite 4)


def test_code_version_memoized_and_refreshable(monkeypatch):
    baseline = code_version()
    assert code_version() == baseline  # memo: same process, same key

    import repro.campaign.cache as cache_mod

    # Simulate an edit landing under a long-lived process: poison the memo
    # and check both escape hatches re-derive the real on-disk digest.
    monkeypatch.setattr(cache_mod, "_CODE_VERSION", "stale-memo")
    assert code_version() == "stale-memo"
    assert code_version(refresh=True) == baseline

    monkeypatch.setattr(cache_mod, "_CODE_VERSION", "stale-memo")
    invalidate_code_version()
    assert code_version() == baseline


def test_code_version_tracks_source_changes(tmp_path, monkeypatch):
    """The digest is a real function of the tree: new source, new key."""
    import repro.campaign.cache as cache_mod

    src = tmp_path / "repro"
    (src / "campaign").mkdir(parents=True)
    (src / "a.py").write_text("x = 1\n")
    fake_file = src / "campaign" / "cache.py"
    fake_file.write_text("# stand-in\n")

    monkeypatch.setattr(cache_mod, "__file__", str(fake_file))
    invalidate_code_version()
    try:
        first = code_version()
        (src / "a.py").write_text("x = 2\n")
        assert code_version() == first  # memo still vouches
        assert code_version(refresh=True) != first  # re-hash sees the edit
    finally:
        monkeypatch.undo()
        invalidate_code_version()


def test_code_version_filesystem_order_independent(tmp_path):
    """The walk is sorted before hashing: shuffled input, same digest.

    This is the exact hazard FLOW002 exists to catch — a directory walk
    feeding a digest.  ``_hash_sources`` must be a pure function of the
    tree's *contents*, never of inode-creation order.
    """
    from repro.campaign.cache import _hash_sources, _source_key

    root = tmp_path
    (root / "zz.py").write_text("z = 1\n")
    pkg = root / "pkg"
    pkg.mkdir()
    (pkg / "aa.py").write_text("a = 2\n")
    (root / "mm.py").write_text("m = 3\n")

    paths = [root / "zz.py", pkg / "aa.py", root / "mm.py"]
    forward = _hash_sources(root, paths)
    assert _hash_sources(root, list(reversed(paths))) == forward
    assert _hash_sources(root, sorted(paths)) == forward


def test_source_key_is_posix_relative(tmp_path):
    """Sort keys are os.sep-independent so the digest ports across hosts."""
    from repro.campaign.cache import _source_key

    pkg = tmp_path / "pkg"
    pkg.mkdir()
    path = pkg / "mod.py"
    path.write_text("pass\n")
    assert _source_key(tmp_path, path) == "pkg/mod.py"


# ---------------------------------------------------------------------------
# get_entry read memo: one stat per warm hit, coherent with other writers


def _frozen(payload: dict) -> tuple:
    """A decoder returning an immutable value, as the memo requires."""
    return tuple(sorted(payload.items()))


def _counting_cache(root):
    from repro.obs import Tracer

    cache = ResultCache(root)
    cache.tracer = Tracer()
    return cache


def _count(cache, name: str) -> int:
    return int(cache.tracer.metrics.counter(name))


def _warm(cache, key="k", payload=None):
    """Store ``payload`` under ``key`` and read it twice: one file read,
    then a memo hit."""
    payload = {"v": 1} if payload is None else payload
    assert cache.put_entry(key, payload)
    for _ in range(2):
        assert cache.get_entry(key, decode=_frozen) == _frozen(payload)
    assert _count(cache, "cache.read") == 1
    assert _count(cache, "cache.hit") == 2


def test_memo_serves_a_warm_entry_without_reading_the_file(tmp_path):
    cache = _counting_cache(tmp_path)
    _warm(cache)
    # Without a decoder the payload is a fresh dict: read every call.
    assert cache.get_entry("k") == {"v": 1}
    assert _count(cache, "cache.read") == 2


def test_memo_deleted_entry_is_an_absent_miss(tmp_path):
    cache = _counting_cache(tmp_path)
    _warm(cache)
    cache._path("k").unlink()
    assert cache.get_entry("k", decode=_frozen) is None
    assert cache.get_entry("k", decode=_frozen) is None
    assert _count(cache, "cache.miss.absent") == 2
    assert _count(cache, "cache.read") == 1


def test_memo_serves_another_writers_replacement(tmp_path):
    cache = _counting_cache(tmp_path)
    _warm(cache)
    path = cache._path("k")
    before = path.stat()
    assert ResultCache(tmp_path).put_entry("k", {"v": 2})
    # Same size, and pinned to the same timestamp tick: only the new
    # inode tells the two versions apart.
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size
    assert cache.get_entry("k", decode=_frozen) == (("v", 2),)
    assert _count(cache, "cache.read") == 2


def test_memo_in_place_garbage_is_a_corrupt_miss(tmp_path):
    cache = _counting_cache(tmp_path)
    _warm(cache)
    path = cache._path("k")
    with open(path, "w", encoding="utf-8") as handle:  # same inode
        handle.write("not json at all")
    assert cache.get_entry("k", decode=_frozen) is None
    assert _count(cache, "cache.miss.corrupt") == 1
    assert _count(cache, "cache.read") == 2


def test_memo_never_keeps_a_payload_that_fails_to_decode(tmp_path):
    cache = _counting_cache(tmp_path)
    assert cache.put_entry("k", {"v": 1})  # passes the key check

    def strict(payload):
        return payload["missing"]

    for _ in range(3):
        assert cache.get_entry("k", decode=strict) is None
    assert _count(cache, "cache.miss.corrupt") == 3
    assert _count(cache, "cache.read") == 3
    assert _count(cache, "cache.hit") == 0


def test_memo_stays_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "READ_MEMO_ENTRIES", 3)
    cache = _counting_cache(tmp_path)
    keys = [f"k{i}" for i in range(5)]
    for i, key in enumerate(keys):
        assert cache.put_entry(key, {"v": i})
        assert cache.get_entry(key, decode=_frozen) == (("v", i),)
    assert len(cache._memo) == 3
    for key in keys[2:]:  # the newest three are still memoized
        cache.get_entry(key, decode=_frozen)
    assert _count(cache, "cache.read") == 5
    cache.get_entry(keys[0], decode=_frozen)  # the oldest was evicted
    assert _count(cache, "cache.read") == 6
    assert len(cache._memo) == 3
