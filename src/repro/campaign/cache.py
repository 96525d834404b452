"""The incremental result cache: skip scenario blocks already verified.

Scenario digests are stable across backends and process layouts, so a
block of scenarios that was executed and verified once — at a given code
version — need not run again: its :class:`~repro.campaign.scenario.
ScenarioResult` list *is* the outcome, byte for byte.  This is the
ROADMAP's incremental-campaign-cache item, and what makes 10^5+-scenario
matrices re-runnable after small grid edits: only the blocks the edit
touched miss.

**Keying.**  A cache entry is content-addressed by

- the **code version** — a digest over every ``repro`` source file, so any
  change to the engine or the protocols invalidates the whole cache (a
  stale hit can never mask a behavior change), and
- the **block descriptor** — :meth:`MatrixBlock.describe`
  (family, schedule, the block's explicit ``builder_id``, strategy
  labels, axes, property names) plus the block's scenario count.

The descriptor names the builder but cannot see parameters captured
inside its closure (see :meth:`ScenarioMatrix.digest`), so the runner
only consults the cache for matrices built by a *registered factory*
(``matrix.spec`` set): those build purely from primitive arguments,
every one of which the shipped factories render into the schedule label
or the extra axes — the same audit contract persistent worker pools rely
on.  Keying on the block
rather than the whole spec is deliberate: a refinement probe
(``ablation_cell``) produces the identical block as the full grid's cell,
so a lattice run warms the bisection that follows it.

**Storage.**  One JSON file per block under the cache root, written
atomically (temp file + rename) with *block-local* scenario indices so an
entry is position-independent; the runner rebases to global indices on
load.  Only blocks whose every scenario passed its properties are stored
— the cache holds verified outcomes, a violating block re-runs live each
time so regressions keep reproducing with fresh traces.  A corrupt or
mismatched entry reads as a miss, never an error.

**Read memo.**  :meth:`ResultCache.get_entry` keeps up to
:data:`READ_MEMO_ENTRIES` decoded entries in memory, each with the
``(st_ino, st_size, st_mtime_ns)`` signature of the file it was read
from, so a warm hit costs one ``os.stat`` and one dict lookup instead of
an open, a JSON parse and a decode.  Every call stats the entry file
first: a vanished file is an absent miss, and a changed signature
re-reads and re-validates the file.  This stays coherent with every
other writer of a shared cache root because writers publish through a
temp file and ``os.replace``, which gives the entry a new inode while
the old one is still linked.  The one limit: a writer that bypasses
:meth:`~ResultCache.put_entry` and overwrites an entry in place with
content of the same size, within one filesystem timestamp tick, leaves
the signature unchanged, so the payload verified before for that same
key can still be served.  Only decoded, immutable values are memoized;
a payload that fails to decode is a corrupt miss and is never kept.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from hashlib import sha256
from pathlib import Path
from typing import Callable

from repro import codec
from repro.campaign.scenario import ScenarioResult

_CODE_VERSION: str | None = None

#: orphaned ``.tmp-*`` writer files older than this are swept on cache open.
TEMP_SWEEP_AGE_SECONDS = 3600.0

#: decoded entries one cache object keeps in its read memo (see *Read
#: memo* above); far above the distinct rows a quote workload reads.
READ_MEMO_ENTRIES = 1024


def code_version(refresh: bool = False) -> str:
    """Digest of every ``repro`` source file: the cache's freshness key.

    Memoized per process — the hot path (one key per block) must not
    re-hash the tree.  Any edit anywhere in the package — engine,
    protocols, contracts — changes it, so cached results can never outlive
    the code that produced them.  The memo itself can outlive an edit in a
    long-lived process (a persistent pool, a future campaign service):
    pass ``refresh=True`` — or call :func:`invalidate_code_version` —
    to force a re-hash of the current on-disk sources.
    """
    global _CODE_VERSION
    if refresh:
        _CODE_VERSION = None
    if _CODE_VERSION is None:
        root = Path(__file__).resolve().parent.parent  # src/repro
        # sorted() here is load-bearing (and FLOW002-guarded): rglob
        # yields filesystem enumeration order, which differs across
        # hosts and checkouts, and the digest below encodes file order.
        paths = sorted(root.rglob("*.py"), key=lambda p: _source_key(root, p))
        _CODE_VERSION = _hash_sources(root, paths)
    return _CODE_VERSION


def _source_key(root: Path, path: Path) -> str:
    """The canonical identity of one source file: posix relative path.

    Explicitly ``as_posix()`` so both the *sort order* and the *hashed
    name* are byte-identical across platforms — ``str(relative)`` would
    hash ``campaign\\cache.py`` on Windows and ``campaign/cache.py`` on
    POSIX, silently forking the code-version key (and with it every
    cache entry) between hosts sharing a cache directory.
    """
    return path.relative_to(root).as_posix()


def _hash_sources(root: Path, paths) -> str:
    """Digest source files by (posix relative name, content) pairs.

    Re-sorts by :func:`_source_key` regardless of input order — callers
    (and tests) may hand files in any order and must get the same
    digest, which is exactly the filesystem-order independence the
    cache's freshness key promises.
    """
    digest = sha256()
    for path in sorted(paths, key=lambda p: _source_key(root, p)):
        digest.update(_source_key(root, path).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def invalidate_code_version() -> None:
    """Drop the process-wide :func:`code_version` memo.

    The next :func:`code_version` call re-hashes the on-disk sources —
    what a long-lived process must do after the tree changes underneath
    it, so a stale freshness key never vouches for new code.
    """
    global _CODE_VERSION
    _CODE_VERSION = None


class ResultCache:
    """A content-addressed store of verified scenario-block results.

    Telemetry: when a tracer is attached (the runner binds its own via
    the ``tracer`` property) the cache counts ``cache.hit``,
    ``cache.miss.absent`` / ``.corrupt`` / ``.violating``,
    ``cache.read`` (entry files opened and parsed; a read-memo hit opens
    none), ``cache.store`` / ``cache.store.skipped`` and
    ``cache.sweep.removed``.
    Counters observed before a tracer attaches (the constructor's temp
    sweep) buffer and flush on attachment.  All of it is digest-inert:
    nothing counted here feeds a key, an entry, or a report digest.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._tracer = None
        self._pending_counts: dict[str, float] = {}
        #: key -> (path, file signature, decode, decoded value)
        self._memo: dict[str, tuple] = {}
        self.sweep_temps()

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        if tracer is not None and self._pending_counts:
            for name, amount in sorted(self._pending_counts.items()):
                tracer.inc(name, amount)
            self._pending_counts = {}

    def _count(self, name: str, amount: float = 1) -> None:
        if self._tracer is not None:
            self._tracer.inc(name, amount)
        elif name.startswith("cache.sweep"):
            # Only the constructor's sweep fires before a tracer can
            # attach, so only sweep counts buffer; anything else observed
            # while untraced (an earlier warm-up run against the same
            # cache object) is deliberately dropped — a tracer must see
            # its own run's history, not its predecessors'.
            self._pending_counts[name] = (
                self._pending_counts.get(name, 0) + amount
            )

    def sweep_temps(
        self, max_age_seconds: float = TEMP_SWEEP_AGE_SECONDS
    ) -> int:
        """Remove orphaned ``.tmp-*`` files left by crashed writers.

        Only temps older than ``max_age_seconds`` go — a younger temp may
        belong to a concurrent campaign mid-write (the atomic-rename
        protocol makes in-flight temps short-lived, so an hour-old one is
        certainly dead).  Returns the number removed; every error is a
        skip, never a failure — sweeping is opportunistic hygiene.
        """
        # Wall time compares file mtimes for hygiene only; it never
        # reaches a digest or report.
        now = time.time()  # lint: disable=DET001
        removed = 0
        try:
            candidates = list(self.root.glob(".tmp-*"))
        except OSError:
            return 0
        for path in candidates:
            try:
                if now - path.stat().st_mtime >= max_age_seconds:
                    path.unlink()
                    removed += 1
            except OSError:
                continue
        if removed:
            self._count("cache.sweep.removed", removed)
        return removed

    def block_key(self, block_describe: str, size: int) -> str:
        """The content address of one matrix block's result list."""
        return sha256(
            f"v={code_version()}|n={size}|{block_describe}".encode()
        ).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _read(self, path: str | Path) -> tuple[tuple, object] | None:
        """(file signature, parsed JSON) of one entry file, or None.

        The signature comes from the open handle, so it describes exactly
        the bytes parsed even if a writer replaces the file meanwhile.
        A missing file counts an absent miss, an unreadable or non-JSON
        one a corrupt miss.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                self._count("cache.read")
                signature = _signature(os.fstat(handle.fileno()))
                return signature, json.load(handle)
        except FileNotFoundError:
            self._count("cache.miss.absent")
        except (OSError, ValueError):
            self._count("cache.miss.corrupt")
        return None

    def get(self, key: str, size: int) -> list[ScenarioResult] | None:
        """The cached results (block-local indices), or None on any miss.

        A malformed entry, a key mismatch, a size mismatch, or an entry
        recording a violation all read as misses — the cache only ever
        short-circuits work it can vouch for.  The stored ``"key"`` field
        must equal the requested key: a copied or renamed entry file would
        otherwise be served under an address its contents never earned.
        """
        read = self._read(self._path(key))
        if read is None:
            return None
        data = read[1]
        if not isinstance(data, dict) or data.get("key") != key:
            self._count("cache.miss.corrupt")
            return None
        try:
            results = codec.decode(
                list[ScenarioResult], data.get("results"), "results"
            )
        except ValueError:
            self._count("cache.miss.corrupt")
            return None
        if len(results) != size:
            self._count("cache.miss.corrupt")
            return None
        if any(result.violations for result in results):
            self._count("cache.miss.violating")
            return None
        self._count("cache.hit")
        return results

    def put(self, key: str, results: list[ScenarioResult]) -> bool:
        """Store one fully-verified block; returns False when ineligible.

        Blocks with violations are never stored (see the module doc).  The
        write is atomic so concurrent campaigns sharing a cache root can
        only ever observe complete entries.
        """
        if any(result.violations for result in results):
            self._count("cache.store.skipped")
            return False
        payload = json.dumps(
            {"key": key, "results": [codec.encode(r) for r in results]},
            indent=None,
            separators=(",", ":"),
        )
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            self._count("cache.store.skipped")
            return False
        self._count("cache.store")
        return True

    # ------------------------------------------------------------------
    # generic JSON entries (refined-row store, future derived artifacts)
    # ------------------------------------------------------------------
    def get_entry(
        self, key: str, decode: Callable[[dict], object] | None = None
    ):
        """The JSON payload stored under ``key`` — passed through
        ``decode`` when given — or None on a miss.

        Same miss discipline as :meth:`get`: malformed entries, key
        mismatches and payloads ``decode`` rejects (``KeyError``,
        ``TypeError``, ``ValueError``) read as misses, never errors — a
        derived-artifact store can only ever short-circuit work it can
        vouch for.  Decoded values are served from the read memo (see
        the module doc) while the entry file's signature holds, so
        ``decode`` must return an immutable value.  A raw payload
        (``decode=None``) is a fresh dict per call and is not memoized.
        """
        memo = self._memo.get(key)
        if memo is not None:
            path, signature, memo_decode, value = memo
            try:
                current = _signature(os.stat(path))
            except FileNotFoundError:
                del self._memo[key]
                self._count("cache.miss.absent")
                return None
            except OSError:
                current = None  # re-read below, which counts the miss
            if current == signature and memo_decode is decode:
                self._count("cache.hit")
                return value
            del self._memo[key]
        path = str(self._path(key))
        read = self._read(path)
        if read is None:
            return None
        signature, data = read
        if not isinstance(data, dict) or data.get("key") != key:
            self._count("cache.miss.corrupt")
            return None
        payload = data.get("payload")
        if not isinstance(payload, dict):
            self._count("cache.miss.corrupt")
            return None
        if decode is not None:
            try:
                payload = decode(payload)
            except (KeyError, TypeError, ValueError):
                self._count("cache.miss.corrupt")
                return None
            if len(self._memo) >= READ_MEMO_ENTRIES:
                del self._memo[next(iter(self._memo))]
            self._memo[key] = (path, signature, decode, payload)
        self._count("cache.hit")
        return payload

    def put_entry(self, key: str, payload: dict) -> bool:
        """Store a generic JSON payload under ``key`` (atomic write)."""
        self._memo.pop(key, None)
        text = json.dumps(
            {"key": key, "payload": payload},
            indent=None,
            separators=(",", ":"),
            sort_keys=True,
        )
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            self._count("cache.store.skipped")
            return False
        self._count("cache.store")
        return True


def _signature(stat: os.stat_result) -> tuple[int, int, int]:
    """What identifies one published version of an entry file."""
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


_SHARED_CACHES: dict[Path, ResultCache] = {}


def shared_cache(root: str | os.PathLike) -> ResultCache:
    """The process-wide :class:`ResultCache` for ``root`` (memoized).

    Every in-process consumer of one cache directory — a CLI run, the
    quote engine's tier-2/3 ladder, refinement probes — must share one
    warm object, both so cheap re-lookups stay in the same open store and
    so a tracer attached by one consumer sees the whole run's counters.
    Keyed on the resolved path, so ``.cache`` and ``./cache`` coalesce.
    """
    resolved = Path(root).resolve()
    cache = _SHARED_CACHES.get(resolved)
    if cache is None:
        cache = ResultCache(resolved)
        _SHARED_CACHES[resolved] = cache
    return cache
