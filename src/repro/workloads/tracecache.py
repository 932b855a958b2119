"""Content-addressed on-disk cache for generated workload traces.

Every sweep point sharing a ``(suite, workload, seed, n_records, scale)``
tuple regenerates the identical synthetic trace — a policy matrix at one
core count regenerates it once *per policy*, and a paper-scale campaign
(100 mixes x policies x core counts) pays that cost thousands of times.
The :class:`TraceCache` generates each distinct trace once and serves
every later request from disk (and from a small in-process memo, which
is what makes persistent warm workers nearly generation-free).

Addressing mirrors :class:`~repro.harness.store.ResultStore`:

* the **key** is ``sha256`` over the canonical JSON of the generation
  parameters (:func:`trace_key`);
* the **namespace** is a fingerprint over the workload-generator sources
  (plus ``sim/config.py``, whose ``BLOCK_SIZE`` shapes addresses), so
  editing a generator can never serve stale traces;
* entries are written atomically (tempfile + rename) in the native
  ``.rtrc.gz`` format of :mod:`repro.workloads.io`, are fsck-able
  (:meth:`TraceCache.fsck`), and corrupt entries are quarantined on
  read instead of poisoning sweeps.

Byte-identity contract: a cached trace must round-trip *exactly* —
:func:`repro.workloads.io.save_trace` clamps ``gap`` to 16 bits, so any
record the format cannot represent losslessly makes the trace
uncacheable (generated fresh every time) rather than subtly different.
The golden-equivalence suite pins this: fixtures reproduce byte-for-byte
with the cache cold, warm, and disabled.

A run names its cache directory in its
:class:`~repro.harness.config.RunConfig` (the ``--trace-cache`` CLI
flag, else ``REPRO_TRACE_CACHE``, default ``~/.cache/repro-care/traces``;
``0``/``off``/``none``/empty disables it).  Each process keeps one
:class:`TraceCache` per directory (:func:`trace_cache_for`), so a warm
worker keeps its in-memory memo from task to task.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from .io import load_trace, save_trace
from .trace import Trace

log = logging.getLogger(__name__)

#: trace-key schema — bump when key semantics change
KEY_VERSION = 1

#: max gap value the native format stores losslessly (u16)
MAX_GAP = 0xFFFF
_MAX_U64 = (1 << 64) - 1

#: in-process memo entries kept per cache (FIFO).  Sized for a sweep's
#: working set (one workload tuple is reused across a whole policy
#: matrix) while bounding memory for paper-scale traces.
MEMO_ENTRIES = 16

_fingerprint_cache: Optional[str] = None


def workloads_fingerprint() -> str:
    """Hash of the trace-generation sources (the cache namespace).

    Narrower than the result store's whole-package fingerprint on
    purpose: traces depend only on ``repro.workloads`` and the geometry
    constants in ``repro/sim/config.py``, so a policy or harness edit
    keeps every cached trace valid.
    """
    # SS601: content-addressed memo — every process (parent or warm
    # worker) computes the identical digest from on-disk sources, so a
    # stale value cannot exist and the write is idempotent.
    global _fingerprint_cache
    if _fingerprint_cache is None:
        pkg_root = Path(__file__).resolve().parent
        paths = sorted(pkg_root.glob("*.py"))
        paths.append(pkg_root.parent / "sim" / "config.py")
        digest = hashlib.sha256()
        for path in paths:
            digest.update(path.name.encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint_cache = digest.hexdigest()  # simsan: skip=SS601
    return _fingerprint_cache


def trace_key(kind: str, name: str, n_records: int, seed: int,
              scale: int) -> str:
    """Content hash of one generation request (the cache address)."""
    payload = json.dumps(
        {"key_version": KEY_VERSION, "kind": kind, "name": name,
         "n_records": n_records, "seed": seed, "scale": scale},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _representable(trace: Trace) -> bool:
    """True when the native format round-trips ``trace`` losslessly."""
    for rec in trace.records:
        if not (0 <= rec.gap <= MAX_GAP):
            return False
        if not (0 <= rec.pc <= _MAX_U64 and 0 <= rec.addr <= _MAX_U64):
            return False
    return True


class TraceCache:
    """Keyed on-disk trace cache (layout and hardening like ResultStore).

    Layout::

        <root>/<workloads_fingerprint[:16]>/<key[:2]>/<key>.rtrc.gz
    """

    def __init__(self, root: Union[str, Path],
                 fingerprint: Optional[str] = None,
                 chaos: Optional[Any] = None) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint or workloads_fingerprint()
        #: the run's :class:`~repro.checks.chaos.ChaosConfig` (its
        #: ``corrupt`` fault tears fresh entries), or ``None``
        self.chaos = chaos
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.memo_hits = 0
        self.quarantined = 0
        self._memo: "OrderedDict[str, Trace]" = OrderedDict()

    # -- paths ----------------------------------------------------------
    @property
    def namespace(self) -> Path:
        return self.root / self.fingerprint[:16]

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine" / self.fingerprint[:16]

    def path_for(self, key: str) -> Path:
        return self.namespace / key[:2] / f"{key}.rtrc.gz"

    # -- access ---------------------------------------------------------
    def get(self, key: str) -> Optional[Trace]:
        """The cached trace for ``key``, or ``None`` on a miss.

        Unreadable entries (torn writes, chaos corruption, foreign
        files) are quarantined and reported as a miss, so the caller
        regenerates and rewrites the entry.
        """
        memo = self._memo.get(key)
        if memo is not None:
            self.memo_hits += 1
            return memo
        path = self.path_for(key)
        try:
            trace = load_trace(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, EOFError, KeyError, ValueError,
                struct.error) as exc:
            self._quarantine(path, reason=f"{type(exc).__name__}: {exc}")
            self.misses += 1
            return None
        self.hits += 1
        self._remember(key, trace)
        return trace

    def put(self, key: str, trace: Trace) -> Optional[Path]:
        """Persist ``trace`` under ``key`` (atomic rename).

        Returns ``None`` without writing when the native format cannot
        represent the trace losslessly — caching such a trace would
        break result byte-identity, which outranks throughput.
        """
        if not _representable(trace):
            log.debug("trace %s not representable losslessly; not cached",
                      trace.name)
            return None
        self._remember(key, trace)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".gz")
        try:
            os.close(fd)
            save_trace(trace, tmp)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1
        self._maybe_chaos_corrupt(key, path)
        return path

    def _remember(self, key: str, trace: Trace) -> None:
        self._memo[key] = trace
        self._memo.move_to_end(key)
        while len(self._memo) > MEMO_ENTRIES:
            self._memo.popitem(last=False)

    def clear_memo(self) -> None:
        self._memo.clear()

    def _maybe_chaos_corrupt(self, key: str, path: Path) -> None:
        """Chaos hook: the ``corrupt`` fault truncates selected fresh
        entries, exercising quarantine/fsck against real torn files."""
        from ..checks.chaos import corrupt_entry
        if self.chaos is not None and corrupt_entry(self.chaos, key, path):
            log.debug("chaos: corrupted trace cache entry %s", path.name)

    def _quarantine(self, path: Path, reason: str = "") -> Optional[Path]:
        """Move a bad entry into ``quarantine/`` (never raises)."""
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / path.name
            suffix = 0
            while target.exists():
                suffix += 1
                target = self.quarantine_dir / f"{path.name}.{suffix}"
            os.replace(path, target)
        except OSError as exc:
            log.warning("could not quarantine corrupt trace entry %s: %s",
                        path, exc)
            return None
        self.quarantined += 1
        log.warning("quarantined corrupt trace cache entry %s (%s)",
                    path.name, reason or "unreadable")
        return target

    # -- maintenance ----------------------------------------------------
    def entries(self) -> Iterator[Path]:
        yield from self.namespace.glob("*/*.rtrc.gz")

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def fsck(self):
        """Scan the namespace; quarantine entries that cannot load.

        Healthy means: the file parses as a native trace and sits under
        the filename matching no *other* constraints — trace keys hash
        generation parameters that are not recoverable from the payload,
        so fsck validates readability, not re-derivable identity.
        Returns the same :class:`~repro.harness.store.FsckReport` shape
        the result store uses, so the CLI renders both uniformly.
        """
        from ..harness.store import FsckReport
        report = FsckReport()
        for path in sorted(self.entries()):
            report.scanned += 1
            try:
                load_trace(path)
            except (OSError, EOFError, KeyError, ValueError,
                    struct.error) as exc:
                reason = f"{type(exc).__name__}: {exc}"
                report.errors.append(f"{path.name}: {reason}")
                moved = self._quarantine(path, reason=reason)
                if moved is not None:
                    report.quarantined.append(str(moved))
                continue
            report.ok += 1
        return report

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "memo_hits": self.memo_hits,
                "quarantined": self.quarantined}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceCache({str(self.namespace)!r}, hits={self.hits}, "
                f"memo_hits={self.memo_hits}, misses={self.misses}, "
                f"writes={self.writes})")


# ----------------------------------------------------------------------
# One cache per directory per process
# ----------------------------------------------------------------------
#: sentinel: "the cache ``REPRO_TRACE_CACHE`` names" (``None`` is "off")
USE_DEFAULT_CACHE: Any = object()

#: the cache of the directory last asked for; asking for another one
#: replaces it, so a worker's memo follows the run it serves
_current: Optional[TraceCache] = None
_override: Optional[TraceCache] = None
_override_active = False


def trace_cache_for(root: Optional[str],
                    chaos: Optional[Any] = None) -> Optional[TraceCache]:
    """This process's cache for directory ``root`` (``None`` when
    ``root`` is ``None`` or the directory cannot be created).

    Repeated calls with the same directory and chaos profile return the
    same object, and with it the in-memory memo.
    """
    # SS601: a memo keyed by its arguments — a task asking for another
    # directory or chaos profile replaces it, so no task ever reads
    # another task's settings, and the cache it names is content-addressed.
    global _current
    if root is None:
        return None
    cache = _current
    if cache is None or cache.root != Path(root) or cache.chaos != chaos:
        cache = TraceCache(root, chaos=chaos)
        try:
            cache.namespace.mkdir(parents=True, exist_ok=True)
        except OSError:
            return None
        _current = cache  # simsan: skip=SS601
    return cache


def default_trace_cache() -> Optional[TraceCache]:
    """The cache ``REPRO_TRACE_CACHE`` names right now (``None`` if
    disabled or the directory cannot be created)."""
    if _override_active:
        return _override
    from ..harness.config import RunConfig
    return trace_cache_for(RunConfig.from_env().trace_cache)


def set_default_trace_cache(cache: Optional[TraceCache]) -> None:
    """Install ``cache`` as the default, ignoring the environment until
    :func:`reset_default_trace_cache` (tests use this with a tmp dir)."""
    global _override, _override_active
    _override = cache
    _override_active = True


def reset_default_trace_cache() -> None:
    """Drop the override and the per-process cache."""
    global _current, _override, _override_active
    _current = None
    _override = None
    _override_active = False


# ----------------------------------------------------------------------
# Cached generation entry points
# ----------------------------------------------------------------------
def generate_trace(kind: str, name: str, n_records: int, seed: int,
                   scale: int) -> Trace:
    """Generate one trace directly (the cache-miss path)."""
    if kind == "spec":
        from .spec_like import spec_trace
        return spec_trace(name, n_records=n_records, seed=seed, scale=scale)
    if kind == "gap":
        from .gap import gap_trace
        return gap_trace(name, n_records=n_records, seed=seed)
    if kind == "serve":
        from .serving import serve_trace
        return serve_trace(name, n_records=n_records, seed=seed, scale=scale)
    raise ValueError(
        f"unknown trace kind {kind!r} (want 'spec', 'gap' or 'serve')")


def cached_trace(kind: str, name: str, n_records: int, seed: int,
                 scale: int, cache: Any = USE_DEFAULT_CACHE) -> Trace:
    """One trace via ``cache``: memo -> disk -> generate (and persist).

    ``cache`` defaults to :func:`default_trace_cache`; ``None`` turns
    caching off, which makes this exactly a direct generator call.
    Generated traces round-trip the native format exactly (pinned by
    the golden suite), so enabling the cache can never change a result.
    """
    if kind == "gap":
        scale = 0  # gap generation has no scale knob; keep keys canonical
    if cache is USE_DEFAULT_CACHE:
        cache = default_trace_cache()
    if cache is None:
        return generate_trace(kind, name, n_records, seed, scale)
    key = trace_key(kind, name, n_records, seed, scale)
    trace = cache.get(key)
    if trace is None:
        trace = generate_trace(kind, name, n_records, seed, scale)
        try:
            cache.put(key, trace)
        except OSError as exc:   # full/readonly disk: generation still won
            log.warning("trace cache write failed: %s", exc)
    return trace
