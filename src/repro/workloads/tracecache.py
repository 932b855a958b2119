"""Content-addressed on-disk cache for generated workload traces.

Every sweep point sharing a ``(suite, workload, seed, n_records, scale)``
tuple regenerates the identical synthetic trace — a policy matrix at one
core count regenerates it once *per policy*, and a paper-scale campaign
(100 mixes x policies x core counts) pays that cost thousands of times.
The :class:`TraceCache` generates each distinct trace once and serves
every later request from disk (and from a small in-process memo, which
is what makes persistent warm workers nearly generation-free).

It is a :class:`~repro.durable.ContentStore`, like the result store:
the **key** hashes the generation parameters (:func:`trace_key`), the
**namespace** the workload-generator sources, the committed graph data
and ``sim/config.py`` (whose ``BLOCK_SIZE`` shapes addresses), and
entries are the native ``.rtrc.gz`` format (version 3) of
:mod:`repro.workloads.io`: the trace's four columns as blobs, gzip
level 1, decoded with one ``frombytes`` per column.  A torn or bit-flipped entry is quarantined
and regenerated.

Byte-identity contract: a cached trace must round-trip *exactly*.  The
format stores ``gap`` in 16 bits and its writer refuses a larger gap
rather than clamping it, so a trace with a gap above :data:`MAX_GAP` is
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
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..durable import ContentStore, source_fingerprint
from .io import MAX_GAP, encode_trace, load_trace
from .trace import Trace

log = logging.getLogger(__name__)

#: trace-key schema — bump when key semantics change
KEY_VERSION = 1

#: in-process memo entries kept per cache (FIFO).  Sized for a sweep's
#: working set (one workload tuple is reused across a whole policy
#: matrix) while bounding memory for paper-scale traces.
MEMO_ENTRIES = 16


def workloads_fingerprint() -> str:
    """Hash of the trace-generation sources (the cache namespace).

    Narrower than the result store's whole-package fingerprint on
    purpose: traces depend only on ``repro.workloads``, its graph data
    and the geometry constants in ``repro/sim/config.py``, so a policy
    or harness edit keeps every cached trace valid.
    """
    return source_fingerprint("workloads/*.py", "workloads/data/*",
                              "sim/config.py")


def trace_key(kind: str, name: str, n_records: int, seed: int,
              scale: int) -> str:
    """Content hash of one generation request (the cache address)."""
    payload = json.dumps(
        {"key_version": KEY_VERSION, "kind": kind, "name": name,
         "n_records": n_records, "seed": seed, "scale": scale},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class TraceCache(ContentStore):
    """Keyed on-disk trace cache with an in-process memo.

    Layout::

        <root>/<workloads_fingerprint[:16]>/<key[:2]>/<key>.rtrc.gz
    """

    SUFFIX = ".rtrc.gz"

    def __init__(self, root: Union[str, Path],
                 fingerprint: Optional[str] = None,
                 chaos: Optional[Any] = None) -> None:
        super().__init__(root, fingerprint or workloads_fingerprint())
        #: the run's :class:`~repro.checks.chaos.ChaosConfig` (its
        #: ``corrupt`` fault tears fresh entries), or ``None``
        self.chaos = chaos
        self.memo_hits = 0
        self._memo: "OrderedDict[str, Trace]" = OrderedDict()

    def path_for(self, key: str) -> Path:
        return self._path(key)

    def get(self, key: str) -> Optional[Trace]:
        """The cached trace for ``key``, or ``None`` on a miss (an
        unreadable entry is quarantined and is a miss too, so the caller
        regenerates and rewrites it)."""
        memo = self._memo.get(key)
        if memo is not None:
            self.memo_hits += 1
            return memo
        trace = self._load(self.path_for(key), load_trace)
        if trace is not None:
            self._remember(key, trace)
        return trace

    def put(self, key: str, trace: Trace) -> Optional[Path]:
        """Persist ``trace`` under ``key`` (atomic rename).

        Returns ``None`` without writing when the native format cannot
        represent the trace losslessly — caching such a trace would
        break result byte-identity, which outranks throughput.
        """
        if max(trace.gap, default=0) > MAX_GAP:
            log.debug("trace %s not representable losslessly; not cached",
                      trace.name)
            return None
        self._remember(key, trace)
        path = self._write(self.path_for(key), encode_trace(trace))
        if self.chaos is not None:
            from ..checks.chaos import corrupt_entry
            corrupt_entry(self.chaos, key, path)
        return path

    def _remember(self, key: str, trace: Trace) -> None:
        self._memo[key] = trace
        self._memo.move_to_end(key)
        while len(self._memo) > MEMO_ENTRIES:
            self._memo.popitem(last=False)

    def clear_memo(self) -> None:
        self._memo.clear()

    def _check(self, path: Path) -> None:
        """Healthy means the entry loads as a native trace: trace keys
        hash generation parameters the payload does not carry, so fsck
        checks readability, not identity."""
        load_trace(path)

    def stats(self) -> Dict[str, int]:
        return {**super().stats(), "memo_hits": self.memo_hits}


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
