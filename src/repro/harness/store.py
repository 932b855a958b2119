"""Persistent, content-addressed store of simulation results.

Each :class:`~repro.harness.spec.ExperimentSpec` is addressed by
``sha256(spec canonical JSON)`` *within a directory named by the code
fingerprint* — a hash over every ``repro`` source file.  Any edit to the
simulator (or policies, workload generators, ...) therefore lands in a
fresh namespace and can never serve stale results; old namespaces are
just directories that ``prune()`` can drop.

Layout::

    <root>/<fingerprint[:16]>/<spec-key[:2]>/<spec-key>.json

Each entry file holds ``{"spec": ..., "result": ..., "fingerprint": ...}``
and is written atomically (tempfile + rename), so concurrent workers and
concurrent processes may share one store without locking: the worst case
is both simulating the same point and one rename winning, which is
harmless because results are deterministic.

The default root is ``~/.cache/repro-care/results``; override with the
``REPRO_RESULT_STORE`` environment variable (set it to ``0``, ``off`` or
the empty string to disable persistence entirely), which
:mod:`repro.harness.config` reads.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from ..sim.stats import SimResult
from .spec import ExperimentSpec

log = logging.getLogger(__name__)

_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of every ``repro`` package source file (path + contents).

    Computed once per process; ~60 small files, so the cost is a few
    milliseconds on first use.  Worker-safe memo: the value is a pure
    function of the installed source tree, so every task in a warm
    worker computes (or reuses) the identical string.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        pkg_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(pkg_root.rglob("*.py")):
            digest.update(str(path.relative_to(pkg_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint_cache = digest.hexdigest()  # simsan: skip=SS601
    return _fingerprint_cache


@dataclass
class FsckReport:
    """What ``ResultStore.fsck`` found and did."""

    scanned: int = 0
    ok: int = 0
    quarantined: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)   # per-file reasons

    def summary(self) -> str:
        return (f"fsck: {self.scanned} entr(ies) scanned, {self.ok} ok, "
                f"{len(self.quarantined)} quarantined")


class ResultStore:
    """On-disk result cache shared by benchmarks, examples, and the CLI."""

    def __init__(self, root: Union[str, Path],
                 fingerprint: Optional[str] = None) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0

    # -- paths ----------------------------------------------------------
    @property
    def namespace(self) -> Path:
        return self.root / self.fingerprint[:16]

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine" / self.fingerprint[:16]

    def path_for(self, spec: ExperimentSpec) -> Path:
        key = spec.key()
        return self.namespace / key[:2] / f"{key}.json"

    # -- access ---------------------------------------------------------
    def __contains__(self, spec: ExperimentSpec) -> bool:
        return self.path_for(spec).is_file()

    def get(self, spec: ExperimentSpec) -> Optional[SimResult]:
        """The stored result for ``spec``, or ``None`` on a miss.

        A corrupt or truncated entry (torn write, bad disk, chaos) is
        *quarantined* — moved aside under ``quarantine/`` with a warning
        — instead of silently shadowing the key forever; the caller sees
        a miss and a fresh simulation rewrites the entry.
        """
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
            result = SimResult.from_dict(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            self._quarantine(path, reason=f"{type(exc).__name__}: {exc}")
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: ExperimentSpec, result: SimResult) -> Path:
        """Persist ``result`` under ``spec``'s key (atomic rename)."""
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {"fingerprint": self.fingerprint, "spec": spec.to_dict(),
             "result": result.to_dict()},
            sort_keys=True, separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1
        return path

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
            log.warning("could not quarantine corrupt entry %s: %s",
                        path, exc)
            return None
        self.quarantined += 1
        log.warning("quarantined corrupt store entry %s (%s)",
                    path.name, reason or "unreadable")
        return target

    # -- maintenance ----------------------------------------------------
    def entries(self) -> Iterator[Path]:
        yield from self.namespace.glob("*/*.json")

    def load_entries(self) -> Iterator[tuple]:
        """Yield ``(ExperimentSpec, SimResult)`` for every readable entry.

        Deterministic order (sorted paths); unreadable or foreign files
        are skipped, mirroring :meth:`get`.  This is the report
        generator's input.
        """
        for path in sorted(self.entries()):
            try:
                payload = json.loads(path.read_text())
                spec = ExperimentSpec.from_dict(payload["spec"])
                result = SimResult.from_dict(payload["result"])
            except (OSError, KeyError, TypeError, ValueError,
                    json.JSONDecodeError):
                continue
            yield spec, result

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def fsck(self) -> FsckReport:
        """Scan the current namespace; quarantine corrupt entries.

        An entry is healthy when it parses as JSON, carries ``spec`` and
        ``result`` payloads that round-trip through their classes, and
        sits under the filename matching its spec's content key.
        Anything else — truncated writes, bit rot, hand-edited or
        misfiled entries — moves to ``quarantine/`` and is reported, so
        the next sweep re-simulates those points instead of serving
        garbage or silently missing forever.
        """
        report = FsckReport()
        for path in sorted(self.entries()):
            report.scanned += 1
            reason = None
            try:
                payload = json.loads(path.read_text())
                spec = ExperimentSpec.from_dict(payload["spec"])
                SimResult.from_dict(payload["result"])
                if spec.key() != path.stem:
                    reason = (f"key mismatch: spec hashes to "
                              f"{spec.key()[:12]}..., filed as "
                              f"{path.stem[:12]}...")
            except (OSError, KeyError, TypeError, ValueError,
                    json.JSONDecodeError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
            if reason is None:
                report.ok += 1
                continue
            report.errors.append(f"{path.name}: {reason}")
            moved = self._quarantine(path, reason=reason)
            if moved is not None:
                report.quarantined.append(str(moved))
        return report

    def prune_stale(self) -> int:
        """Drop namespaces belonging to older code fingerprints."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for child in self.root.iterdir():
            if (child.is_dir() and child != self.namespace
                    and child.name != "quarantine"):
                shutil.rmtree(child, ignore_errors=True)
                removed += 1
        return removed

    def clear(self) -> None:
        shutil.rmtree(self.namespace, ignore_errors=True)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "quarantined": self.quarantined}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultStore({str(self.namespace)!r}, hits={self.hits}, "
                f"misses={self.misses}, writes={self.writes})")


_default_store: Optional[ResultStore] = None
_default_resolved = False


def default_store() -> Optional[ResultStore]:
    """Process-wide store from ``REPRO_RESULT_STORE`` (``None`` if disabled
    or the directory cannot be created)."""
    global _default_store, _default_resolved
    if not _default_resolved:
        from .config import result_store_root
        _default_resolved = True
        root = result_store_root()
        if root is None:
            _default_store = None
        else:
            store = ResultStore(root)
            try:
                store.namespace.mkdir(parents=True, exist_ok=True)
                _default_store = store
            except OSError:
                _default_store = None
    return _default_store


def set_default_store(store: Optional[ResultStore]) -> None:
    """Install ``store`` process-wide (tests use this with a tmp dir)."""
    global _default_store, _default_resolved
    _default_store = store
    _default_resolved = True


def reset_default_store() -> None:
    """Forget the cached default; next use re-reads the environment."""
    global _default_store, _default_resolved
    _default_store = None
    _default_resolved = False
