"""One on-disk protocol for every artifact a run persists.

The result store, the trace cache and sweep manifests reach disk the
same way and treat a file they cannot read the same way:

* :func:`atomic_write` — a temp file beside the target, then
  ``os.replace``; the temp file is removed on any failure.
* :func:`load` — a missing file is a miss; a torn, bit-flipped or
  wrong-shape one (:data:`UNREADABLE`) is moved aside by
  :func:`quarantine` and is a miss too, so it costs a recomputation,
  never a crash; anything else (a bug in a decoder) propagates.
* :func:`fsck` — the one scan loop behind ``repro store fsck``.
* :class:`ContentStore` — the content-addressed layout of the result
  store and the trace cache, namespaced by :func:`source_fingerprint`.

Only the standard library is imported here: :mod:`repro.workloads`
builds on this module and imports the harness only lazily.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import logging
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple, Type, TypeVar, Union)

log = logging.getLogger(__name__)

T = TypeVar("T")

#: the ``repro`` package directory; fingerprints name files relative to it
PKG_ROOT = Path(__file__).resolve().parent


class CorruptEntry(ValueError):
    """A file decoded, but not to the shape its reader expects."""


#: The one definition of "unreadable": what a torn, bit-flipped or
#: wrong-shape file raises (a bad gzip container or failing disk, bad
#: JSON, :class:`CorruptEntry`, a missing or mistyped field, a truncated
#: zlib or struct stream).  A missing file is a miss instead, and
#: anything else, such as a bug in a decoder, propagates.
UNREADABLE: Tuple[Type[Exception], ...] = (
    OSError, ValueError, KeyError, TypeError, EOFError, zlib.error,
    struct.error)


def expect(value: Any, kind: type, what: str) -> Any:
    """``value`` if it is a ``kind``, else :class:`CorruptEntry` (a
    well-formed file of the wrong shape)."""
    if not isinstance(value, kind):
        raise CorruptEntry(
            f"{what} is a {type(value).__name__}, not a {kind.__name__}")
    return value


def atomic_write(path: Path, data: bytes) -> Path:
    """Replace ``path`` with ``data`` (temp file beside it + rename).

    On any failure the temp file is removed, the error propagates and
    the previous file, if any, is untouched.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def quarantine(path: Path, qdir: Optional[Path] = None,
               reason: str = "") -> Optional[Path]:
    """Move ``path`` into ``qdir`` (default: ``quarantine/`` beside it).

    A name already taken there gets a numbered suffix.  Returns the new
    path, or ``None`` when the move failed; never raises.
    """
    if qdir is None:
        qdir = path.parent / "quarantine"
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = qdir / f"{path.name}.{suffix}"
        os.replace(path, target)
    except OSError as exc:
        log.warning("could not quarantine %s: %s", path, exc)
        return None
    log.warning("quarantined %s (%s)", path, reason)
    return target


def _reason(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def load(path: Path, read: Callable[[Path], T],
         qdir: Optional[Path] = None) -> Tuple[Optional[T], Optional[str]]:
    """``read(path)`` under the unreadable-file rule.

    ``(value, None)`` when the file reads; ``(None, None)`` when it is
    missing; ``(None, reason)`` when it is unreadable, after moving it
    into ``qdir`` (see :func:`quarantine`).
    """
    try:
        return read(path), None
    except FileNotFoundError:
        return None, None
    except UNREADABLE as exc:
        reason = _reason(exc)
        quarantine(path, qdir, reason)
        return None, reason


@dataclass
class FsckReport:
    """What one :func:`fsck` pass found and did."""

    scanned: int = 0
    ok: int = 0
    quarantined: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)   # per-file reasons

    def summary(self) -> str:
        return (f"fsck: {self.scanned} entr(ies) scanned, {self.ok} ok, "
                f"{len(self.quarantined)} quarantined")


def fsck(paths: Iterable[Path], check: Callable[[Path], Any],
         qdir: Optional[Path] = None) -> FsckReport:
    """Run ``check`` over ``paths``; quarantine every unreadable file.

    The rule is :func:`load`'s: a missing file is skipped, one whose
    ``check`` raises an :data:`UNREADABLE` error is reported and moved
    into ``qdir``, and any other error propagates.
    """
    report = FsckReport()
    for path in paths:
        try:
            check(path)
        except FileNotFoundError:
            continue
        except UNREADABLE as exc:
            report.scanned += 1
            reason = _reason(exc)
            report.errors.append(f"{path.name}: {reason}")
            moved = quarantine(path, qdir, reason)
            if moved is not None:
                report.quarantined.append(str(moved))
            continue
        report.scanned += 1
        report.ok += 1
    return report


@functools.lru_cache(maxsize=None)
def source_fingerprint(*patterns: str) -> str:
    """sha256 over the ``repro`` source files matching ``patterns`` (globs
    relative to the package directory): each file's relative path and
    bytes, in path order.

    Memoized per process: the value is a pure function of the installed
    source tree, so every task in a warm worker gets the same string.
    """
    paths = {path for pattern in patterns for path in PKG_ROOT.glob(pattern)}
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.relative_to(PKG_ROOT).as_posix().encode())
        digest.update(b"\0")
        # in chunks: a graph data file is up to 1 MB, and reading it
        # whole would raise the peak RSS of every process with a cache
        with open(path, "rb") as fh:
            for chunk in iter(functools.partial(fh.read, 1 << 16), b""):
                digest.update(chunk)
        digest.update(b"\0")
    return digest.hexdigest()


class ContentStore:
    """Immutable files addressed by content key, under a namespace
    named by a source fingerprint::

        <root>/<fingerprint[:16]>/<key[:2]>/<key><SUFFIX>
        <root>/quarantine/<fingerprint[:16]>/      (unreadable entries)

    Every write is atomic, so concurrent workers and processes share one
    directory without locks: two writers of one key write the same
    bytes, and either rename may win.  A subclass names its ``SUFFIX``
    and supplies its codec and :meth:`_check`.
    """

    SUFFIX = ""

    def __init__(self, root: Union[str, Path], fingerprint: str) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0

    @property
    def namespace(self) -> Path:
        return self.root / self.fingerprint[:16]

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine" / self.fingerprint[:16]

    def _path(self, key: str) -> Path:
        return self.namespace / key[:2] / f"{key}{self.SUFFIX}"

    def _load(self, path: Path, read: Callable[[Path], T]) -> Optional[T]:
        """``read(path)``, counting a hit, a miss or a quarantine."""
        value, reason = load(path, read, self.quarantine_dir)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        if reason is not None:
            self.quarantined += 1
        return None

    def _write(self, path: Path, data: bytes) -> Path:
        atomic_write(path, data)
        self.writes += 1
        return path

    def entries(self) -> Iterator[Path]:
        yield from self.namespace.glob(f"*/*{self.SUFFIX}")

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def _check(self, path: Path) -> Any:
        """Read one entry for :meth:`fsck`; raise an :data:`UNREADABLE`
        error if it is unreadable or misfiled."""
        raise NotImplementedError

    def fsck(self) -> FsckReport:
        """Scan the namespace; quarantine every entry :meth:`_check`
        refuses, so the next run recomputes it instead of serving
        garbage or missing forever."""
        report = fsck(sorted(self.entries()), self._check,
                      self.quarantine_dir)
        self.quarantined += len(report.quarantined)
        return report

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "quarantined": self.quarantined}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}({str(self.namespace)!r}, "
                f"{self.stats()})")
