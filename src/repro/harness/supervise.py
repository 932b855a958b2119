"""Fault-tolerant sweep supervision: retries, timeouts, checkpoints.

The paper's campaigns are large — dozens of policies x workloads x core
counts — and a multi-hour sweep must survive worker crashes, hangs, OOM
kills, and dirty shutdowns instead of dying on the first bad point.
This module supplies the machinery the runner builds on:

* :class:`FailedResult` — a failing point becomes a recorded value
  (exception type, message, traceback tail, attempt count) instead of an
  escaped exception that kills the pool.
* :class:`RetryPolicy` — transient failures (``OSError`` family, broken
  pools, killed workers, watchdog timeouts) are retried with exponential
  backoff and deterministic per-point jitter; permanent failures are
  classified immediately.
* :func:`compute_timeout` — the wall-clock deadline per point that the
  worker pool (:class:`repro.harness.turbo.PersistentPool`) enforces by
  killing and respawning a hung worker.
* :class:`SweepManifest` — a checkpoint file (written by the
  :mod:`repro.durable` protocol) tracking done/failed/pending point keys, so
  ``python -m repro campaign run --resume`` continues a killed campaign.
* :class:`SweepSupervisor` / :func:`supervised_sweep` — the process-wide
  context the CLI installs around a sweep: failure collection across
  every ``run_many`` call, SIGINT/SIGTERM handlers that flush the
  manifest before exit, and incident logging through ``repro.obs``.

Chaos (``--chaos``, :mod:`repro.checks.chaos`) injects worker
raises/hangs/kills and store corruption against exactly this layer; the
fault-injection suite in ``tests/test_chaos.py`` proves a chaotic sweep
converges to the byte-identical fault-free result set.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..durable import FsckReport, atomic_write, expect, fsck
from ..sim.stats import SimResult
from .preempt import PREEMPT_ERROR
from .spec import ExperimentSpec

log = logging.getLogger(__name__)

#: synthetic error names minted by the supervisor itself
CRASH_ERROR = "WorkerCrash"
TIMEOUT_ERROR = "WorkerTimeout"

#: exception type names the retry layer treats as transient.  The OSError
#: family covers full disks, dropped pipes, and sandbox refusals; the
#: synthetic names cover watchdog kills and dead workers (OOM stand-ins);
#: BrokenProcessPool is kept for payloads from legacy executors.
#: Preemption is transient by construction: the requeued attempt resumes
#: from the save-state (or cold-restarts if the save failed).
TRANSIENT_ERROR_NAMES = frozenset({
    "OSError", "IOError", "EnvironmentError", "InterruptedError",
    "BlockingIOError", "BrokenPipeError", "ConnectionError",
    "ConnectionAbortedError", "ConnectionRefusedError",
    "ConnectionResetError", "TimeoutError", "MemoryError",
    "BrokenProcessPool", CRASH_ERROR, TIMEOUT_ERROR,
    PREEMPT_ERROR, "PreemptedError",
})

#: default per-point deadline: a generous base plus work-proportional
#: slack (records x cores at a floor throughput no healthy point is
#: slower than).  Override per sweep with ``--timeout`` seconds (<= 0
#: disables the watchdog entirely).
DEFAULT_TIMEOUT_BASE = 120.0
DEFAULT_TIMEOUT_FLOOR_RATE = 25.0   # records*cores per second, worst case


# ----------------------------------------------------------------------
# Failure values
# ----------------------------------------------------------------------
@dataclass
class FailedResult:
    """What the sweep records for a point that could not be simulated."""

    spec: ExperimentSpec
    kind: str                 # "error" | "timeout" | "crash" | "preempted"
    error: str                # exception type name (or synthetic)
    message: str
    traceback: str = ""
    attempts: int = 1
    duration: float = 0.0     # wall-clock of the last attempt
    permanent: bool = True

    @property
    def key(self) -> str:
        return self.spec.key()

    @property
    def label(self) -> str:
        return self.spec.label()

    def summary(self) -> str:
        return (f"{self.label}: {self.error}: {self.message} "
                f"({self.kind}, {self.attempts} attempt(s))")

    def to_dict(self) -> Dict[str, Any]:
        return {"spec": self.spec.to_dict(), "kind": self.kind,
                "error": self.error, "message": self.message,
                "traceback": self.traceback, "attempts": self.attempts,
                "duration": round(self.duration, 3),
                "permanent": self.permanent}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FailedResult":
        return cls(spec=ExperimentSpec.from_dict(data["spec"]),
                   kind=data["kind"], error=data["error"],
                   message=data["message"],
                   traceback=data.get("traceback", ""),
                   attempts=data.get("attempts", 1),
                   duration=data.get("duration", 0.0),
                   permanent=data.get("permanent", True))

    @classmethod
    def from_exception(cls, spec: ExperimentSpec, exc: BaseException,
                       attempts: int, duration: float,
                       permanent: bool) -> "FailedResult":
        import traceback as tb_mod
        tail = "".join(tb_mod.format_exception(
            type(exc), exc, exc.__traceback__))[-4000:]
        return cls(spec=spec, kind="error", error=type(exc).__name__,
                   message=str(exc), traceback=tail, attempts=attempts,
                   duration=duration, permanent=permanent)


class SweepFailedError(RuntimeError):
    """Raised after a sweep finished its healthy points but some failed.

    ``results`` maps every successfully resolved spec to its result —
    callers that can tolerate holes may consume it; the CLI renders
    ``failures`` as the failure table and exits nonzero.
    """

    def __init__(self, failures: Sequence[FailedResult],
                 results: Optional[Dict[ExperimentSpec, SimResult]] = None):
        self.failures = list(failures)
        self.results = dict(results or {})
        first = self.failures[0].summary() if self.failures else "?"
        super().__init__(
            f"{len(self.failures)} sweep point(s) failed (first: {first})")


class SweepInterrupted(RuntimeError):
    """SIGINT/SIGTERM stopped the sweep; partial state was checkpointed."""

    def __init__(self, manifest_path: Optional[Path] = None,
                 done: int = 0, pending: int = 0):
        self.manifest_path = manifest_path
        where = f"; manifest at {manifest_path}" if manifest_path else ""
        super().__init__(
            f"sweep interrupted with {done} point(s) done, "
            f"{pending} pending{where}")


# ----------------------------------------------------------------------
# Retry / timeout policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How transient failures are retried: cap, backoff, jitter."""

    max_attempts: int = 3
    backoff: float = 0.25      # seconds before the first retry
    backoff_cap: float = 8.0   # exponential growth saturates here
    jitter: float = 0.5        # fraction of the delay added as jitter

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def is_transient_name(self, error_name: str) -> bool:
        return error_name in TRANSIENT_ERROR_NAMES

    def is_transient(self, exc: BaseException) -> bool:
        if isinstance(exc, (OSError, ConnectionError, MemoryError)):
            return True
        return self.is_transient_name(type(exc).__name__)

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before retry number ``attempt + 1`` for point ``key``.

        Jitter is derived from a hash of ``(key, attempt)`` — not the
        process RNG — so sweeps stay deterministic and two workers
        retrying simultaneously still decorrelate.
        """
        base = min(self.backoff_cap, self.backoff * (2.0 ** attempt))
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + self.jitter * unit)


def compute_timeout(spec: ExperimentSpec,
                    override: Optional[float] = None) -> Optional[float]:
    """Wall-clock deadline (seconds) for one point, or ``None`` (off).

    An explicit ``override`` (``--timeout``) wins over the default
    scale-proportional deadline; values <= 0 disable the watchdog.
    """
    if override is not None:
        return override if override > 0 else None
    return (DEFAULT_TIMEOUT_BASE +
            spec.cost_units() / DEFAULT_TIMEOUT_FLOOR_RATE)


# ----------------------------------------------------------------------
# Sweep manifest (checkpoint / resume)
# ----------------------------------------------------------------------
STATUS_PENDING = "pending"
STATUS_DONE = "done"
STATUS_FAILED = "failed"

MANIFEST_VERSION = 1
DEFAULT_MANIFEST = "sweep.manifest.json"

#: consecutive manifest-persist failures tolerated before the sweep aborts
MANIFEST_STRIKES = 3


class ManifestPersistError(RuntimeError):
    """The manifest failed to persist ``MANIFEST_STRIKES`` times in a row.

    One failed write is only a warning (a full disk may recover), but a
    sweep whose ledger cannot be written would silently lose resumability
    — the CLI turns this into exit code 3.
    """

    def __init__(self, path: Path, strikes: int,
                 last_error: BaseException) -> None:
        super().__init__(
            f"manifest at {path} failed to persist {strikes} times in a "
            f"row (last: {last_error}); aborting so the sweep cannot "
            f"silently lose its ledger")
        self.path = path
        self.strikes = strikes


class SweepManifest:
    """Checkpoint ledger for one campaign: done/failed/pending points.

    Results themselves live in the content-addressed store; the manifest
    only tracks *status*, so resuming is "serve done points from the
    store, re-run the rest".  Writes are atomic
    (:func:`repro.durable.atomic_write`) and cheap (a few KB), so the
    runner checkpoints after every completion.
    """

    def __init__(self, path: Union[str, Path], sweep: str = "",
                 meta: Optional[Dict[str, Any]] = None,
                 persist: bool = True) -> None:
        self.path = Path(path)
        self.sweep = sweep
        self.meta = dict(meta or {})
        self.points: Dict[str, Dict[str, Any]] = {}
        #: False = keep in memory only, write on interrupt/failure flush
        self.persist = persist
        self._strikes = 0   # consecutive checkpoint() failures

    # -- bookkeeping ----------------------------------------------------
    def register(self, spec: ExperimentSpec) -> str:
        """Track ``spec``; an existing entry keeps its status."""
        key = spec.key()
        if key not in self.points:
            self.points[key] = {"spec": spec.to_dict(),
                                "label": spec.label(),
                                "status": STATUS_PENDING,
                                "attempts": 0, "error": None}
        return key

    def _entry(self, spec: ExperimentSpec) -> Dict[str, Any]:
        return self.points[self.register(spec)]

    def mark_done(self, spec: ExperimentSpec) -> None:
        entry = self._entry(spec)
        entry["status"] = STATUS_DONE
        entry["error"] = None

    def mark_failed(self, failure: FailedResult) -> None:
        entry = self._entry(failure.spec)
        entry["status"] = STATUS_FAILED
        entry["attempts"] = failure.attempts
        entry["error"] = {"kind": failure.kind, "error": failure.error,
                          "message": failure.message,
                          "permanent": failure.permanent}

    def mark_preempted(self, spec: ExperimentSpec,
                       ckpt_path: Optional[str]) -> None:
        """Record checkpoint lineage: the point was preempted and its
        requeued attempt will resume from ``ckpt_path`` (``None`` means
        the save failed and the retry cold-restarts)."""
        entry = self._entry(spec)
        entry["preempts"] = entry.get("preempts", 0) + 1
        entry["ckpt"] = ckpt_path
        self.checkpoint()

    def reset_failures(self) -> int:
        """Failed -> pending (a ``--resume`` gives them a fresh start)."""
        reset = 0
        for entry in self.points.values():
            if entry["status"] == STATUS_FAILED:
                entry["status"] = STATUS_PENDING
                entry["error"] = None
                reset += 1
        return reset

    def counts(self) -> Dict[str, int]:
        out = {STATUS_PENDING: 0, STATUS_DONE: 0, STATUS_FAILED: 0}
        for entry in self.points.values():
            out[entry["status"]] = out.get(entry["status"], 0) + 1
        return out

    def keys_with_status(self, status: str) -> List[str]:
        return [k for k, e in self.points.items() if e["status"] == status]

    def summary(self) -> str:
        c = self.counts()
        return (f"{len(self.points)} point(s): {c[STATUS_DONE]} done, "
                f"{c[STATUS_FAILED]} failed, {c[STATUS_PENDING]} pending")

    # -- persistence ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"version": MANIFEST_VERSION, "sweep": self.sweep,
                "meta": dict(self.meta), "points": self.points}

    def save(self) -> Path:
        """Write the manifest (atomic rename); returns its path."""
        payload = json.dumps(self.to_dict(), sort_keys=True, indent=1)
        return atomic_write(self.path, payload.encode())

    def checkpoint(self) -> None:
        """Persist if this manifest is file-backed.

        A single failed write is tolerated (warning), but
        ``MANIFEST_STRIKES`` consecutive failures raise
        :class:`ManifestPersistError` — a campaign without a ledger
        cannot resume, so limping on would be silent data loss.
        """
        if not self.persist:
            return
        try:
            self.save()
        except OSError as exc:
            self._strikes += 1
            log.warning("manifest checkpoint failed (%d/%d): %s",
                        self._strikes, MANIFEST_STRIKES, exc)
            if self._strikes >= MANIFEST_STRIKES:
                raise ManifestPersistError(self.path, self._strikes,
                                           exc) from exc
            return
        self._strikes = 0

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepManifest":
        data = expect(json.loads(Path(path).read_bytes()), dict, "manifest")
        if data.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported manifest version {data.get('version')!r} "
                f"in {path}")
        manifest = cls(path, sweep=data.get("sweep", ""),
                       meta=data.get("meta", {}))
        manifest.points = dict(data.get("points", {}))
        return manifest


def fsck_manifests(paths: Sequence[Union[str, Path]]) -> FsckReport:
    """Validate sweep/campaign manifest files; quarantine corrupt ones.

    A truncated or hand-mangled manifest cannot be resumed from, so
    ``store fsck`` covers the ledgers too: every file must parse, carry
    a supported version, and hold entries whose spec round-trips to its
    key with a known status.  Bad files move into ``quarantine/`` beside
    the manifest and the next sweep starts a fresh ledger; done points
    still come from the result store.
    """
    return fsck([Path(p) for p in paths if Path(p).is_file()],
                _check_manifest)


def _check_manifest(path: Path) -> None:
    statuses = (STATUS_PENDING, STATUS_DONE, STATUS_FAILED)
    for key, entry in SweepManifest.load(path).points.items():
        spec = ExperimentSpec.from_dict(entry["spec"])
        if spec.key() != key:
            raise ValueError(f"entry {key[:12]} does not match its spec")
        if entry["status"] not in statuses:
            raise ValueError(f"entry {key[:12]} has unknown status "
                             f"{entry['status']!r}")


# ----------------------------------------------------------------------
# The process-wide sweep supervisor
# ----------------------------------------------------------------------
class SweepSupervisor:
    """Cross-``run_many`` context for one campaign (see module doc)."""

    def __init__(self, keep_going: bool = True,
                 retry: Optional[RetryPolicy] = None,
                 timeout: Optional[float] = None,
                 manifest: Optional[SweepManifest] = None,
                 incidents: Optional[Any] = None) -> None:
        self.keep_going = keep_going
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = timeout          # None = per-spec default
        self.manifest = manifest
        self.incidents = incidents      # repro.obs.incidents.IncidentLog
        self.failures: List[FailedResult] = []
        self.interrupted = False
        self._signal_count = 0
        self._old_handlers: Dict[int, Any] = {}

    # -- recording ------------------------------------------------------
    def record_incident(self, event: str,
                        spec: Optional[ExperimentSpec] = None,
                        **fields: Any) -> None:
        if self.incidents is None:
            return
        if spec is not None:
            fields.setdefault("label", spec.label())
            fields.setdefault("key", spec.key()[:12])
        self.incidents.add(event, **fields)

    def record_failure(self, failure: FailedResult) -> None:
        self.failures.append(failure)
        if self.manifest is not None:
            self.manifest.mark_failed(failure)
            self.manifest.checkpoint()
        self.record_incident("failure", failure.spec, kind=failure.kind,
                             error=failure.error, attempts=failure.attempts)

    def flush(self, force: bool = False) -> None:
        """Write the manifest out (always when ``force``)."""
        if self.manifest is None:
            return
        if force:
            try:
                self.manifest.save()
            except OSError as exc:
                log.warning("manifest flush failed: %s", exc)
        else:
            self.manifest.checkpoint()

    # -- signals --------------------------------------------------------
    def install_signal_handlers(self) -> None:
        """SIGINT/SIGTERM -> graceful stop + manifest flush (main thread
        only; a second signal falls through to KeyboardInterrupt)."""
        import signal
        import threading
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._old_handlers[signum] = signal.signal(
                    signum, self._on_signal)
            except (ValueError, OSError):  # exotic embedding
                continue

    def restore_signal_handlers(self) -> None:
        import signal
        for signum, handler in self._old_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                continue
        self._old_handlers.clear()

    def _on_signal(self, signum: int, frame: Any) -> None:
        self._signal_count += 1
        self.interrupted = True
        if self.incidents is not None:
            self.incidents.add("interrupt", signal=signum,
                               count=self._signal_count)
        if self._signal_count >= 2:
            # The polite stop is being ignored (or is too slow for the
            # user) — flush what we have and die the classic way.
            self.flush(force=True)
            self.restore_signal_handlers()
            raise KeyboardInterrupt


_ACTIVE: Optional[SweepSupervisor] = None


def active_supervisor() -> Optional[SweepSupervisor]:
    return _ACTIVE


class supervised_sweep:
    """Context manager installing a :class:`SweepSupervisor` process-wide.

    While active, every :func:`repro.harness.runner.run_many` call picks
    up the supervisor's retry/timeout/keep-going settings, records
    failures into it, and checkpoints its manifest — which is what lets
    a *named* sweep (several ``run_many`` calls deep inside figure code)
    behave as one supervised campaign.
    """

    def __init__(self, keep_going: bool = True,
                 retry: Optional[RetryPolicy] = None,
                 timeout: Optional[float] = None,
                 manifest: Optional[SweepManifest] = None,
                 incidents: Optional[Any] = None) -> None:
        self._sup = SweepSupervisor(keep_going=keep_going, retry=retry,
                                    timeout=timeout, manifest=manifest,
                                    incidents=incidents)

    def __enter__(self) -> SweepSupervisor:
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a supervised sweep is already active")
        _ACTIVE = self._sup
        self._sup.install_signal_handlers()
        return self._sup

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        global _ACTIVE
        _ACTIVE = None
        self._sup.restore_signal_handlers()


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def format_failure_table(failures: Sequence[FailedResult]) -> str:
    """The CLI's failure table (one row per permanently failed point)."""
    from ..analysis.reporting import format_table
    rows = []
    for failure in failures:
        message = failure.message
        if len(message) > 60:
            message = message[:57] + "..."
        rows.append([failure.label, failure.kind, failure.error,
                     str(failure.attempts), message])
    header = f"{len(failures)} point(s) failed:"
    return "\n".join([header, format_table(
        ["point", "kind", "error", "attempts", "message"], rows)])
