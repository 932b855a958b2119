"""Sweep execution engine: cached ``run`` and supervised parallel
``run_many``.

Resolution order for one point is memo -> store -> simulate:

* **memo** — an in-process ``{ExperimentSpec: SimResult}`` dict, so
  repeated calls inside one session return the identical object (several
  benchmarks share LRU baselines this way).
* **store** — the persistent :class:`~repro.harness.store.ResultStore`,
  so a fresh process reuses every point any earlier session simulated.
* **simulate** — :meth:`ExperimentSpec.execute`, fanned out over the
  warm worker pool (:class:`~repro.harness.turbo.PersistentPool`) when
  ``workers > 1``.

Workers for :func:`run_many` come from the ``workers=`` argument, else
1 (serial).  ``0`` means "one per CPU".  Every point runs under the
call's :class:`~repro.harness.config.RunConfig` (``config=``, else
:meth:`RunConfig.from_env() <repro.harness.config.RunConfig.from_env>`),
which pool workers receive in each task message.  If worker processes
cannot be created (sandboxed
environments, missing semaphores, ...), the engine logs a warning and
falls back to serial execution — results are identical either way,
because workers return ``SimResult.to_dict()`` payloads whose round-trip
is exact.

Fault tolerance (see :mod:`repro.harness.supervise`): a failing point is
recorded as a :class:`~repro.harness.supervise.FailedResult` instead of
killing the sweep; transient failures (``OSError`` family, crashed or
hung workers) are retried with exponential backoff; each pooled point
runs under a wall-clock watchdog deadline.  With ``keep_going`` (the
default) every healthy point still completes and a
:class:`~repro.harness.supervise.SweepFailedError` carrying the partial
results is raised at the end; under an active
:func:`~repro.harness.supervise.supervised_sweep` the failures are
collected there instead and failed points come back as ``None`` holes.
"""

from __future__ import annotations

import logging
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Union

from ..checks.chaos import corrupt_entry, inject_execute
from ..sim.stats import SimResult
from .config import RunConfig
from .spec import ExperimentSpec
from .store import ResultStore, default_store
from .supervise import (
    CRASH_ERROR,
    TIMEOUT_ERROR,
    FailedResult,
    RetryPolicy,
    SweepFailedError,
    SweepInterrupted,
    active_supervisor,
    compute_timeout,
)

log = logging.getLogger(__name__)

#: sentinel: "use the process-wide default store"
USE_DEFAULT_STORE = object()

#: Seconds between two manifest writes for done marks.  A save rewrites
#: the whole ledger, so a save per completion costs more per point the
#: larger the campaign; a save per period keeps the ledger's cost per
#: point fixed.  A killed sweep loses at most this much of its done
#: marks, and ``--resume`` serves those points from the store.
MANIFEST_SAVE_PERIOD = 10.0

#: in-process memo: repeated calls in one session return the identical
#: result object
_MEMO: Dict[ExperimentSpec, SimResult] = {}

ProgressFn = Callable[["SweepStats", Optional[ExperimentSpec], str], None]


@dataclass
class SweepStats:
    """Observability counters for one ``run_many`` call."""

    total: int = 0
    done: int = 0
    memo_hits: int = 0
    store_hits: int = 0
    simulated: int = 0
    workers: int = 1
    pool_used: bool = False
    fell_back_serial: bool = False
    elapsed: float = 0.0      # wall-clock of the whole call
    busy_time: float = 0.0    # summed per-point simulation time
    failed: int = 0           # points that exhausted their attempts
    retried: int = 0          # transient failures given another attempt
    timeouts: int = 0         # watchdog deadline hits (retried or not)
    crashes: int = 0          # dead workers (exit code != 0, OOM, ...)
    store_write_failures: int = 0
    failures: List[FailedResult] = field(default_factory=list)

    @property
    def utilization(self) -> float:
        """Fraction of worker wall-clock spent simulating."""
        if self.elapsed <= 0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_time / (self.elapsed * self.workers))

    def summary(self) -> str:
        mode = "pool" if self.pool_used else "serial"
        if self.fell_back_serial:
            mode = "serial (pool unavailable)"
        text = (f"{self.done}/{self.total} points in {self.elapsed:.2f}s | "
                f"{self.memo_hits} memo + {self.store_hits} store hits, "
                f"{self.simulated} simulated | workers={self.workers} "
                f"({mode}), utilization {self.utilization:.0%}")
        if self.failed or self.retried:
            text += (f" | {self.failed} failed, {self.retried} retried "
                     f"({self.timeouts} timeout(s), "
                     f"{self.crashes} crash(es))")
        return text


@dataclass
class _SessionStats:
    """Process-lifetime aggregate across every run()/run_many() call."""

    points: int = 0
    memo_hits: int = 0
    store_hits: int = 0
    simulated: int = 0
    sweeps: List[SweepStats] = field(default_factory=list)

    def summary(self) -> str:
        return (f"{self.points} experiment points: {self.memo_hits} memo "
                f"hits, {self.store_hits} store hits, "
                f"{self.simulated} simulated")


session_stats = _SessionStats()


def clear_memo() -> None:
    _MEMO.clear()


def resolve_workers(workers: Optional[int] = None) -> int:
    """``workers`` arg, default 1; ``0`` = one per CPU.

    Negative values are clamped to 1 with a warning — they would
    otherwise blow up at pool construction time.
    """
    if workers is None:
        workers = 1
    if workers < 0:
        log.warning("clamping workers=%d to 1 (use 0 for one per CPU)",
                    workers)
        return 1
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, workers)


def _resolve_store(store) -> Optional[ResultStore]:
    if store is USE_DEFAULT_STORE:
        return default_store()
    return store


def _put(store: ResultStore, spec: ExperimentSpec, result: SimResult,
         config: RunConfig) -> None:
    """Persist one result; chaos ``corrupt`` then tears selected entries
    so the store's quarantine/fsck path meets real torn files."""
    path = store.put(spec, result)
    if config.chaos is not None and corrupt_entry(config.chaos, spec.key(),
                                                  path):
        log.debug("chaos: corrupted store entry %s", path.name)


def _progress_printer(stats: SweepStats, spec: Optional[ExperimentSpec],
                      event: str) -> None:
    if spec is not None:
        print(f"[sweep] {stats.done}/{stats.total} {event:<9s} "
              f"{spec.label()}", file=sys.stderr)
    else:
        print(f"[sweep] {stats.summary()}", file=sys.stderr)


def _as_progress(progress: Union[None, bool, ProgressFn]) -> Optional[ProgressFn]:
    if progress is True:
        return _progress_printer
    if progress in (None, False):
        return None
    return progress


# ----------------------------------------------------------------------
# Single-point execution
# ----------------------------------------------------------------------
def run(spec: ExperimentSpec, store=USE_DEFAULT_STORE,
        force: bool = False,
        config: Optional[RunConfig] = None) -> SimResult:
    """Result for one point: memo -> store -> simulate (and persist).

    ``config`` defaults to :meth:`RunConfig.from_env`.  Enabled observers
    (``config.obs``) force a fresh simulation: trace and metrics
    artifacts only exist when the simulator actually runs, so cache hits
    would silently produce nothing.
    """
    if config is None:
        config = RunConfig.from_env()
    if config.obs is not None and config.obs.enabled:
        force = True
    if not force and spec in _MEMO:
        session_stats.points += 1
        session_stats.memo_hits += 1
        return _MEMO[spec]
    resolved = _resolve_store(store)
    session_stats.points += 1
    if not force and resolved is not None:
        cached = resolved.get(spec)
        if cached is not None:
            _MEMO[spec] = cached
            session_stats.store_hits += 1
            return cached
    result = spec.execute(config)
    session_stats.simulated += 1
    _MEMO[spec] = result
    if resolved is not None:
        try:
            _put(resolved, spec, result, config)
        except OSError as exc:  # a full/readonly disk shouldn't kill a run
            log.warning("result store write failed: %s", exc)
    return result


# ----------------------------------------------------------------------
# Sweep execution
# ----------------------------------------------------------------------
def run_many(specs: Sequence[ExperimentSpec], workers: Optional[int] = None,
             store=USE_DEFAULT_STORE,
             progress: Union[None, bool, ProgressFn] = None,
             force: bool = False,
             stats_out: Optional[SweepStats] = None,
             keep_going: Optional[bool] = None,
             retry: Optional[RetryPolicy] = None,
             timeout: Optional[float] = None,
             on_failure: Optional[str] = None,
             config: Optional[RunConfig] = None) -> List[Optional[SimResult]]:
    """Results for ``specs`` (order preserved, duplicates deduplicated).

    Cache hits are served first; the remaining points are simulated on
    the supervised worker pool (serial when ``workers`` is 1, or when
    processes cannot start).  Pass ``progress=True`` for per-point
    stderr lines, or a callable ``(stats, spec, event)`` for custom
    reporting.  Pass a ``SweepStats`` as ``stats_out`` to receive the
    counters.

    Fault handling: ``keep_going`` (default True) finishes every healthy
    point before reporting failures; ``keep_going=False`` aborts on the
    first one.  ``retry``/``timeout`` override the supervisor's (or the
    default) retry policy and watchdog deadline.  ``on_failure``
    selects what a failed point produces: ``"raise"`` (default) raises
    :class:`SweepFailedError` carrying the partial results once the
    sweep is over, ``"none"`` leaves ``None`` holes in the returned list
    (the default under an active supervisor, which collects the failures
    for the CLI's failure table).

    ``config`` (default :meth:`RunConfig.from_env`, resolved once per
    call) is the run configuration every simulated point executes under.
    """
    if config is None:
        config = RunConfig.from_env()
    sup = active_supervisor()
    if keep_going is None:
        keep_going = sup.keep_going if sup is not None else True
    if retry is None:
        retry = sup.retry if sup is not None else RetryPolicy()
    if timeout is None and sup is not None:
        timeout = sup.timeout
    if on_failure is None:
        on_failure = "none" if (sup is not None and keep_going) else "raise"
    if on_failure not in ("raise", "none"):
        raise ValueError(f"on_failure must be 'raise' or 'none', "
                         f"not {on_failure!r}")
    manifest = sup.manifest if sup is not None else None

    report = _as_progress(progress)
    stats = stats_out if stats_out is not None else SweepStats()
    stats.total = len(specs)
    stats.workers = 1       # the width that ran; the pool sets its own
    resolved = _resolve_store(store)
    started = time.monotonic()

    results: Dict[ExperimentSpec, SimResult] = {}
    failed_specs: Set[ExperimentSpec] = set()
    pending: List[ExperimentSpec] = []
    for spec in dict.fromkeys(specs):           # unique, order kept
        session_stats.points += 1
        if manifest is not None:
            manifest.register(spec)
        if not force and spec in _MEMO:
            results[spec] = _MEMO[spec]
            stats.memo_hits += 1
            stats.done += 1
            session_stats.memo_hits += 1
            if manifest is not None:
                manifest.mark_done(spec)
            if report:
                report(stats, spec, "memo-hit")
            continue
        if not force and resolved is not None:
            cached = resolved.get(spec)
            if cached is not None:
                _MEMO[spec] = cached
                results[spec] = cached
                stats.store_hits += 1
                stats.done += 1
                session_stats.store_hits += 1
                if manifest is not None:
                    manifest.mark_done(spec)
                if report:
                    report(stats, spec, "store-hit")
                continue
        pending.append(spec)
    stats.total = stats.done + len(pending)
    if manifest is not None:
        # One checkpoint before simulation starts, so even a SIGKILL'd
        # campaign leaves a complete pending list behind.
        manifest.checkpoint()
    saved_at = time.monotonic()

    def finish(spec: ExperimentSpec, result: SimResult,
               duration: float) -> None:
        nonlocal saved_at
        _MEMO[spec] = result
        results[spec] = result
        if resolved is not None:
            try:
                _put(resolved, spec, result, config)
            except OSError as exc:
                # First failure is loud; the rest collapse into one
                # summary line at the end of the sweep.
                stats.store_write_failures += 1
                if stats.store_write_failures == 1:
                    log.warning("result store write failed: %s", exc)
                else:
                    log.debug("result store write failed: %s", exc)
        stats.simulated += 1
        stats.done += 1
        stats.busy_time += duration
        session_stats.simulated += 1
        if manifest is not None:
            manifest.mark_done(spec)
            now = time.monotonic()
            if now - saved_at >= MANIFEST_SAVE_PERIOD:
                manifest.checkpoint()
                saved_at = now
        if report:
            report(stats, spec, "simulated")

    def fail(failure: FailedResult) -> None:
        failed_specs.add(failure.spec)
        stats.failed += 1
        stats.failures.append(failure)
        if failure.kind == "timeout":
            stats.timeouts += 1
        elif failure.kind == "crash":
            stats.crashes += 1
        if sup is not None:
            sup.record_failure(failure)   # manifest + incident trail
        log.warning("sweep point failed: %s", failure.summary())
        if report:
            report(stats, failure.spec, "failed")

    def note_retry(spec: ExperimentSpec, attempt: int, error: str) -> None:
        stats.retried += 1
        if error == TIMEOUT_ERROR:
            stats.timeouts += 1
        elif error == CRASH_ERROR:
            stats.crashes += 1

    def run_serial(todo: Sequence[ExperimentSpec]) -> None:
        chaos = config.chaos
        for spec in todo:
            if sup is not None and sup.interrupted:
                raise SweepInterrupted()
            key = spec.key()
            attempt = 0
            while True:
                start = time.monotonic()
                try:
                    if chaos is not None:
                        inject_execute(chaos, key, attempt,
                                       disruptive_ok=False)
                    result = spec.execute(config)
                except Exception as exc:
                    duration = time.monotonic() - start
                    transient = retry.is_transient(exc)
                    if transient and attempt + 1 < retry.max_attempts:
                        note_retry(spec, attempt, type(exc).__name__)
                        if sup is not None:
                            sup.record_incident(
                                "retry", spec, error=type(exc).__name__,
                                attempt=attempt)
                        time.sleep(retry.delay(key, attempt))
                        attempt += 1
                        continue
                    fail(FailedResult.from_exception(
                        spec, exc, attempts=attempt + 1,
                        duration=duration, permanent=not transient))
                    if not keep_going:
                        raise SweepFailedError(stats.failures, results)
                    break
                else:
                    finish(spec, result, time.monotonic() - start)
                    break

    try:
        if pending:
            n_workers = min(resolve_workers(workers), len(pending))
            if n_workers > 1:
                from .turbo import PoolUnavailable, shared_pool
                try:
                    shared_pool(n_workers).run(
                        pending, on_success=finish, on_failure=fail,
                        on_retry=note_retry, retry=retry,
                        timeout_for=lambda s: compute_timeout(s, timeout),
                        config=config, supervisor=sup,
                        keep_going=keep_going)
                    stats.pool_used = True
                    stats.workers = n_workers
                except PoolUnavailable as exc:
                    log.warning("worker pool unavailable (%s); "
                                "falling back to serial execution",
                                exc.reason)
                    stats.fell_back_serial = True
                    # Completed and failed points keep their outcome —
                    # only genuinely unresolved specs are rerun.
                    run_serial([s for s in pending
                                if s not in results
                                and s not in failed_specs])
                else:
                    if not keep_going and stats.failures:
                        raise SweepFailedError(stats.failures, results)
            else:
                run_serial(pending)
    except (SweepInterrupted, KeyboardInterrupt):
        if sup is not None:
            sup.flush(force=True)
            if manifest is not None:
                counts = manifest.counts()
                raise SweepInterrupted(manifest.path, done=counts["done"],
                                       pending=counts["pending"]) from None
            raise SweepInterrupted(
                done=stats.done,
                pending=stats.total - stats.done - stats.failed) from None
        raise
    except SweepFailedError:    # keep_going=False stopped the sweep
        if sup is not None:
            sup.flush(force=True)
        raise

    stats.elapsed = time.monotonic() - started
    session_stats.sweeps.append(stats)
    if stats.store_write_failures > 1:
        log.warning("result store: %d write(s) failed during this sweep",
                    stats.store_write_failures)
    if report:
        report(stats, None, "done")
    if sup is not None:
        # Done marks since the last periodic save reach disk here, so
        # the ledger is current whenever the call ends.
        sup.flush(force=True)
    if stats.failures:
        if on_failure == "raise":
            raise SweepFailedError(stats.failures, results)
        return [results.get(spec) for spec in specs]
    return [results[spec] for spec in specs]
