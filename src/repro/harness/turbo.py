"""The sweep worker pool: persistent warm workers.

A paper-scale campaign runs thousands of short points, and forking a
process per point would pay process start, interpreter imports and
synthetic trace regeneration every time.  This module keeps a pool of
long-lived workers that fork once with imports hot and serve tasks over
pipes; with the content-addressed
:class:`~repro.workloads.tracecache.TraceCache` beside it, a warm point
pays for simulation only.  A worker that returns a good result is fed
its next point before the parent decodes, stores and records that
result, so the parent's bookkeeping overlaps simulation instead of
idling the worker.

Supervision (:mod:`repro.harness.supervise`) is enforced per point: a
transient failure is retried with backoff, a permanent one is recorded,
the watchdog kills a hung *worker* (not the pool) and the pool respawns
it, a resource-guard breach does the same, crashes are attributed by
exit code and pid, chaos disruptive faults stay worker-only, and
SIGINT/manifest behavior lives in the caller
(:func:`repro.harness.runner.run_many`).  A killed worker's point
restarts cold on its retry.

Workers outlive the command that forked them, so every task message
carries the sweep's :class:`~repro.harness.config.RunConfig`: the
worker runs the point under exactly that sanitizer, observer, chaos
and trace-cache setting, never under one a previous task shipped or
one inherited at fork time.
"""

from __future__ import annotations

import atexit
import logging
import time
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple)

from ..sim.stats import SimResult
from .config import RunConfig
from .preempt import PREEMPT_ERROR, guard_breach
from .spec import ExperimentSpec
from .supervise import (
    CRASH_ERROR,
    TIMEOUT_ERROR,
    FailedResult,
    RetryPolicy,
    SweepInterrupted,
    SweepSupervisor,
)

log = logging.getLogger(__name__)

class PoolUnavailable(Exception):
    """The worker pool could not start or died mid-sweep."""

    def __init__(self, reason: BaseException) -> None:
        super().__init__(str(reason))
        self.reason = reason


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _execute_task(msg: Dict[str, Any]) -> Dict[str, Any]:
    """Run one task message; report failures as payloads, never raise."""
    start = time.monotonic()
    try:
        from ..checks.chaos import inject_execute
        config: RunConfig = msg["config"]
        spec = ExperimentSpec.from_dict(msg["spec"])
        if config.chaos is not None:
            inject_execute(config.chaos, spec.key(), msg["attempt"],
                           disruptive_ok=True)
        result = spec.execute(config)
        return {"ok": True, "result": result.to_dict(),
                "duration": time.monotonic() - start}
    except BaseException as exc:   # report absolutely everything
        import traceback as tb_mod
        return {"ok": False, "error": type(exc).__name__,
                "message": str(exc),
                "traceback": tb_mod.format_exc()[-4000:],
                "duration": time.monotonic() - start}


def _persistent_worker(conn: Any) -> None:
    """Long-lived child entry point: serve tasks until EOF/sentinel.

    Chaos disruptive faults (hang/kill) fire inside :func:`_execute_task`
    here, where they cost one sacrificial worker: the parent's watchdog
    kills this process and the pool respawns a fresh one.
    """
    # Workers forked mid-sweep inherit the supervisor's SIGINT/SIGTERM
    # handlers, which only set a flag — a worker keeping them would
    # survive terminate() and hang every joiner (multiprocessing's own
    # atexit join included).  Signal discipline belongs to the parent.
    import signal
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (OSError, ValueError):
            pass
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:          # orderly shutdown
            break
        payload = _execute_task(msg)
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):   # parent gave up on us
            break
    try:
        conn.close()
    except OSError:
        pass


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _PoolWorker:
    """One warm worker process, busy or idle."""

    __slots__ = ("proc", "conn", "spec", "key", "attempt", "started",
                 "deadline")

    def __init__(self, proc: Any, conn: Any) -> None:
        self.proc = proc
        self.conn = conn
        self.spec: Optional[ExperimentSpec] = None
        self.key = ""
        self.attempt = 0
        self.started = 0.0
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.spec is not None

    def assign(self, spec: ExperimentSpec, attempt: int, started: float,
               deadline: Optional[float]) -> None:
        self.spec = spec
        self.key = spec.key()
        self.attempt = attempt
        self.started = started
        self.deadline = deadline

    def clear(self) -> None:
        self.spec = None
        self.key = ""
        self.attempt = 0
        self.started = 0.0
        self.deadline = None


class PersistentPool:
    """Warm worker pool enforcing the sweep supervision contract.

    Workers fork once (imports, numpy, and the trace-cache memo already
    hot) and serve many tasks; a worker is killed and respawned only
    when *its* point hangs past the watchdog deadline or the process
    dies.  Construction is cheap — processes start lazily on the first
    :meth:`run` — and the pool survives across ``run_many`` calls (see
    :func:`shared_pool`), which is where the amortization comes from.
    """

    def __init__(self, n_workers: int, poll_interval: float = 0.05) -> None:
        self.n_workers = max(1, n_workers)
        self.poll_interval = poll_interval
        self._workers: List[_PoolWorker] = []
        self._ctx: Any = None
        self._mp_wait: Any = None

    # -- lifecycle ------------------------------------------------------
    def _context(self) -> Any:
        if self._ctx is None:
            try:
                import multiprocessing as mp
                from multiprocessing.connection import wait as mp_wait
            except ImportError as exc:   # stripped-down stdlib
                raise PoolUnavailable(exc) from exc
            self._ctx = mp.get_context()
            self._mp_wait = mp_wait
            # Registered only now, *after* multiprocessing installed its
            # own atexit join: LIFO order then runs our orderly shutdown
            # (sentinel, then terminate-with-kill-escalation) before
            # multiprocessing tries to join the workers.
            _register_atexit()
        return self._ctx

    def _spawn(self) -> _PoolWorker:
        ctx = self._context()
        try:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=_persistent_worker,
                               args=(child_conn,), daemon=True)
            proc.start()
        except (OSError, PermissionError, ValueError) as exc:
            raise PoolUnavailable(exc) from exc
        child_conn.close()
        return _PoolWorker(proc, parent_conn)

    def ensure_started(self) -> None:
        """Cull dead workers and (re)fill the pool to ``n_workers``."""
        self._workers = [w for w in self._workers if w.proc.is_alive()]
        while len(self._workers) < self.n_workers:
            self._workers.append(self._spawn())

    def _replenish(self) -> None:
        """Best-effort refill mid-run; raise only if the pool is empty."""
        while len(self._workers) < self.n_workers:
            try:
                self._workers.append(self._spawn())
            except PoolUnavailable:
                if not self._workers:
                    raise
                log.warning("could not respawn a pool worker; continuing "
                            "with %d", len(self._workers))
                break

    def _discard(self, worker: _PoolWorker) -> None:
        """Remove ``worker`` from the pool, killing the process."""
        if worker in self._workers:
            self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.terminate()
        worker.proc.join(1.0)
        if worker.proc.is_alive():   # SIGTERM ignored — escalate
            worker.proc.kill()
            worker.proc.join(1.0)

    def _kill_busy(self) -> None:
        for worker in [w for w in self._workers if w.busy]:
            self._discard(worker)

    def shutdown(self) -> None:
        """Stop every worker (sentinel first, then force)."""
        for worker in list(self._workers):
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            self._discard(worker)
        self._workers = []

    # -- execution ------------------------------------------------------
    def run(self, specs: Sequence[ExperimentSpec],
            on_success: Callable[[ExperimentSpec, SimResult, float], None],
            on_failure: Callable[[FailedResult], None],
            on_retry: Optional[Callable[[ExperimentSpec, int, str], None]]
            = None, *,
            retry: RetryPolicy,
            timeout_for: Callable[[ExperimentSpec], Optional[float]],
            config: RunConfig,
            supervisor: Optional[SweepSupervisor] = None,
            keep_going: bool = True) -> None:
        """Resolve every spec on the warm pool, retrying transients.

        Every task message carries ``config``; its resource guards also
        drive the parent-side guard loop.

        Raises :class:`PoolUnavailable` when no worker can be forked
        (the runner falls back to serial) and :class:`SweepInterrupted`
        on a supervised signal.  On any exception, busy workers are
        killed (their tasks are abandoned) but idle warm workers
        survive for the next call.
        """
        self.ensure_started()
        mp_wait = self._mp_wait

        # (spec, attempt, not-before) — retries wait out their backoff
        queue: List[Tuple[ExperimentSpec, int, float]] = [
            (spec, 0, 0.0) for spec in specs]
        aborted = False
        guards = config.guards
        guard_next = 0.0

        def dispatch(worker: _PoolWorker, spec: ExperimentSpec,
                     attempt: int) -> bool:
            now = time.monotonic()
            try:
                worker.conn.send({"spec": spec.to_dict(),
                                  "attempt": attempt, "config": config})
            except (BrokenPipeError, OSError):
                self._discard(worker)
                return False
            timeout = timeout_for(spec)
            worker.assign(spec, attempt, now,
                          None if timeout is None else now + timeout)
            return True

        def feed(worker: _PoolWorker) -> bool:
            """Dispatch the first queued task past its backoff to the
            idle ``worker``; False when no task is eligible yet."""
            now = time.monotonic()
            index = next((i for i, (_, _, nb) in enumerate(queue)
                          if nb <= now), None)
            if index is None:
                return False
            spec, attempt, _ = queue.pop(index)
            if not dispatch(worker, spec, attempt):
                # worker died at send time: put the task back and let
                # the loop's next pass replenish the pool
                queue.append((spec, attempt, now))
            return True

        def requeue(spec: ExperimentSpec, key: str, attempt: int,
                    error: str) -> None:
            if on_retry is not None:
                on_retry(spec, attempt, error)
            if supervisor is not None:
                supervisor.record_incident("retry", spec, error=error,
                                           attempt=attempt)
            delay = retry.delay(key, attempt)
            queue.append((spec, attempt + 1, time.monotonic() + delay))

        def fail(failure: FailedResult) -> None:
            nonlocal aborted
            on_failure(failure)
            if not keep_going:
                aborted = True

        def classify(spec: ExperimentSpec, key: str, attempt: int,
                     kind: str, error: str, message: str, traceback: str,
                     duration: float, pid: int) -> None:
            """Route one bad point: transient -> requeue, else fail.

            Timeout, crash and preempt incidents name the worker ``pid``
            that served the point.
            """
            transient = retry.is_transient_name(error)
            if supervisor is not None and kind in ("timeout", "crash",
                                                   "preempted"):
                supervisor.record_incident(kind, spec, error=error,
                                           attempt=attempt, worker=pid)
            if transient and attempt + 1 < retry.max_attempts:
                requeue(spec, key, attempt, error)
                return
            fail(FailedResult(spec=spec, kind=kind, error=error,
                              message=message, traceback=traceback,
                              attempts=attempt + 1, duration=duration,
                              permanent=not transient))

        def reap(worker: _PoolWorker) -> None:
            """A busy worker's pipe is readable: payload or EOF."""
            try:
                payload = worker.conn.recv()
            except (EOFError, OSError):
                payload = None
            spec, key, attempt = worker.spec, worker.key, worker.attempt
            started = worker.started
            pid = worker.proc.pid
            assert spec is not None
            if payload is None:      # worker died mid-task
                self._discard(worker)
                code = worker.proc.exitcode
                classify(spec, key, attempt, "crash", CRASH_ERROR,
                         f"worker exited with code {code}", "",
                         time.monotonic() - started, pid)
            elif payload.get("ok"):
                worker.clear()       # stays warm for the next task
                # Feed first: the worker simulates its next point while
                # the parent decodes, stores and records this one.
                if not aborted and not (supervisor is not None
                                        and supervisor.interrupted):
                    feed(worker)
                on_success(spec, SimResult.from_dict(payload["result"]),
                           payload["duration"])
            else:
                worker.clear()
                classify(spec, key, attempt, "error", payload["error"],
                         payload["message"], payload.get("traceback", ""),
                         payload.get("duration", 0.0), pid)

        try:
            while queue or any(w.busy for w in self._workers):
                if supervisor is not None and supervisor.interrupted:
                    self._kill_busy()
                    raise SweepInterrupted()
                if aborted:
                    self._kill_busy()
                    queue.clear()
                    break
                if queue:
                    # Workers lost to crashes/timeouts are replaced while
                    # work remains; an empty pool aborts to serial.
                    self._replenish()
                for worker in [w for w in self._workers if not w.busy]:
                    if not feed(worker):
                        break
                now = time.monotonic()
                busy = [w for w in self._workers if w.busy]
                if not busy:
                    if queue:   # everything is backing off
                        next_at = min(nb for _, _, nb in queue)
                        time.sleep(min(0.25, max(0.0, next_at - now)))
                    continue
                wait_for = self.poll_interval
                deadlines = [w.deadline for w in busy
                             if w.deadline is not None]
                if deadlines:
                    wait_for = min(wait_for,
                                   max(0.0, min(deadlines) - now))
                ready = mp_wait([w.conn for w in busy], timeout=wait_for)
                ready_set = set(ready)
                for worker in [w for w in busy if w.conn in ready_set]:
                    reap(worker)
                now = time.monotonic()
                for worker in [w for w in busy
                               if w.busy and w.deadline is not None
                               and now > w.deadline]:
                    spec, key, attempt = (worker.spec, worker.key,
                                          worker.attempt)
                    started, deadline = worker.started, worker.deadline
                    pid = worker.proc.pid
                    self._discard(worker)   # the watchdog kill
                    assert spec is not None and deadline is not None
                    classify(spec, key, attempt, "timeout", TIMEOUT_ERROR,
                             f"point exceeded its "
                             f"{deadline - started:.0f}s deadline",
                             "", now - started, pid)
                if guards.enabled and now >= guard_next:
                    guard_next = now + 1.0
                    for worker in [w for w in self._workers if w.busy]:
                        breach = guard_breach(guards, worker.proc.pid, ".")
                        if breach is None:
                            continue
                        spec, key, attempt = (worker.spec, worker.key,
                                              worker.attempt)
                        started, pid = worker.started, worker.proc.pid
                        assert spec is not None
                        if supervisor is not None:
                            supervisor.record_incident(
                                "guard", spec, reason=breach, worker=pid)
                        self._discard(worker)
                        classify(spec, key, attempt, "preempted",
                                 PREEMPT_ERROR, breach, "",
                                 now - started, pid)
        except BaseException:
            self._kill_busy()
            raise


# ----------------------------------------------------------------------
# Process-wide shared pool (the amortization carrier)
# ----------------------------------------------------------------------
_SHARED: Optional[PersistentPool] = None
_ATEXIT_REGISTERED = False


def _register_atexit() -> None:
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        _ATEXIT_REGISTERED = True
        atexit.register(shutdown_shared_pool)


def shared_pool(n_workers: int) -> PersistentPool:
    """The process-wide warm pool, resized (by restart) on demand.

    A size change tears the old pool down first — warm workers are only
    reusable at the width they were forked for.
    """
    global _SHARED
    if _SHARED is not None and _SHARED.n_workers != n_workers:
        _SHARED.shutdown()
        _SHARED = None
    if _SHARED is None:
        _SHARED = PersistentPool(n_workers)
    return _SHARED


def shutdown_shared_pool() -> None:
    """Stop the shared pool's workers (idempotent; atexit-registered)."""
    global _SHARED
    if _SHARED is not None:
        _SHARED.shutdown()
        _SHARED = None
