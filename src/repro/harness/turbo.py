"""Sweep throughput: persistent warm workers (+ the sweep benchmark).

DESIGN.md §13 closed the per-event front: scheduling is a minority of
wall time and no compiled backend is available, so the remaining
order-of-magnitude lever is *sweep-level* amortization.  A paper-scale
campaign runs thousands of short points, and the spawn pool
(:class:`~repro.harness.supervise.SupervisedPool`) pays process fork +
interpreter/numpy import + synthetic trace regeneration per point.  This
module keeps a pool of long-lived workers that fork once with imports
hot and serve tasks over pipes; with the content-addressed
:class:`~repro.workloads.tracecache.TraceCache` beside it, a warm point
pays for simulation only.

Semantics are the spawn pool's, by construction: both flavors route
every bad point through
:func:`~repro.harness.supervise.classify_failure`, the watchdog kills a
hung *worker* (not the pool) and the pool respawns it, crashes are
attributed by exit code and pid, chaos disruptive faults stay
worker-only, and SIGINT/manifest behavior lives in the caller
(:func:`repro.harness.runner.run_many`) unchanged.  ``REPRO_POOL=spawn``
selects the old process-per-task path; ``persistent`` (the default)
selects this one.

One semantic addition the spawn pool never needed: workers outlive env
changes in the parent, so every task ships a snapshot of the parent's
``REPRO_*`` environment (:func:`worker_env_snapshot`) and the worker
applies it before executing — sanitizer, chaos profile, and trace-cache
location follow the parent explicitly instead of relying on fork-time
inheritance.
"""

from __future__ import annotations

import atexit
import logging
import os
import time
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple)

from ..sim.stats import SimResult
from . import preempt
from .preempt import PREEMPT_ERROR
from .spec import ExperimentSpec
from .supervise import (
    CRASH_ERROR,
    TIMEOUT_ERROR,
    FailedResult,
    PoolUnavailable,
    RetryPolicy,
    SweepInterrupted,
    SweepSupervisor,
    classify_failure,
)

log = logging.getLogger(__name__)

POOL_ENV = "REPRO_POOL"
POOL_MODES = ("persistent", "spawn")

#: sentinel distinguishing "recv from the pipe" from "payload is None
#: because the worker died" in the pool's reap path
_UNRECEIVED = object()


def resolve_pool_mode(env: Optional[Dict[str, str]] = None) -> str:
    """``REPRO_POOL`` -> ``"persistent"`` (default) or ``"spawn"``."""
    raw = (env if env is not None else os.environ).get(POOL_ENV, "")
    mode = raw.strip().lower()
    if not mode:
        return "persistent"
    if mode in POOL_MODES:
        return mode
    log.warning("unknown %s=%r; using 'persistent' (options: %s)",
                POOL_ENV, raw, "|".join(POOL_MODES))
    return "persistent"


def worker_env_snapshot() -> Dict[str, str]:
    """The parent's ``REPRO_*`` environment, shipped with every task."""
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


def _apply_env(env: Dict[str, str]) -> None:
    """Make the worker's ``REPRO_*`` env equal the shipped snapshot."""
    for key in [k for k in os.environ
                if k.startswith("REPRO_") and k not in env]:
        del os.environ[key]
    for key, value in env.items():
        if os.environ.get(key) != value:
            os.environ[key] = value


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _execute_task(msg: Dict[str, Any]) -> Dict[str, Any]:
    """Run one task message; report failures as payloads, never raise."""
    start = time.monotonic()
    notes: Dict[str, Any] = {}
    previous_term = None
    try:
        from ..checks.chaos import chaos_from_env, inject_execute
        _apply_env(msg.get("env", {}))
        preempt.clear_preempt()   # a late signal for a previous task
        if preempt.checkpoint_from_env() is not None:
            # Only checkpointed tasks trade SIGTERM for a clean preempt;
            # the handler is restored below so an *idle* warm worker
            # keeps default teardown (terminate() stays instant).
            previous_term = preempt.install_preempt_handler()
        spec = ExperimentSpec.from_dict(msg["spec"])
        chaos = chaos_from_env()
        if chaos is not None:
            inject_execute(chaos, spec.key(), msg.get("attempt", 0),
                           disruptive_ok=True)
        result = spec.execute(notes=notes)
        payload: Dict[str, Any] = {"ok": True, "result": result.to_dict(),
                                   "duration": time.monotonic() - start}
    except preempt.PreemptedError as exc:
        payload = {"ok": False, "preempted": True, "error": PREEMPT_ERROR,
                   "message": str(exc),
                   "ckpt": {"path": exc.path, "events": exc.events},
                   "duration": time.monotonic() - start}
    except BaseException as exc:   # report absolutely everything
        import traceback as tb_mod
        payload = {"ok": False, "error": type(exc).__name__,
                   "message": str(exc),
                   "traceback": tb_mod.format_exc()[-4000:],
                   "duration": time.monotonic() - start}
    finally:
        preempt.restore_preempt_handler(previous_term)
    if notes:
        payload["notes"] = notes
    return payload


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
        if payload.get("preempted"):
            # A preempt is a wind-down request (watchdog, resource
            # guard, or operator signal): exit so the parent respawns a
            # fresh worker rather than reusing this one.
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
    """Warm worker pool with the spawn pool's supervision semantics.

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
            supervisor: Optional[SweepSupervisor] = None,
            keep_going: bool = True) -> None:
        """Resolve every spec on the warm pool (SupervisedPool.run API).

        Raises :class:`PoolUnavailable` when no worker can be forked
        (the runner falls back to serial) and :class:`SweepInterrupted`
        on a supervised signal.  On any exception, busy workers are
        killed (their tasks are abandoned) but idle warm workers
        survive for the next call.
        """
        self.ensure_started()
        mp_wait = self._mp_wait
        env = worker_env_snapshot()

        # (spec, attempt, not-before) — retries wait out their backoff
        queue: List[Tuple[ExperimentSpec, int, float]] = [
            (spec, 0, 0.0) for spec in specs]
        aborted = False
        guards = preempt.guards_from_env()
        guard_next = 0.0

        def dispatch(worker: _PoolWorker, spec: ExperimentSpec,
                     attempt: int) -> bool:
            now = time.monotonic()
            try:
                worker.conn.send({"spec": spec.to_dict(),
                                  "attempt": attempt, "env": env})
            except (BrokenPipeError, OSError):
                self._discard(worker)
                return False
            timeout = timeout_for(spec)
            worker.assign(spec, attempt, now,
                          None if timeout is None else now + timeout)
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
                     duration: float, pid: Optional[int],
                     ckpt: Optional[Dict[str, Any]] = None) -> None:
            classify_failure(
                retry, supervisor, spec, attempt, kind, error, message,
                traceback, duration,
                lambda: requeue(spec, key, attempt, error), fail,
                worker=pid, ckpt=ckpt)

        def reap(worker: _PoolWorker, payload: Any = _UNRECEIVED) -> None:
            """A busy worker's pipe is readable: payload or EOF.

            ``payload`` is passed pre-received when
            :func:`repro.harness.preempt.try_preempt` already drained
            the pipe.
            """
            if payload is _UNRECEIVED:
                try:
                    payload = worker.conn.recv()
                except (EOFError, OSError):
                    payload = None
            spec, key, attempt = worker.spec, worker.key, worker.attempt
            started = worker.started
            pid = worker.proc.pid
            assert spec is not None
            if payload is not None and supervisor is not None:
                notes = payload.get("notes") or {}
                if "resumed" in notes:
                    supervisor.record_incident("resumed", spec,
                                               events=notes["resumed"])
                if "quarantined" in notes:
                    supervisor.record_incident(
                        "ckpt-quarantined", spec,
                        reason=notes["quarantined"])
            if payload is None:      # worker died mid-task
                self._discard(worker)
                code = worker.proc.exitcode
                classify(spec, key, attempt, "crash", CRASH_ERROR,
                         f"worker exited with code {code}", "",
                         time.monotonic() - started, pid)
            elif payload.get("ok"):
                worker.clear()       # stays warm for the next task
                on_success(spec, SimResult.from_dict(payload["result"]),
                           payload["duration"])
            elif payload.get("preempted"):
                self._discard(worker)   # the worker exits after a preempt
                classify(spec, key, attempt, "preempted", payload["error"],
                         payload["message"], "",
                         payload.get("duration", 0.0), pid,
                         ckpt=payload.get("ckpt"))
            else:
                worker.clear()
                classify(spec, key, attempt, "error", payload["error"],
                         payload["message"], payload.get("traceback", ""),
                         payload.get("duration", 0.0), pid)

        def try_preempt_worker(worker: _PoolWorker) -> bool:
            """Checkpoint-first alternative to the watchdog kill."""
            if preempt.checkpoint_from_env() is None:
                return False
            payload = preempt.try_preempt(worker.proc, worker.conn)
            if payload is None:
                return False
            reap(worker, payload)
            return True

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
                now = time.monotonic()
                for worker in [w for w in self._workers if not w.busy]:
                    index = next((i for i, (_, _, nb) in enumerate(queue)
                                  if nb <= now), None)
                    if index is None:
                        break
                    spec, attempt, _ = queue.pop(index)
                    if not dispatch(worker, spec, attempt):
                        # worker died at send time: put the task back and
                        # let the next iteration replenish the pool
                        queue.append((spec, attempt, now))
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
                    # Checkpoint-first: a preempted point resumes from
                    # its save-state instead of repeating all its work.
                    if try_preempt_worker(worker):
                        continue
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
                    ckpt_cfg = preempt.checkpoint_from_env()
                    disk_path = ckpt_cfg.dir if ckpt_cfg is not None else "."
                    for worker in [w for w in self._workers if w.busy]:
                        breach = preempt.guard_breach(
                            guards, worker.proc.pid, disk_path)
                        if breach is None:
                            continue
                        spec, key, attempt = (worker.spec, worker.key,
                                              worker.attempt)
                        started, pid = worker.started, worker.proc.pid
                        assert spec is not None
                        if supervisor is not None:
                            supervisor.record_incident(
                                "guard", spec, reason=breach, worker=pid)
                        if try_preempt_worker(worker):
                            continue
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
