"""Checkpoint cadence, preemption protocol, and resource guards.

:mod:`repro.sim.savestate` defines the pure bytes-level save-state
format; this module owns everything around it that touches the world —
files, wall clocks, signals, and processes:

* :class:`CheckpointPolicy` — an engine watcher that writes save-states
  on an event and/or wall-clock cadence and turns a latched preempt
  request into a clean :class:`PreemptedError` at the next watcher
  boundary (the only point where a snapshot is phase-exact).  The
  policy rides the watcher mux, pickles *with* the system (so a
  restored run keeps the exact trampoline countdowns), and installs
  last so every other observer is settled when it fires.
* The **preempt latch** — a process-local flag set by
  :func:`request_preempt`, the worker ``SIGTERM`` handler, or the chaos
  ``preempt`` fault, and consumed by the policy's tick.  Workers only
  install the handler while executing a checkpointed task; idle
  persistent workers keep ``SIG_DFL`` so pool teardown stays instant.
* :func:`save_state` / :func:`try_restore` / :func:`clear_state` —
  save-state I/O under a content-addressed
  ``<dir>/<key[:2]>/<key>.ckpt.gz`` layout, by the :mod:`repro.durable`
  protocol.  A stale or corrupt state is quarantined and the caller
  cold-starts: a bad save-state may cost time, never a wrong answer.
* :func:`try_preempt` — the parent-side half of the protocol: SIGTERM a
  worker and wait a grace period for its final payload (which may be a
  preempted report *or* a normal result racing the signal) before the
  caller escalates to SIGKILL.
* :class:`ResourceGuards` — optional RSS budget (``/proc/<pid>/status``)
  and disk-free floor (``statvfs``) checks the pool runs beside the
  watchdog, so memory leaks and full disks preempt work instead of
  losing it to the OOM killer.

Every setting arrives in the point's
:class:`~repro.harness.config.RunConfig`: :class:`CheckpointConfig`
from ``--checkpoint``/``--checkpoint-secs`` and :class:`ResourceGuards`
from ``REPRO_RSS_BUDGET_MB``/``REPRO_DISK_FLOOR_MB``.
"""

from __future__ import annotations

import logging
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..durable import CorruptEntry, atomic_write, load

log = logging.getLogger(__name__)

#: synthetic error name a preempted worker reports (transient: the
#: supervisor requeues the point with its save-state attached)
PREEMPT_ERROR = "WorkerPreempted"

#: watcher cadence when only wall-clock (or only preempt-on-demand)
#: checkpointing is configured — frequent enough that a SIGTERM turns
#: into a save within a fraction of a second, rare enough to be free
DEFAULT_TICK_EVENTS = 20_000

#: parent-side seconds to wait for a preempted worker's final payload
DEFAULT_GRACE_SECS = 8.0


class PreemptedError(RuntimeError):
    """The run was preempted cleanly; ``path`` resumes it (may be None
    if the save itself failed — the retry then cold-starts)."""

    def __init__(self, path: Optional[str], events: int) -> None:
        where = path if path else "<save failed>"
        super().__init__(
            f"preempted at {events} events; save-state: {where}")
        self.path = path
        self.events = events


# ----------------------------------------------------------------------
# The preempt latch
# ----------------------------------------------------------------------
#: Process-local preempt request.  A one-element list mutated in place
#: (not a rebound module global): signal handlers, the chaos injector,
#: and the policy tick share it without import-order hazards.
_PREEMPT = [False]


def request_preempt() -> None:
    """Ask the running simulation to checkpoint and stop at the next
    watcher boundary (no-op if no checkpoint policy is installed)."""
    _PREEMPT[0] = True


def clear_preempt() -> None:
    """Drop any pending request (pools call this at task start so a
    late signal for the *previous* task cannot leak into the next)."""
    _PREEMPT[0] = False


def preempt_requested() -> bool:
    return _PREEMPT[0]


def _signal_preempt(signum: int, frame: Any) -> None:
    _PREEMPT[0] = True


def install_preempt_handler() -> Any:
    """Route SIGTERM to the latch; returns the previous handler.

    Installed by workers only for the duration of a checkpointed task —
    an idle worker keeps default signal behaviour so ``terminate()``
    still kills it instantly.
    """
    try:
        return signal.signal(signal.SIGTERM, _signal_preempt)
    except (ValueError, OSError):   # non-main thread / exotic embedding
        return None


def restore_preempt_handler(previous: Any) -> None:
    if previous is None:
        return
    try:
        signal.signal(signal.SIGTERM, previous)
    except (ValueError, OSError):
        pass


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckpointConfig:
    """Where save-states go and how often they are written: with no
    cadence, states are written only on preemption."""

    dir: str
    every_events: Optional[int] = None
    every_secs: Optional[float] = None


def state_path(root: Union[str, Path], key: str) -> Path:
    """Content-addressed save-state location (mirrors the result store)."""
    return Path(root) / key[:2] / f"{key}.ckpt.gz"


# ----------------------------------------------------------------------
# The checkpoint policy (an engine watcher)
# ----------------------------------------------------------------------
class CheckpointPolicy:
    """Cadence-driven save-state writer + preempt-request consumer.

    Lives on the engine's watcher mux; :meth:`_tick` runs at watcher
    boundaries where the engine has settled its counters, which is
    what makes the saved state resume phase-exact.  The policy pickles
    inside the save-state (it is registered in ``engine._watchers`` and
    on ``System.checkpoint``); only the process-local wall-clock
    deadline and the task's ``chaos`` profile are stripped; the resumed
    task sets its own.
    """

    __slots__ = ("path", "spec_key", "fingerprint", "every_events",
                 "every_secs", "chaos", "system", "saves", "_deadline",
                 "_installed")

    def __init__(self, path: Union[str, Path], spec_key: str,
                 fingerprint: str, every_events: Optional[int] = None,
                 every_secs: Optional[float] = None,
                 chaos: Optional[Any] = None) -> None:
        self.path = str(path)
        self.spec_key = spec_key
        self.fingerprint = fingerprint
        self.every_events = every_events
        self.every_secs = every_secs
        #: the task's :class:`~repro.checks.chaos.ChaosConfig` (for the
        #: ``ckpt-corrupt`` fault), or ``None``
        self.chaos = chaos
        self.system: Optional[Any] = None
        self.saves = 0
        self._deadline: Optional[float] = None
        self._installed = False

    @classmethod
    def for_spec(cls, cfg: CheckpointConfig, spec_key: str,
                 fingerprint: str,
                 chaos: Optional[Any] = None) -> "CheckpointPolicy":
        return cls(path=state_path(cfg.dir, spec_key), spec_key=spec_key,
                   fingerprint=fingerprint, every_events=cfg.every_events,
                   every_secs=cfg.every_secs, chaos=chaos)

    @property
    def tick_interval(self) -> int:
        return (self.every_events if self.every_events
                else DEFAULT_TICK_EVENTS)

    # -- lifecycle ------------------------------------------------------
    def install(self, system: Any) -> None:
        self.system = system
        system.engine.add_watcher(self._tick, self.tick_interval)
        self._installed = True
        self.rearm()

    def rearm(self) -> None:
        """(Re-)arm the process-local wall-clock cadence."""
        self._deadline = (time.monotonic() + self.every_secs
                          if self.every_secs else None)

    def uninstall(self) -> None:
        """Unregister and drop the link to the system (which links
        back through :attr:`System.checkpoint`)."""
        if self._installed and self.system is not None:
            self.system.engine.remove_watcher(self._tick)
            self._installed = False
        self.system = None

    # -- the watcher ----------------------------------------------------
    def _tick(self) -> None:
        if _PREEMPT[0]:
            _PREEMPT[0] = False
            path = save_state(self)
            raise PreemptedError(path, self.system.engine.events_processed)
        if self.every_events is not None:
            save_state(self)
            if self.every_secs:
                self._deadline = time.monotonic() + self.every_secs
        elif self._deadline is not None and time.monotonic() >= self._deadline:
            save_state(self)
            self._deadline = time.monotonic() + self.every_secs

    # -- pickling -------------------------------------------------------
    def __getstate__(self):
        state = {slot: getattr(self, slot)
                 for slot in CheckpointPolicy.__slots__}
        state["_deadline"] = None     # wall clock is process-local
        state["chaos"] = None         # and chaos belongs to one task
        return state

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)


# ----------------------------------------------------------------------
# Save-state I/O
# ----------------------------------------------------------------------
def save_state(policy: CheckpointPolicy) -> Optional[str]:
    """Atomically write the policy's system to its save-state path.

    Returns the path, or ``None`` when the write failed — checkpointing
    is an availability feature, so I/O trouble degrades to "no state"
    (logged) rather than killing a healthy simulation.  Chaos
    ``ckpt-corrupt`` then tears selected states on every attempt:
    resume must quarantine them and cold-start.
    """
    from ..sim.savestate import encode_savestate
    blob = encode_savestate(policy.system, spec_key=policy.spec_key,
                            fingerprint=policy.fingerprint)
    path = Path(policy.path)
    try:
        atomic_write(path, blob)
    except OSError as exc:
        log.warning("save-state write failed for %s: %s", path, exc)
        return None
    policy.saves += 1
    if policy.chaos is not None:
        from ..checks.chaos import corrupt_entry
        corrupt_entry(policy.chaos, policy.spec_key, path, "ckpt-corrupt")
    return str(path)


def try_restore(path: Union[str, Path], *, spec_key: str,
                fingerprint: str) -> Tuple[Optional[Any], Optional[str]]:
    """``(system, note)``: the restored system ready to ``resume()``.

    ``(None, None)`` means no state exists (normal cold start);
    ``(None, reason)`` means a state existed but was refused — it has
    been quarantined and the caller must cold-start, recording the
    reason as an incident.
    """
    from ..sim.savestate import SavestateError, decode_savestate

    def read(p: Path) -> Any:
        try:
            return decode_savestate(p.read_bytes(), spec_key=spec_key,
                                    fingerprint=fingerprint)
        except SavestateError as exc:   # stale or torn: refuse the file
            raise CorruptEntry(f"{type(exc).__name__}: {exc}") from exc

    return load(Path(path), read)


def clear_state(path: Union[str, Path]) -> None:
    """Delete a save-state (after its point completed)."""
    try:
        Path(path).unlink()
    except FileNotFoundError:
        pass
    except OSError as exc:
        log.warning("could not remove save-state %s: %s", path, exc)


# ----------------------------------------------------------------------
# Parent-side preemption
# ----------------------------------------------------------------------
def try_preempt(proc: Any, conn: Any) -> Optional[Dict[str, Any]]:
    """SIGTERM ``proc`` and wait up to :data:`DEFAULT_GRACE_SECS` for a
    payload.

    The payload may be the preempted report *or* a normal result that
    raced the signal — the caller routes whatever arrives through its
    usual reap path.  ``None`` means the worker neither answered nor
    died in time; the caller escalates (SIGKILL + its original
    classification).
    """
    try:
        proc.terminate()
    except (OSError, AttributeError):
        return None
    deadline = time.monotonic() + DEFAULT_GRACE_SECS
    while time.monotonic() < deadline:
        try:
            if conn.poll(0.05):
                return conn.recv()
        except (EOFError, OSError):
            return None
        if not proc.is_alive():
            try:
                if conn.poll(0):
                    return conn.recv()
            except (EOFError, OSError):
                pass
            return None
    return None


# ----------------------------------------------------------------------
# Resource guards
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResourceGuards:
    """Per-worker RSS budget and global disk-free floor (MiB)."""

    rss_budget_mb: Optional[float] = None
    disk_floor_mb: Optional[float] = None

    @property
    def enabled(self) -> bool:
        return (self.rss_budget_mb is not None
                or self.disk_floor_mb is not None)


def rss_mb(pid: int) -> Optional[float]:
    """Resident set size of ``pid`` in MiB (Linux ``/proc``; else None)."""
    try:
        with open(f"/proc/{pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return None
    return None


def disk_free_mb(path: Union[str, Path]) -> Optional[float]:
    """Free space (MiB) on the filesystem holding ``path``."""
    try:
        st = os.statvfs(str(path))
    except (OSError, AttributeError):
        return None
    return st.f_bavail * st.f_frsize / (1024.0 * 1024.0)


def guard_breach(guards: ResourceGuards, pid: int,
                 disk_path: Union[str, Path, None]) -> Optional[str]:
    """Human-readable breach description, or ``None`` when healthy."""
    if guards.rss_budget_mb is not None:
        rss = rss_mb(pid)
        if rss is not None and rss > guards.rss_budget_mb:
            return (f"worker rss {rss:.0f} MiB over the "
                    f"{guards.rss_budget_mb:.0f} MiB budget")
    if guards.disk_floor_mb is not None and disk_path is not None:
        free = disk_free_mb(disk_path)
        if free is not None and free < guards.disk_floor_mb:
            return (f"disk free {free:.0f} MiB under the "
                    f"{guards.disk_floor_mb:.0f} MiB floor")
    return None
