"""Resource guards: the probes the worker pool checks beside its watchdog.

A point runs from start to finish; there is no mid-run save-state.  So
when a busy worker breaches a guard, the pool kills it and requeues its
point as a transient :data:`PREEMPT_ERROR` failure, and the retry
restarts the point cold, exactly as a watchdog timeout does.  Memory
leaks and full disks thus cost one attempt instead of losing the sweep
to the OOM killer.

* :func:`rss_mb` reads a worker's resident set size
  (``/proc/<pid>/status``).
* :func:`disk_free_mb` reads the free space under a path (``statvfs``).
* :func:`guard_breach` compares both with the
  :class:`~repro.harness.config.ResourceGuards` that
  ``REPRO_RSS_BUDGET_MB``/``REPRO_DISK_FLOOR_MB`` set, and names what
  was breached.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from .config import ResourceGuards

#: synthetic error name of a point whose worker a guard breach killed
#: (transient: the supervisor requeues the point for a cold restart)
PREEMPT_ERROR = "WorkerPreempted"


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
