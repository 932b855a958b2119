"""The run configuration: every setting a simulated point runs under.

A :class:`RunConfig` is built once per command, from the flags of
``run``, ``campaign run`` and ``perf --sweep``, or with
:meth:`RunConfig.from_env` at call time for library callers.  It then
travels explicitly: ``run``/``run_many(config=)`` -> the worker pool's
task message -> :meth:`~repro.harness.spec.ExperimentSpec.execute` ->
``build_system(sanitize=, obs=)``.  A warm worker therefore
runs each point under exactly the settings its own task carried, and a
second command in one process never inherits the first one's.

This module is the only code that reads the environment, and the
environment holds only four deployment settings:

``REPRO_RESULT_STORE``
    Result-store root (default ``~/.cache/repro-care/results``;
    ``off``/``0``/``none``/empty disables it).
``REPRO_TRACE_CACHE``
    Trace-cache root (default ``~/.cache/repro-care/traces``; same
    disable values).
``REPRO_RSS_BUDGET_MB`` / ``REPRO_DISK_FLOOR_MB``
    Resource guards: a per-worker RSS budget and a disk-free floor,
    checked by the worker pool beside its watchdog.

Every other setting is a command-line flag.  Any other ``REPRO_*``
variable draws one warning and is otherwise ignored, so a stale setting
left in a shell or CI file cannot vanish silently.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Set

if TYPE_CHECKING:
    from ..checks.chaos import ChaosConfig
    from ..obs.schema import ObsConfig

log = logging.getLogger(__name__)

RESULT_STORE_ENV = "REPRO_RESULT_STORE"
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"
RSS_BUDGET_ENV = "REPRO_RSS_BUDGET_MB"
DISK_FLOOR_ENV = "REPRO_DISK_FLOOR_MB"
ENV_VARS = (RESULT_STORE_ENV, TRACE_CACHE_ENV, RSS_BUDGET_ENV, DISK_FLOOR_ENV)

_DISABLED_VALUES = {"", "0", "off", "none", "disabled"}

#: retired ``REPRO_*`` names this process has already warned about
_WARNED: Set[str] = set()


def read_env() -> Dict[str, str]:
    """The deployment settings set in the environment (see module doc).

    The one reader of ``os.environ``.  Each other ``REPRO_*`` name is
    warned about once per process and dropped.
    """
    env = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for name in sorted(set(env) - set(ENV_VARS) - _WARNED):
        # SS601: warn-once bookkeeping; the set only grows and no result
        # depends on it
        _WARNED.add(name)  # simsan: skip=SS601
        log.warning("ignoring %s: the environment only sets %s; use the "
                    "command-line flag instead", name, ", ".join(ENV_VARS))
    return {k: env[k] for k in ENV_VARS if k in env}


def cache_root(raw: Optional[str], leaf: str) -> Optional[str]:
    """Directory a cache setting names: unset means
    ``~/.cache/repro-care/<leaf>``; a disable value means ``None``."""
    if raw is None:
        return str(Path.home() / ".cache" / "repro-care" / leaf)
    if raw.strip().lower() in _DISABLED_VALUES:
        return None
    return raw


def _megabytes(env: Dict[str, str], name: str) -> Optional[float]:
    raw = env.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        log.warning("ignoring non-numeric %s=%r", name, raw)
        return None
    return value if value > 0 else None


def result_store_root() -> Optional[str]:
    """Root of the default result store (``None``: disabled)."""
    return cache_root(read_env().get(RESULT_STORE_ENV), "results")


@dataclass(frozen=True)
class ResourceGuards:
    """Per-worker RSS budget and global disk-free floor (MiB), checked
    by the worker pool with :func:`repro.harness.preempt.guard_breach`."""

    rss_budget_mb: Optional[float] = None
    disk_floor_mb: Optional[float] = None

    @property
    def enabled(self) -> bool:
        return (self.rss_budget_mb is not None
                or self.disk_floor_mb is not None)


@dataclass(frozen=True)
class RunConfig:
    """Frozen settings for one command's simulated points.

    ``RunConfig()`` is a plain run: no sanitizer, observers, chaos,
    trace cache or resource guards.  ``trace_cache`` is a
    directory, or ``None`` for off.
    """

    sanitize: bool = False
    obs: Optional[ObsConfig] = None
    chaos: Optional[ChaosConfig] = None
    trace_cache: Optional[str] = None
    guards: ResourceGuards = ResourceGuards()

    @classmethod
    def from_env(cls) -> "RunConfig":
        """A plain run with the environment's trace cache and guards."""
        env = read_env()
        return cls(trace_cache=cache_root(env.get(TRACE_CACHE_ENV),
                                          "traces"),
                   guards=ResourceGuards(
                       rss_budget_mb=_megabytes(env, RSS_BUDGET_ENV),
                       disk_floor_mb=_megabytes(env, DISK_FLOOR_ENV)))
