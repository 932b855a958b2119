"""Chaos: deterministic fault injection for the sweep harness.

SimSan's runtime sanitizer proves the *simulator* keeps its invariants;
this module does the same job for the *harness* — the supervised runner,
retry/timeout machinery, and store hardening added by the fault-tolerance
work are only trustworthy if they are exercised against real faults.
Chaos injects those faults deterministically: a seeded hash over
``(seed, fault, spec key)`` decides which sweep points are hit, so the
same ``--chaos`` value reproduces the same incident pattern on any
machine, and tests can predict exactly which points fail.

Enable with ``--chaos <profile>:<seed>[:<num>/<den>]`` on ``run`` or
``campaign run`` (or ``RunConfig(chaos=parse_chaos(...))``)::

    --chaos flaky:7        # transient OSError on first attempt
    --chaos kill,hang:3    # workers exit(137) or hang (both transient)
    --chaos all:1:1/2      # every fault, hitting half the points

Faults (``all`` = every one of them):

``raise``
    A permanent :class:`ChaosError` on **every** attempt — the point can
    never succeed while chaos is on, so it must land in the failure
    table and succeed on ``--resume`` with chaos off.
``flaky``
    A transient ``OSError`` on the first attempt only — the retry layer
    must recover it.
``hang``
    The worker sleeps "forever" (first attempt only) — the watchdog must
    kill it and the retry must complete the point.
``kill``
    The worker dies with ``os._exit(137)`` (first attempt only) — an
    OOM-killer stand-in; the supervisor must classify the crash as
    transient and retry.
``corrupt``
    Result-store and trace-cache writes for selected entries are
    truncated after the atomic rename — ``fsck`` / hardened ``get`` must
    quarantine them.
``preempt``
    A preempt request is latched before the first attempt — the
    checkpoint policy must save state and stop cleanly, and the retry
    must *resume* the save-state to a byte-identical result.  No-ops
    when checkpointing (``--checkpoint``) is disabled.
``ckpt-corrupt``
    Save-state writes for selected points are truncated after the
    atomic rename — restore must quarantine the torn file and
    cold-start (every attempt, like ``corrupt``).

``hang``/``kill`` are *disruptive*: they are only injected inside
supervised worker processes, never in-process (a serial sweep injecting
``kill`` would take the whole CLI down, which is not the failure mode
under test).  The parsed :class:`ChaosConfig` travels in the point's
:class:`~repro.harness.config.RunConfig`, like every other run setting.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Tuple

#: individual fault names (profile ``all`` expands to this tuple)
FAULTS: Tuple[str, ...] = ("raise", "flaky", "hang", "kill", "corrupt",
                           "preempt", "ckpt-corrupt")

#: faults that are injected on the first attempt only, so a retry (or a
#: watchdog kill + retry) recovers the point
TRANSIENT_FAULTS: Tuple[str, ...] = ("flaky", "hang", "kill", "preempt")

#: faults that require a sacrificial worker process
DISRUPTIVE_FAULTS: Tuple[str, ...] = ("hang", "kill")

#: how long an injected hang sleeps — effectively forever next to any
#: reasonable per-point deadline
HANG_SECONDS = 3600.0

#: default fraction of points each fault hits (numerator, denominator)
DEFAULT_RATE: Tuple[int, int] = (1, 3)


class ChaosError(RuntimeError):
    """Injected *permanent* failure (the ``raise`` fault)."""


@dataclass(frozen=True)
class ChaosConfig:
    """Parsed ``--chaos`` value: which faults, which seed, what rate."""

    faults: Tuple[str, ...]
    seed: int = 0
    rate_num: int = DEFAULT_RATE[0]
    rate_den: int = DEFAULT_RATE[1]

    def __post_init__(self) -> None:
        unknown = set(self.faults) - set(FAULTS)
        if unknown:
            raise ValueError(
                f"unknown chaos fault(s) {sorted(unknown)}; "
                f"available: {list(FAULTS)} (or 'all')")
        if not (0 < self.rate_num <= self.rate_den):
            raise ValueError("chaos rate must satisfy 0 < num <= den")

    def describe(self) -> str:
        return (f"{','.join(self.faults)}:{self.seed}"
                f":{self.rate_num}/{self.rate_den}")


def parse_chaos(raw: str) -> ChaosConfig:
    """Parse ``<profile>:<seed>[:<num>/<den>]`` into a :class:`ChaosConfig`."""
    parts = raw.strip().split(":")
    if not parts or not parts[0]:
        raise ValueError(f"empty chaos profile in {raw!r}")
    if len(parts) > 3:
        raise ValueError(
            f"bad chaos value {raw!r}; "
            "expected <profile>:<seed>[:<num>/<den>]")
    names = tuple(p.strip() for p in parts[0].split(",") if p.strip())
    if names == ("all",):
        names = FAULTS
    seed = 0
    if len(parts) >= 2 and parts[1].strip():
        seed = int(parts[1])
    num, den = DEFAULT_RATE
    if len(parts) == 3:
        frac = parts[2].split("/")
        if len(frac) != 2:
            raise ValueError(f"bad chaos rate {parts[2]!r}; expected num/den")
        num, den = int(frac[0]), int(frac[1])
    return ChaosConfig(faults=names, seed=seed, rate_num=num, rate_den=den)


def should_inject(cfg: ChaosConfig, fault: str, key: str,
                  attempt: int = 0) -> bool:
    """Deterministic per-(fault, point) decision.

    Transient faults fire on attempt 0 only, so the supervisor's retry is
    guaranteed to converge; ``raise`` fires on every attempt (permanent
    failure) and ``corrupt`` on every store write while chaos is on.
    """
    if fault not in cfg.faults:
        return False
    if fault in TRANSIENT_FAULTS and attempt > 0:
        return False
    digest = hashlib.sha256(
        f"{cfg.seed}:{fault}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % cfg.rate_den < cfg.rate_num


def planned_faults(cfg: ChaosConfig, key: str) -> Tuple[str, ...]:
    """Every fault that will hit ``key`` on its first attempt (test aid)."""
    return tuple(f for f in cfg.faults if should_inject(cfg, f, key, 0))


def inject_execute(cfg: ChaosConfig, key: str, attempt: int,
                   disruptive_ok: bool, checkpointing: bool = False) -> None:
    """Fire any execute-stage fault selected for ``(key, attempt)``.

    Called by the supervised worker (``disruptive_ok=True``) and by the
    serial runner (``disruptive_ok=False`` — hang/kill would take the
    main process down, so serial sweeps only see exception faults).
    Order is fixed (kill > hang > preempt > flaky > raise) so a point
    selected for several faults behaves identically everywhere.
    ``preempt`` only latches a request, and only when the point runs
    ``checkpointing``: the checkpoint policy consumes it at the next
    watcher boundary inside the simulation, and without a policy the
    latch would poison a later task instead.
    """
    if disruptive_ok and should_inject(cfg, "kill", key, attempt):
        os._exit(137)
    if disruptive_ok and should_inject(cfg, "hang", key, attempt):
        time.sleep(HANG_SECONDS)
    if checkpointing and should_inject(cfg, "preempt", key, attempt):
        from ..harness.preempt import request_preempt
        request_preempt()
    if should_inject(cfg, "flaky", key, attempt):
        raise OSError(f"chaos: injected transient fault for {key[:12]}")
    if should_inject(cfg, "raise", key, attempt):
        raise ChaosError(f"chaos: injected permanent fault for {key[:12]}")


def corrupt_entry(cfg: ChaosConfig, key: str, path: "os.PathLike[str]",
                  fault: str = "corrupt") -> bool:
    """Truncate a freshly written entry if ``fault`` selects ``key``.

    ``corrupt`` tears result-store and trace-cache entries,
    ``ckpt-corrupt`` save-states.  Returns True when the entry was torn
    (never raises).  Half the payload guarantees a decode error, which
    is exactly what a process killed mid-write (pre-atomic-rename
    filesystems, torn NFS writes) leaves behind.
    """
    if not should_inject(cfg, fault, key):
        return False
    try:
        os.truncate(path, max(1, os.path.getsize(path) // 2))
    except OSError:
        return False
    return True
