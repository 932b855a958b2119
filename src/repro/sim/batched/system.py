"""Batched system: classic topology with the fast components swapped in.

:class:`BatchedSystem` reuses every piece of shared machinery from
:class:`~repro.sim.system.System` — the hierarchy wiring, the PMC
concurrency monitor, warmup/finish bookkeeping, sanitizer and observer
attachment, result assembly — and overrides only the component-class
hooks.  The memory side (DRAM / memory controller) is deliberately *not*
swapped: it schedules through the engine's public API and is cold
relative to the cache levels.

``run()`` additionally disables the garbage collector for the duration
of the drain: the simulator allocates requests/entries in arena-like
bursts with no reference cycles on the hot path, so collector pauses are
pure overhead.  The previous GC state is restored on exit.
"""

from __future__ import annotations

import gc

from .cache import BatchedCache
from .cpu import BatchedCore
from ..stats import SimResult
from ..system import System


class BatchedSystem(System):
    """Classic wiring with the SoA cache and core swapped in."""

    __slots__ = ()

    cache_cls = BatchedCache
    core_cls = BatchedCore

    def run(self) -> SimResult:
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            return super().run()
        finally:
            if was_enabled:
                gc.enable()

    def resume(self) -> SimResult:
        # Same GC discipline as run(): resumed segments execute the very
        # same inner loops, so they get the same allocator behaviour.
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            return super().resume()
        finally:
            if was_enabled:
                gc.enable()

    def _relink(self) -> None:
        # Save-states drop the caches' engine-calendar aliases (see
        # BatchedCache.__getstate__); re-bind them to the restored engine.
        for cache in [self.llc] + self.l1s + self.l2s:
            cache.relink_engine()
