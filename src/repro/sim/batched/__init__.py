"""Batched engine backend (DESIGN.md §13).

``repro.sim.batched`` is the ``"batched"`` entry in the backend registry
(:mod:`repro.sim.backends`): the classic machine on the shared
calendar-queue :class:`~repro.sim.engine.Engine`, with

* :class:`~repro.sim.batched.cache.BatchedCache` — struct-of-arrays tag
  state (numpy) with fused lookup/fill paths and batched per-set
  replacement-metadata updates for the LRU/SRRIP/CARE hot policies,
* :class:`~repro.sim.batched.cpu.BatchedCore` — precomputed trace columns
  and a struct-of-arrays ROB ring,
* :class:`~repro.sim.batched.system.BatchedSystem` — the classic
  :class:`~repro.sim.system.System` wiring with the fast parts swapped in.

The backend is **bit-identical** to the classic engine: the golden
fixtures under ``tests/golden/`` are regenerated and checked against both
backends, and every fast path carries an equivalence argument in
DESIGN.md §13.
"""

from .system import BatchedSystem

__all__ = ["BatchedSystem"]
