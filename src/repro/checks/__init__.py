"""Correctness tooling for the simulator (SimSan).

Two complementary halves keep the hot-path invariants that PR 2's
optimization work relies on from rotting silently:

* :mod:`repro.checks.lint` — a static, AST-based lint engine with
  repo-specific rules: determinism (no unseeded RNG, no wall-clock
  reads, no iteration over unordered sets, no import-time environment
  reads), hot-path discipline (``__slots__``, no per-call closures, no
  f-string logging, events scheduled only through the engine), and API
  hygiene.  Run it with ``python -m repro check [paths]``.

* :mod:`repro.checks.sanitize` — an opt-in runtime sanitizer that
  observes a running :class:`~repro.sim.system.System` every N events
  and cross-checks structural invariants (event-time monotonicity,
  tag-index coherence, MSHR leaks and lost waiters, PMC cycle
  conservation, inclusion).  Enable with ``--sanitize`` (or
  ``System(..., sanitize=True)``); it observes but never perturbs
  simulation state, so sanitized runs stay byte-identical.

A third half-sibling aims the same fault-injection philosophy at the
*harness* instead of the simulator:

* :mod:`repro.checks.chaos` — deterministic, seeded fault injectors
  (worker raise/hang/kill, store corruption) driven by
  ``--chaos <profile>:<seed>``, which the supervised sweep runner
  (``repro.harness.supervise``) must absorb: retries converge, hung
  workers are killed, corrupt store entries are quarantined, and the
  resumed campaign reproduces the fault-free result set byte-for-byte.
"""

from __future__ import annotations

__all__ = ["chaos", "lint", "sanitize"]
