"""SimSan runtime sanitizer: opt-in invariant checks on a live System.

Public surface::

    from repro.checks.sanitize import Sanitizer, SanitizerError, attach_sanitizer
    san = attach_sanitizer(system, interval=1000)   # hooks engine.watcher
    system.engine.run()                             # raises SanitizerError on a trip

Enable on any run with ``--sanitize`` on the CLI (or
``System(..., sanitize=True)``, which sweeps every ``DEFAULT_INTERVAL``
events); pass ``interval=`` to :func:`attach_sanitizer` to tune it.
"""

from __future__ import annotations

from .sanitizer import (ALL_INVARIANTS, DEFAULT_INTERVAL,
                        DEFAULT_MSHR_AGE_LIMIT, SAN_INCL, SAN_MSHR, SAN_PMC,
                        SAN_TAG, SAN_TIME, SAN_WAITER, Sanitizer,
                        SanitizerError, attach_sanitizer)

__all__ = [
    "ALL_INVARIANTS",
    "DEFAULT_INTERVAL",
    "DEFAULT_MSHR_AGE_LIMIT",
    "SAN_INCL",
    "SAN_MSHR",
    "SAN_PMC",
    "SAN_TAG",
    "SAN_TIME",
    "SAN_WAITER",
    "Sanitizer",
    "SanitizerError",
    "attach_sanitizer",
]
