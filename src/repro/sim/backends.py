"""Pluggable engine-backend registry (DESIGN.md §13).

The simulator has one *model* (cores, caches, MSHRs, PML, DRAM) but may
have several *engine cores* that execute it: the classic per-block
caches and deque ROB (:class:`repro.sim.system.System`) and the batched
struct-of-arrays core (:class:`repro.sim.batched.system.BatchedSystem`),
both on the one calendar-queue :class:`repro.sim.engine.Engine`.  A
backend is a factory with the ``System`` constructor signature::

    factory(cfg, traces, llc_policy=..., prefetch=..., seed=..., ...)

returning an object whose ``run()`` yields a
:class:`~repro.sim.stats.SimResult`.  Every backend must be
*bit-identical* to ``classic`` — the golden suite enforces it — so the
selection is purely a throughput knob.

Selection precedence (:func:`resolve_engine`):

1. ``REPRO_ENGINE`` environment variable — operator override, used by
   the CI cross-backend golden job to re-execute fixture specs under
   another backend without touching their identity;
2. the explicit ``engine=`` argument at the call site
   (``simulate(engine=...)``, ``--engine`` on the CLI);
3. ``SystemConfig.engine``;
4. ``"classic"``.

Built-in backends are registered lazily so importing this module never
drags in numpy; third parties may :func:`register_backend` their own.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:
    from .system import System

#: A backend factory: ``factory(cfg, traces, **kwargs) -> System``-like.
BackendFactory = Callable[..., object]

DEFAULT_BACKEND = "classic"

#: Environment override (highest precedence) — lets CI re-run any stored
#: spec / golden fixture under another backend for equivalence checks.
ENGINE_ENV = "REPRO_ENGINE"

_REGISTRY: Dict[str, BackendFactory] = {}

#: Lazily imported built-ins: name -> "module:attribute".
_BUILTINS: Dict[str, str] = {
    "classic": "repro.sim.system:System",
    "batched": "repro.sim.batched.system:BatchedSystem",
}


class UnknownBackendError(KeyError):
    """Raised when an engine name resolves to no registered backend."""


def register_backend(name: str, factory: BackendFactory) -> BackendFactory:
    """Register (or replace) a backend under ``name``; returns ``factory``."""
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    if not callable(factory):
        raise TypeError(f"backend factory for {name!r} is not callable")
    _REGISTRY[name] = factory
    return factory


def get_backend(name: str) -> BackendFactory:
    """Resolve ``name`` to its factory, importing built-ins on demand."""
    try:
        return _REGISTRY[name]
    except KeyError:
        pass
    target = _BUILTINS.get(name)
    if target is None:
        raise UnknownBackendError(
            f"unknown engine backend {name!r}; "
            f"available: {sorted(available_backends())}")
    module_name, _, attr = target.partition(":")
    import importlib
    factory = getattr(importlib.import_module(module_name), attr)
    _REGISTRY[name] = factory
    return factory


def available_backends() -> Tuple[str, ...]:
    """Names selectable right now (built-ins plus registered), sorted."""
    return tuple(sorted(set(_BUILTINS) | set(_REGISTRY)))


def engine_from_env(default: str = DEFAULT_BACKEND) -> str:
    """``REPRO_ENGINE`` if set and non-empty, else ``default``."""
    return os.environ.get(ENGINE_ENV, "").strip() or default


def resolve_engine(engine: Optional[str] = None, cfg: Optional[object] = None) -> str:
    """Pick the backend name per the precedence in the module docstring."""
    env = os.environ.get(ENGINE_ENV, "").strip()
    if env:
        return env
    if engine:
        return engine
    cfg_engine = getattr(cfg, "engine", "") if cfg is not None else ""
    return cfg_engine or DEFAULT_BACKEND


def build_system(cfg, traces, *, engine: Optional[str] = None,
                 **kwargs) -> "System":
    """Construct the selected backend's system (does not run it)."""
    return get_backend(resolve_engine(engine, cfg))(cfg, traces, **kwargs)
