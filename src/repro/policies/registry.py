"""Name → policy factory registry.

Every scheme evaluated in the paper (plus the classical policies they build
on and testing aids like Belady-OPT for the standalone simulator) registers
here.  ``make_policy`` instantiates by name; extra keyword arguments flow to
the policy constructor so experiment code can override scheme parameters.
"""

from __future__ import annotations

import inspect
import logging
from typing import Callable, Dict, FrozenSet, List, Set, Tuple

from .base import ReplacementPolicy

log = logging.getLogger(__name__)

_REGISTRY: Dict[str, Callable[..., ReplacementPolicy]] = {}

#: uniform-context keys the System passes to *every* policy; schemes that
#: don't take them may drop them silently (that is the whole point of the
#: uniform context, not a caller mistake worth warning about).
CONTEXT_KWARGS: FrozenSet[str] = frozenset({"n_cores"})

_warned_drops: Set[Tuple[str, FrozenSet[str]]] = set()


def register(name: str):
    """Class decorator: register a policy under ``name``."""

    def deco(cls):
        if name in _REGISTRY:
            raise ValueError(f"policy {name!r} already registered")
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return deco


def available_policies() -> List[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


def make_policy(name: str, sets: int, ways: int, seed: int = 0,
                **kwargs) -> ReplacementPolicy:
    """Instantiate the policy registered under ``name``.

    Keyword arguments not accepted by the policy's constructor (e.g.
    ``n_cores`` for single-core-agnostic policies) are dropped, so the
    System can pass a uniform context to every scheme.  Dropping anything
    *outside* that uniform context (``CONTEXT_KWARGS``) is almost always a
    misspelled scheme-parameter override.

    .. deprecated::
        The silent-drop path for non-context kwargs is deprecated: it now
        emits a :class:`DeprecationWarning` (once per (policy,
        argument-set) combination) and will become a ``TypeError``.  Pass
        only kwargs the policy accepts, or fix the spelling.
    """
    _ensure_loaded()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; available: {available_policies()}"
        ) from None
    params = inspect.signature(factory.__init__).parameters
    accepts_var = any(p.kind == inspect.Parameter.VAR_KEYWORD
                      for p in params.values())
    if not accepts_var:
        dropped = frozenset(kwargs) - set(params) - CONTEXT_KWARGS
        if dropped and (name, dropped) not in _warned_drops:
            # SS601: warn-once latch; a warm worker warns once per
            # process instead of once per task, and results never
            # depend on it.
            _warned_drops.add((name, dropped))  # simsan: skip=SS601
            import warnings
            warnings.warn(
                f"policy {name!r} does not accept constructor kwargs "
                f"{sorted(dropped)}; relying on make_policy to drop them "
                "is deprecated and will become a TypeError — remove or "
                "fix the argument",
                DeprecationWarning, stacklevel=2)
            log.warning(
                "policy %r does not accept constructor kwargs %s; "
                "they are ignored", name, sorted(dropped))
        kwargs = {k: v for k, v in kwargs.items() if k in params}
    return factory(sets, ways, seed=seed, **kwargs)


_loaded = False


def _ensure_loaded() -> None:
    """Import every policy module once so decorators run."""
    global _loaded
    if _loaded:
        return
    # SS601: idempotent import latch; every process ends up with the
    # same registry, whichever task loads it first.
    _loaded = True  # simsan: skip=SS601
    from . import (  # noqa: F401
        fifo, lfu, lru, random_policy, srrip, drrip, dip, rlr, eaf,
        ship, shippp, sbar, lacs, hawkeye, glider, mockingjay, opt,
    )
    from ..core import care, mcare  # noqa: F401
    # Register classical policies that predate the decorator.
    from .lru import LRUPolicy
    if "lru" not in _REGISTRY:
        _REGISTRY["lru"] = LRUPolicy
