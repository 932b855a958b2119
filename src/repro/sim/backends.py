"""Build the simulated machine for a stored engine name (DESIGN.md §13).

The simulator has one execution core, :class:`repro.sim.system.System`.
``ExperimentSpec.engine`` is still a spec field because it is part of
every stored spec key, so :func:`build_system` takes the name, builds the
machine for ``"classic"`` and refuses any other name.
"""

from __future__ import annotations

from .system import System


def build_system(cfg, traces, *, engine: str = "classic",
                 **kwargs) -> System:
    """Construct (but do not run) ``System(cfg, traces, **kwargs)``."""
    if engine != "classic":
        raise ValueError(
            f"engine {engine!r} cannot be simulated: the batched backend "
            "was removed, and its results were bit-identical to 'classic'")
    return System(cfg, traces, **kwargs)
