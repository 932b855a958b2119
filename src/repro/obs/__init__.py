"""``repro.obs`` — structured observability for the simulator.

Three pieces (DESIGN.md §11):

* :class:`~repro.obs.sampler.MetricsSampler` — interval metrics
  time-series (per-core IPC, per-cache MPKI/occupancy/MSHR pressure,
  DRAM bandwidth, PMC distribution, DTRM thresholds), attached through
  :meth:`repro.sim.engine.Engine.add_watcher`.
* :class:`~repro.obs.tracer.ChromeTracer` — opt-in Chrome-trace-format
  request-lifecycle spans with deterministic sampling; open the output
  in Perfetto / ``chrome://tracing``.
* :mod:`repro.obs.report` — ``python -m repro report``: markdown/JSON
  summaries (speedup over LRU, MPKI deltas, PMC breakdowns) rendered
  from the persistent result store.

Both observers only *read* simulator state, so observed runs stay
byte-identical (the golden fixtures are asserted with them attached).
Configuration travels as a frozen :class:`~repro.obs.schema.ObsConfig`
inside the point's :class:`~repro.harness.config.RunConfig`, so sweep
workers observe exactly what the command asked for.
"""

from .incidents import IncidentLog
from .sampler import MetricsSampler
from .schema import (MetricsTable, ObsConfig, OBS_SCHEMA_VERSION,
                     write_outputs)
from .tracer import ChromeTracer

__all__ = [
    "ChromeTracer",
    "IncidentLog",
    "MetricsSampler",
    "MetricsTable",
    "ObsConfig",
    "OBS_SCHEMA_VERSION",
    "write_outputs",
]
