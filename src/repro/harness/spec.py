"""The unit of work for the sweep engine: one simulation point.

Every paper figure is a sweep over (workload, policy, core count,
prefetch); :class:`ExperimentSpec` captures one such point as a frozen,
hashable, picklable value.  The runner executes specs (possibly in a
worker pool), the store content-addresses them, and campaigns
(:mod:`repro.harness.campaign`) expand the paper's figures into them.

A spec fully determines its result: traces are generated from
``(workload, suite, seed, n_records)``, the machine from
``(preset, n_cores)``, and the simulator is deterministic, so equal specs
produce byte-identical ``SimResult`` JSON in any process.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Optional

from ..sim.config import SystemConfig
from ..sim.stats import SimResult

if TYPE_CHECKING:
    from ..workloads.trace import Trace
    from .config import RunConfig

#: SystemConfig presets a spec may name (kept as names so specs stay
#: flat/hashable; add an entry here to expose a new machine).
CONFIG_PRESETS = {
    "default": SystemConfig.default,
    "paper": SystemConfig.paper,
    "tiny": SystemConfig.tiny,
}

#: Bump when spec semantics change in a way that invalidates stored keys.
#: v2: ``engine`` backend name joined the spec.  Only ``"classic"`` is
#: left, but the field stays part of every key so stored results,
#: sweep manifests and campaign ledgers keep their addresses.
SPEC_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation point (frozen — safe as dict key and across pickle)."""

    workload: str                 # SPEC/GAP name; "" for mixed workloads
    policy: str
    n_cores: int = 4
    prefetch: bool = True
    suite: str = "spec"           # "spec" | "gap" | "serve" | "mix"
    n_records: int = 6000         # measured records per core
    seed: int = 3
    collect_deltas: bool = False
    mix_id: Optional[int] = None  # set iff suite == "mix"
    preset: str = "default"       # CONFIG_PRESETS key
    engine: str = "classic"       # the only engine; kept for spec keys

    def __post_init__(self) -> None:
        if self.suite == "mix":
            if self.mix_id is None:
                raise ValueError("mix specs need mix_id")
        elif self.suite in ("spec", "gap", "serve"):
            if not self.workload:
                raise ValueError(f"{self.suite} specs need a workload name")
            if self.mix_id is not None:
                raise ValueError("mix_id only applies to suite='mix'")
        else:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.preset not in CONFIG_PRESETS:
            raise ValueError(
                f"unknown preset {self.preset!r}; "
                f"available: {sorted(CONFIG_PRESETS)}")
        if self.n_cores < 1 or self.n_records < 1:
            raise ValueError("n_cores and n_records must be >= 1")
        if not self.engine or not isinstance(self.engine, str):
            raise ValueError("engine must be a non-empty backend name")

    # -- constructors ---------------------------------------------------
    @classmethod
    def multicopy(cls, workload: str, policy: str, n_cores: int = 4,
                  prefetch: bool = True, suite: str = "spec",
                  n_records: Optional[int] = None, seed: int = 3,
                  collect_deltas: bool = False,
                  preset: str = "default") -> "ExperimentSpec":
        """Multi-copy workload point (Figs. 3, 7-9, 11-14, Tables X-XI)."""
        if n_records is None:
            n_records = cls.n_records
        return cls(workload=workload, policy=policy, n_cores=n_cores,
                   prefetch=prefetch, suite=suite, n_records=n_records,
                   seed=seed, collect_deltas=collect_deltas, preset=preset)

    @classmethod
    def single(cls, workload: str, policy: str = "lru",
               prefetch: bool = False, suite: str = "spec",
               n_records: Optional[int] = None, seed: int = 3,
               collect_deltas: bool = False) -> "ExperimentSpec":
        """Single-core point (Fig. 5, Tables III and VIII)."""
        return cls.multicopy(workload, policy, n_cores=1, prefetch=prefetch,
                             suite=suite, n_records=n_records, seed=seed,
                             collect_deltas=collect_deltas)

    @classmethod
    def mix(cls, mix_id: int, policy: str, n_cores: int = 4,
            prefetch: bool = True, n_records: Optional[int] = None,
            seed: int = 3) -> "ExperimentSpec":
        """Fig. 10 mixed-workload point."""
        if n_records is None:
            n_records = cls.n_records
        return cls(workload="", policy=policy, n_cores=n_cores,
                   prefetch=prefetch, suite="mix", n_records=n_records,
                   seed=seed, mix_id=mix_id)

    # -- identity -------------------------------------------------------
    def to_dict(self) -> Dict:
        # Every field is a flat scalar, so a plain dict is the same as
        # ``dataclasses.asdict`` without its recursive deep copy.
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentSpec":
        unknown = set(data) - set(_FIELD_NAMES)
        if unknown:
            raise ValueError(f"unknown ExperimentSpec fields: {sorted(unknown)}")
        return cls(**data)

    def canonical_json(self) -> str:
        """Stable textual identity (sorted keys, compact separators)."""
        payload = {"spec_schema": SPEC_SCHEMA_VERSION, **self.to_dict()}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def key(self) -> str:
        """Content hash of the spec — the store's addressing unit."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def label(self) -> str:
        """Short human-readable tag for progress lines."""
        name = f"mix{self.mix_id}" if self.suite == "mix" else self.workload
        pf = "pf" if self.prefetch else "nopf"
        return f"{name}/{self.policy}/{self.n_cores}c/{pf}"

    def cost_units(self) -> int:
        """Rough work estimate (records x cores) — the supervisor scales
        per-point watchdog deadlines by this, so a 16-core full-length
        point gets proportionally more wall-clock than a smoke point."""
        return self.n_cores * self.n_records

    # -- execution ------------------------------------------------------
    def build_config(self) -> SystemConfig:
        return CONFIG_PRESETS[self.preset](self.n_cores)

    def build_traces(self, config: Optional["RunConfig"] = None
                     ) -> List["Trace"]:
        """One :class:`~repro.workloads.trace.Trace` per core (2x
        n_records: warmup + measured), read through the trace cache
        ``config`` names (without a config, the one ``REPRO_TRACE_CACHE``
        names).  The traces may be shared with the cache's memo: callers
        must not modify them."""
        from ..workloads.mixes import mixed_workload_traces, multicopy_traces
        from ..workloads.tracecache import USE_DEFAULT_CACHE, trace_cache_for
        cache = (USE_DEFAULT_CACHE if config is None
                 else trace_cache_for(config.trace_cache, config.chaos))
        if self.suite == "mix":
            traces = mixed_workload_traces(self.n_cores, self.mix_id,
                                           2 * self.n_records, seed=self.seed,
                                           cache=cache)
        else:
            traces = multicopy_traces(self.workload, self.n_cores,
                                      2 * self.n_records, seed=self.seed,
                                      suite=self.suite, cache=cache)
        return traces

    def execute(self, config: Optional["RunConfig"] = None) -> SimResult:
        """Run the simulation for this point (no caching — see the runner).

        ``config`` (:class:`~repro.harness.config.RunConfig`) carries
        every run setting: sanitizer, observers, chaos and the trace
        cache.  Library callers may omit it and get
        :meth:`RunConfig.from_env() <repro.harness.config.RunConfig.from_env>`.

        A spec whose ``engine`` is not ``"classic"`` (a stored result of
        the removed batched backend) raises ``ValueError``: it can still
        be served from the store, but not re-simulated.
        """
        from ..sim.backends import build_system
        if config is None:
            from .config import RunConfig
            config = RunConfig.from_env()
        obs = config.obs
        if obs is not None and obs.enabled and obs.tag == "run":
            # The label omits records, seed and preset, so points that
            # differ only there share it; the key prefix keeps their
            # artifacts apart.
            obs = obs.with_tag(f"{self.label()}-{self.key()[:12]}")
        traces = self.build_traces(config)
        n = min(len(t) for t in traces)
        system = build_system(self.build_config(), traces,
                              engine=self.engine, llc_policy=self.policy,
                              prefetch=self.prefetch, seed=self.seed,
                              measure_records=n // 2, warmup_records=n // 2,
                              collect_deltas=self.collect_deltas,
                              sanitize=config.sanitize, obs=obs)
        return system.run()


#: the spec's field names, in declaration order
_FIELD_NAMES = tuple(f.name for f in fields(ExperimentSpec))
