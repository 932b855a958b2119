"""The unit of work for the sweep engine: one simulation point.

Every paper figure is a sweep over (workload, policy, core count,
prefetch); :class:`ExperimentSpec` captures one such point as a frozen,
hashable, picklable value.  The runner executes specs (possibly in a
worker pool), the store content-addresses them, and the legacy
``run_multicopy`` / ``run_mix`` helpers are thin wrappers that build a
spec and hand it to :func:`repro.harness.runner.run`.

A spec fully determines its result: traces are generated from
``(workload, suite, seed, n_records)``, the machine from
``(preset, n_cores)``, and the simulator is deterministic, so equal specs
produce byte-identical ``SimResult`` JSON in any process.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence

from ..sim.config import SystemConfig
from ..sim.stats import SimResult

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
        from .scale import get_scale
        return cls(workload=workload, policy=policy, n_cores=n_cores,
                   prefetch=prefetch, suite=suite,
                   n_records=(get_scale().records if n_records is None
                              else n_records),
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
        from .scale import get_scale
        return cls(workload="", policy=policy, n_cores=n_cores,
                   prefetch=prefetch, suite="mix",
                   n_records=(get_scale().records if n_records is None
                              else n_records),
                   seed=seed, mix_id=mix_id)

    # -- identity -------------------------------------------------------
    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentSpec":
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
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

    def build_traces(self) -> List[Sequence]:
        """Per-core record sequences (2x n_records: warmup + measured)."""
        from ..workloads.mixes import mixed_workload_traces, multicopy_traces
        if self.suite == "mix":
            traces = mixed_workload_traces(self.n_cores, self.mix_id,
                                           2 * self.n_records, seed=self.seed)
        else:
            traces = multicopy_traces(self.workload, self.n_cores,
                                      2 * self.n_records, seed=self.seed,
                                      suite=self.suite)
        return [t.records for t in traces]

    def execute(self, obs: Optional[object] = None,
                notes: Optional[Dict] = None) -> SimResult:
        """Run the simulation for this point (no caching — see the runner).

        ``obs`` is an optional :class:`~repro.obs.ObsConfig`; when omitted
        it is resolved from ``REPRO_METRICS_INTERVAL`` / ``REPRO_TRACE`` /
        ``REPRO_OBS_DIR`` so pool workers inherit observability settings
        through the environment, mirroring ``REPRO_SANITIZE``.

        A spec whose ``engine`` is not ``"classic"`` (a stored result of
        the removed batched backend) raises ``ValueError``: it can still
        be served from the store, but not re-simulated.

        When checkpointing is enabled (``REPRO_CKPT_DIR`` — see
        :mod:`repro.harness.preempt`) a valid save-state for this spec is
        restored and *resumed* instead of cold-starting, and fresh runs
        carry a :class:`~repro.harness.preempt.CheckpointPolicy` so they
        can be preempted mid-flight.  A refused (corrupt / version-skewed)
        state is quarantined and the point cold-starts: never a wrong
        answer.  ``notes``, when given, collects ``resumed`` /
        ``quarantined`` annotations for the caller's incident log.
        """
        from ..sim.backends import build_system
        from . import preempt
        if obs is None:
            from ..obs.schema import obs_from_env
            obs = obs_from_env()
        if obs is not None and obs.enabled and obs.tag == "run":
            obs = obs.with_tag(self.label())
        ckpt = preempt.checkpoint_from_env()
        policy = None
        if ckpt is not None:
            from .store import code_fingerprint
            key = self.key()
            policy = preempt.CheckpointPolicy.for_spec(
                ckpt, key, code_fingerprint())
            system, note = preempt.try_restore(
                policy.path, spec_key=key, fingerprint=policy.fingerprint)
            if note is not None and notes is not None:
                notes["quarantined"] = note
            if system is not None:
                # The policy pickled inside the save-state (it rides the
                # watcher mux); resume() rearms it — re-installing would
                # reset every watcher countdown and break determinism.
                if notes is not None:
                    notes["resumed"] = system.engine.events_processed
                result = system.resume()
                preempt.clear_state(policy.path)
                return result
        traces = self.build_traces()
        n = min(len(t) for t in traces)
        system = build_system(self.build_config(), traces,
                              engine=self.engine, llc_policy=self.policy,
                              prefetch=self.prefetch, seed=self.seed,
                              measure_records=n // 2, warmup_records=n // 2,
                              collect_deltas=self.collect_deltas, obs=obs,
                              checkpoint=policy)
        result = system.run()
        if policy is not None:
            preempt.clear_state(policy.path)
        return result
