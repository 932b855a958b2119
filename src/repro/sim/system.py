"""Top-level simulated machine: cores + private L1/L2 + shared LLC + DRAM.

``System`` wires the whole hierarchy the way Table VII describes it, attaches
the PMC Measurement Logic to the LLC, runs every core's trace to completion
of its measured region (replaying finished traces to keep pressure, per the
CRC-2/DPC-3 methodology), and returns a :class:`~repro.sim.stats.SimResult`.

The LLC replacement policy is selected by name through the policy registry,
so ``System(cfg, traces, llc_policy="care")`` and ``llc_policy="lru"`` run
the identical machine with only the LLC decision logic swapped — exactly the
paper's experimental control.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, List, Optional, Sequence,
                    Union)

from .cache import Cache
from .config import SystemConfig
from .cpu import Core
from .engine import Engine
from .stats import SimResult
from ..core.pmc import ConcurrencyMonitor
from ..policies.lru import LRUPolicy
from ..prefetch import IPStridePrefetcher, NextLinePrefetcher

if TYPE_CHECKING:
    from ..obs.schema import ObsConfig

PolicyFactory = Callable[..., object]

#: Stagger per-core start cycles so multi-copy runs are not lock-stepped
#: (the paper notes its traces "do not start exactly at the same time").
_CORE_STAGGER = 17


class System:
    """One simulated machine ready to :meth:`run`."""

    __slots__ = ("cfg", "prefetch", "max_events", "engine", "dram",
                 "llc_policy", "monitor", "llc", "l1s", "l2s", "cores",
                 "_finished", "_warm", "warmup_records", "sanitize",
                 "sanitizer", "obs", "sampler", "tracer", "checkpoint")

    def __init__(self, cfg: SystemConfig, traces: Sequence[Sequence],
                 llc_policy: Union[str, PolicyFactory] = "lru",
                 prefetch: bool = False,
                 seed: int = 0,
                 measure_records: Optional[int] = None,
                 warmup_records: Optional[int] = None,
                 collect_deltas: bool = False,
                 max_events: Optional[int] = None,
                 sanitize: Optional[bool] = None,
                 obs: Optional["ObsConfig"] = None,
                 checkpoint: Optional[Any] = None) -> None:
        if len(traces) != cfg.n_cores:
            raise ValueError(
                f"{cfg.n_cores} cores but {len(traces)} traces supplied")
        self.cfg = cfg
        self.prefetch = prefetch
        self.max_events = max_events
        #: tri-state: True/False force the runtime sanitizer on/off; None
        #: defers to ``REPRO_SANITIZE`` (read lazily at :meth:`run`)
        self.sanitize = sanitize
        self.sanitizer: Optional[Any] = None
        #: optional :class:`~repro.obs.ObsConfig`; observers attach in
        #: :meth:`run` so construction stays cheap when unused
        self.obs = obs
        self.sampler: Optional[Any] = None
        self.tracer: Optional[Any] = None
        #: optional :class:`~repro.harness.preempt.CheckpointPolicy`;
        #: installs last in :meth:`run` and travels inside save-states
        self.checkpoint = checkpoint
        self.engine = Engine()

        # Memory side ------------------------------------------------------
        from .memctrl import make_memory
        self.dram = make_memory(cfg.dram, self.engine)

        # Shared LLC with the PML attached ----------------------------------
        llc_cfg = cfg.llc
        self.llc_policy = self._make_llc_policy(
            llc_policy, llc_cfg.sets, llc_cfg.ways, seed, cfg.n_cores)
        self.monitor = ConcurrencyMonitor(
            self.engine, cfg.n_cores, llc_cfg.latency,
            collect_deltas=collect_deltas)
        self.llc = Cache(llc_cfg, self.engine, self.llc_policy,
                         lower=self.dram, monitor=self.monitor,
                         inclusive=cfg.llc_inclusive)

        # Private levels and cores ------------------------------------------
        self.l1s: List[Cache] = []
        self.l2s: List[Cache] = []
        self.cores: List[Core] = []
        self._finished = 0
        self._warm = 0
        # Default warmup: a quarter of the measured region (the paper's
        # ratio is 50M warmup / 200M measured).
        if warmup_records is None:
            base = measure_records if measure_records is not None else (
                min(len(t) for t in traces) if traces else 0)
            warmup_records = base // 4
        self.warmup_records = warmup_records
        for core_id in range(cfg.n_cores):
            l2_pf = IPStridePrefetcher() if prefetch else None
            l1_pf = NextLinePrefetcher() if prefetch else None
            l2 = Cache(self._named(cfg.l2, core_id), self.engine,
                       LRUPolicy(cfg.l2.sets, cfg.l2.ways, seed),
                       lower=self.llc, prefetcher=l2_pf)
            l1 = Cache(self._named(cfg.l1, core_id), self.engine,
                       LRUPolicy(cfg.l1.sets, cfg.l1.ways, seed),
                       lower=l2, prefetcher=l1_pf)
            core = Core(core_id, self.engine, l1, traces[core_id], cfg.core,
                        measure_records=measure_records,
                        warmup_records=warmup_records,
                        replay=True,
                        start_offset=core_id * _CORE_STAGGER,
                        on_finish=self._core_finished,
                        on_warm=self._core_warm)
            self.l1s.append(l1)
            self.l2s.append(l2)
            self.cores.append(core)

        # Cost-based policies (LACS) read per-core instruction progress.
        # A bound method, not a lambda, so the wired system stays
        # picklable for save-states.
        self.llc.instr_counter = self._core_instr_count
        # Inclusive LLCs back-invalidate the private levels on eviction.
        self.llc.upper_levels = list(self.l1s) + list(self.l2s)

    @staticmethod
    def _named(cache_cfg, core_id: int):
        from dataclasses import replace
        return replace(cache_cfg, name=f"{cache_cfg.name}{core_id}")

    @staticmethod
    def _make_llc_policy(spec: Union[str, PolicyFactory], sets: int,
                         ways: int, seed: int, n_cores: int):
        if callable(spec):
            return spec(sets=sets, ways=ways, seed=seed, n_cores=n_cores)
        from ..policies.registry import make_policy
        return make_policy(spec, sets=sets, ways=ways, seed=seed,
                           n_cores=n_cores)

    # ------------------------------------------------------------------
    def _core_instr_count(self, core_id: int) -> int:
        return self.cores[core_id].dispatched_instructions

    def _core_warm(self, core: Core) -> None:
        """Reset measurement counters once every core passed its warmup."""
        self._warm += 1
        if self._warm >= self.cfg.n_cores:
            self.monitor.reset_stats()
            self.llc.stats = type(self.llc.stats)()
            self.dram.stats = type(self.dram.stats)()
            for cache in self.l1s + self.l2s:
                cache.stats = type(cache.stats)()

    def _core_finished(self, core: Core) -> None:
        self._finished += 1
        if self._finished >= self.cfg.n_cores:
            for c in self.cores:
                c.stop()
            self.engine.stop()

    def _sanitize_enabled(self) -> bool:
        if self.sanitize is not None:
            return self.sanitize
        from ..checks.sanitize import sanitize_enabled
        return sanitize_enabled()

    def _attach_obs(self) -> None:
        """Install the metrics sampler and/or event tracer per ``self.obs``.

        Observers read simulator state between events and never mutate it,
        so results stay byte-identical with or without them.
        """
        obs = self.obs
        if obs is None or not obs.enabled:
            return
        if obs.metrics_interval > 0:
            from ..obs.sampler import MetricsSampler
            self.sampler = MetricsSampler(self, obs.metrics_interval)
            self.sampler.install()
        if obs.trace:
            from ..obs.tracer import ChromeTracer
            self.tracer = tracer = ChromeTracer(
                sample_rate=obs.trace_sample, limit=obs.trace_limit)
            for sink in [self.llc, self.dram] + self.l1s + self.l2s:
                sink.tracer = tracer
            for core in self.cores:
                core.tracer = tracer

    def run(self) -> SimResult:
        """Run to completion of every core's measured region.

        With the sanitizer enabled (``sanitize=True`` or
        ``REPRO_SANITIZE=1``), invariants are swept every
        ``REPRO_SANITIZE_INTERVAL`` events and once more at the end; a
        trip raises :class:`~repro.checks.sanitize.SanitizerError`.  The
        sanitizer observes between events and never perturbs state, so
        results are byte-identical either way.

        With a :attr:`checkpoint` policy attached, save-states are
        written on cadence and a pending preempt request surfaces as
        :class:`~repro.harness.preempt.PreemptedError`; a system
        restored from such a state continues via :meth:`resume`.
        """
        if self._sanitize_enabled():
            from ..checks.sanitize import attach_sanitizer
            self.sanitizer = attach_sanitizer(self)
        self._attach_obs()
        if self.checkpoint is not None:
            # Installed after every other observer so its watcher entry
            # sits last in the trampoline: when it fires (and possibly
            # snapshots), all earlier entries are settled for the tick.
            self.checkpoint.install(self)
        for core in self.cores:
            core.start()
        return self._complete()

    def resume(self) -> SimResult:
        """Continue a system restored from a mid-run save-state.

        Watchers (sanitizer, sampler, checkpoint policy) travel inside
        the save-state with their live trampoline countdowns, so nothing
        is re-registered here — re-registering would reset countdowns
        and break byte-identity with the uninterrupted run.  The
        checkpoint policy only re-arms its process-local wall clock.
        """
        if self.checkpoint is not None:
            self.checkpoint.rearm()
        return self._complete()

    def _complete(self) -> SimResult:
        """Drive the engine to completion and build the result.

        Shared tail of :meth:`run` and :meth:`resume`: the remaining
        ``max_events`` budget is computed against events already
        processed, so an interrupted-and-resumed bounded run stops at
        the same event as an uninterrupted one.
        """
        sanitizer = self.sanitizer
        try:
            budget = self.max_events
            if budget is not None:
                budget = max(0, budget - self.engine.events_processed)
            self.engine.run(max_events=budget)
            if self._finished < self.cfg.n_cores:
                unfinished = [c.core_id for c in self.cores if not c.finished]
                raise RuntimeError(
                    f"simulation ended with unfinished cores {unfinished} "
                    f"(events={self.engine.events_processed}); raise "
                    "max_events or check for starvation")
            self.monitor.finalize()
            if self.sampler is not None:
                self.sampler.finalize()
            if sanitizer is not None:
                sanitizer.check()
        finally:
            if sanitizer is not None:
                sanitizer.uninstall()
            if self.sampler is not None:
                self.sampler.uninstall()
            if self.checkpoint is not None:
                self.checkpoint.uninstall()
        result = self._result()
        if self.obs is not None and self.obs.out_dir is not None:
            from ..obs.schema import write_outputs
            write_outputs(self.obs, self.sampler, self.tracer)
        return result

    def _result(self) -> SimResult:
        policy_name = getattr(self.llc_policy, "name", type(self.llc_policy).__name__)
        return SimResult(
            policy=policy_name,
            n_cores=self.cfg.n_cores,
            prefetch=self.prefetch,
            ipc=[c.ipc for c in self.cores],
            instructions=[c.retired_instructions for c in self.cores],
            cycles=[c.finish_time - c.start_offset for c in self.cores],
            llc=self.llc.stats,
            conc=self.monitor.all_stats(),
            conc_total=self.monitor.total(),
            pmc_deltas=[self.monitor.pmc_deltas(c) for c in range(self.cfg.n_cores)],
            dram=self.dram.stats,
            sim_cycles=self.engine.now,
            events=self.engine.events_processed,
            l1_stats=[l1.stats for l1 in self.l1s],
            l2_stats=[l2.stats for l2 in self.l2s],
        )


#: Historical positional order of ``simulate()``'s optional parameters;
#: used only by the deprecation shim below.
_SIMULATE_KEYWORDS = ("cfg", "llc_policy", "prefetch", "seed",
                      "measure_records", "warmup_records",
                      "collect_deltas", "obs")


def simulate(traces: Sequence[Sequence], *args: Any, **kwargs: Any) -> SimResult:
    """One-call convenience wrapper: build a system and run it.

    Keyword parameters: ``cfg``, ``llc_policy``, ``prefetch``, ``seed``,
    ``measure_records``, ``warmup_records``, ``collect_deltas`` and
    ``obs``.

    .. deprecated::
        Passing the optional parameters positionally (``simulate(traces,
        cfg, "lru", ...)``) is deprecated; use keywords.  The positional
        form will be removed.
    """
    if args:
        import warnings
        warnings.warn(
            "positional arguments to simulate() after `traces` are "
            "deprecated; pass them as keywords (cfg=..., llc_policy=..., "
            "prefetch=..., ...)",
            DeprecationWarning, stacklevel=2)
        if len(args) > len(_SIMULATE_KEYWORDS):
            raise TypeError(
                f"simulate() takes at most {1 + len(_SIMULATE_KEYWORDS)} "
                f"positional arguments ({1 + len(args)} given)")
        for name, value in zip(_SIMULATE_KEYWORDS, args):
            if name in kwargs:
                raise TypeError(
                    f"simulate() got multiple values for argument {name!r}")
            kwargs[name] = value
    return _simulate(traces, **kwargs)


def _simulate(traces: Sequence[Sequence], cfg: Optional[SystemConfig] = None,
              llc_policy: Union[str, PolicyFactory] = "lru",
              prefetch: bool = False, seed: int = 0,
              measure_records: Optional[int] = None,
              warmup_records: Optional[int] = None,
              collect_deltas: bool = False,
              obs: Optional["ObsConfig"] = None) -> SimResult:
    if cfg is None:
        cfg = SystemConfig.default(n_cores=len(traces))
    system = System(cfg, traces, llc_policy=llc_policy, prefetch=prefetch,
                    seed=seed, measure_records=measure_records,
                    warmup_records=warmup_records,
                    collect_deltas=collect_deltas, obs=obs)
    return system.run()
