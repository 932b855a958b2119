"""System configuration (the paper's Table VII, plus scaled presets).

The :class:`SystemConfig` presets mirror the structure of the evaluated
system:

* ``paper()`` — the full Table VII machine: 32KB L1D, 256KB L2, 2MB/core
  16-way LLC, 64-entry LLC MSHR, 4GHz timing-equivalent DRAM latencies.
* ``default()`` — a proportionally scaled-down machine for Python-speed
  runs.  Associativities, latency ratios, and MSHR-to-cache ratios are kept
  from Table VII; capacities shrink so that 10^4-record traces exercise the
  LLC the way 200M-instruction SimPoints exercise a 2MB/core LLC.
* ``tiny()`` — for unit tests.

All caches use 64-byte blocks as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


BLOCK_SIZE = 64
BLOCK_BITS = 6  # log2(BLOCK_SIZE)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing for one cache level."""

    name: str
    sets: int
    ways: int
    latency: int          # base access (tag+data lookup) cycles
    mshr_entries: int
    block_size: int = BLOCK_SIZE

    def __post_init__(self) -> None:
        if not _is_pow2(self.sets):
            raise ValueError(f"{self.name}: sets must be a power of two, got {self.sets}")
        if self.ways < 1 or self.latency < 1 or self.mshr_entries < 1:
            raise ValueError(f"{self.name}: invalid cache parameters")

    @property
    def size_bytes(self) -> int:
        return self.sets * self.ways * self.block_size

    @property
    def size_kb(self) -> float:
        return self.size_bytes / 1024.0


@dataclass(frozen=True)
class DRAMConfig:
    """First-order DRAM timing model parameters.

    Latencies are in core cycles.  Table VII: 2400MT/s 64-bit channels,
    tRP=15ns, tRCD=15ns, tCAS=12.5ns at a 4GHz core -> 60/60/50 cycles; a
    64B burst over an 8B-wide DDR channel takes ~13 core cycles.
    """

    channels: int = 1
    banks_per_channel: int = 8
    row_size: int = 2048            # bytes per row (row-buffer granularity)
    t_cas: int = 50                 # column access (row hit portion)
    t_rcd: int = 60                 # row activate
    t_rp: int = 60                  # precharge
    burst_cycles: int = 13          # data transfer occupancy per 64B block
    #: "fcfs" = per-bank in-order (repro.sim.dram.DRAM);
    #: "frfcfs" = queued row-hit-first controller (repro.sim.memctrl)
    scheduler: str = "fcfs"

    @property
    def row_hit_latency(self) -> int:
        return self.t_cas + self.burst_cycles

    @property
    def row_miss_latency(self) -> int:
        return self.t_rp + self.t_rcd + self.t_cas + self.burst_cycles


@dataclass(frozen=True)
class CoreConfig:
    """Core front-end / window model parameters (Table VII processor row)."""

    issue_width: int = 8
    rob_entries: int = 256


@dataclass(frozen=True)
class SystemConfig:
    """Complete machine description handed to :class:`repro.sim.system.System`."""

    n_cores: int = 1
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheConfig = field(default_factory=lambda: CacheConfig("L1D", 64, 8, 4, 8))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig("L2", 512, 8, 10, 32))
    # llc geometry given per core; system scales sets by n_cores
    llc_sets_per_core: int = 2048
    llc_ways: int = 16
    llc_latency: int = 20
    llc_mshr: int = 64
    #: inclusive LLC: evictions back-invalidate L1/L2 copies (the paper's
    #: ChampSim LLC is non-inclusive, the default here)
    llc_inclusive: bool = False
    dram: DRAMConfig = field(default_factory=DRAMConfig)

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        if not _is_pow2(self.llc_sets_per_core * self.n_cores):
            raise ValueError("total LLC sets must be a power of two")

    @property
    def llc(self) -> CacheConfig:
        """Shared-LLC config scaled to the core count (2MB/core in paper())."""
        return CacheConfig(
            "LLC",
            self.llc_sets_per_core * self.n_cores,
            self.llc_ways,
            self.llc_latency,
            self.llc_mshr,
        )

    def with_cores(self, n_cores: int) -> "SystemConfig":
        """Same machine with a different core count (LLC scales with cores)."""
        return replace(self, n_cores=n_cores)

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, n_cores: int = 1) -> "SystemConfig":
        """Full Table VII configuration."""
        channels = 1 if n_cores == 1 else 2
        return cls(
            n_cores=n_cores,
            core=CoreConfig(issue_width=8, rob_entries=256),
            l1=CacheConfig("L1D", 64, 8, 4, 8),          # 32KB
            l2=CacheConfig("L2", 512, 8, 10, 32),        # 256KB
            llc_sets_per_core=2048,                      # 2MB/core, 16-way
            llc_ways=16,
            llc_latency=20,
            llc_mshr=64,
            dram=DRAMConfig(channels=channels),
        )

    @classmethod
    def default(cls, n_cores: int = 1) -> "SystemConfig":
        """Scaled-down machine used by examples and benchmarks.

        Table VII's shape is preserved — 3 levels, private L1/L2, shared
        16-way LLC scaled per core, same latencies and L1:L2:LLC capacity
        ordering — at roughly 1/64 capacity, so the short traces Python can
        afford produce the same *turnover* (accesses per LLC block) that
        200M-instruction SimPoints produce on a 2MB/core LLC.  Workload
        generators size their regions relative to this machine via their
        ``scale`` parameter.
        """
        channels = 1 if n_cores == 1 else 2
        return cls(
            n_cores=n_cores,
            core=CoreConfig(issue_width=8, rob_entries=256),
            l1=CacheConfig("L1D", 4, 4, 4, 8),           # 16 blocks (1KB)
            l2=CacheConfig("L2", 8, 8, 10, 16),          # 64 blocks (4KB)
            llc_sets_per_core=32,                        # 512 blocks/core
            llc_ways=16,
            llc_latency=20,
            llc_mshr=32,
            dram=DRAMConfig(channels=channels),
        )

    @classmethod
    def tiny(cls, n_cores: int = 1) -> "SystemConfig":
        """Minimal machine for fast unit tests."""
        return cls(
            n_cores=n_cores,
            core=CoreConfig(issue_width=4, rob_entries=64),
            l1=CacheConfig("L1D", 2, 2, 2, 4),
            l2=CacheConfig("L2", 4, 4, 6, 8),
            llc_sets_per_core=8,
            llc_ways=4,
            llc_latency=12,
            llc_mshr=16,
            dram=DRAMConfig(channels=1, banks_per_channel=2),
        )
