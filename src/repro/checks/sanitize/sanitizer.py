"""Runtime invariant sanitizer for a running :class:`~repro.sim.system.System`.

The sanitizer hooks the engine's watcher slot (see
:meth:`repro.sim.engine.Engine.run`) and re-derives structural
invariants from scratch every ``interval`` events, between event
callbacks.  It is strictly an *observer*: it never schedules events,
never mutates cache/MSHR/PMC state, and a sanitized run produces a
byte-identical :class:`~repro.sim.stats.SimResult` (the golden fixtures
are asserted under it).  When disabled nothing is installed, so the
engine keeps its zero-overhead fast loop.

Invariants, each with a stable rule ID (mirroring the lint IDs):

``SAN-TIME``
    Event time is monotonic and nothing is queued in the past.  Protects
    the deterministic event ordering every other measurement sits on.
``SAN-TAG``
    Each cache's ``tag -> way`` index agrees with a reference
    first-match linear scan of the tag array, per-set valid counts
    match, and the global duplicate-tag counter is exact.  Protects the
    O(1) lookup introduced by the hot-path work.
``SAN-MSHR``
    MSHR files never exceed capacity, entries are keyed by their own
    block, and no entry outlives ``mshr_age_limit`` cycles (leak
    detection).
``SAN-WAITER``
    Every MSHR entry still holds at least one waiter, every waiter is
    for the entry's block and not yet responded, and prefetch-only
    entries hold only prefetch waiters (lost-promotion detection).
``SAN-PMC``
    Per-core cycle conservation for the paper's Pure Miss Contribution
    (Section IV, Algorithm 1): a core distributes at most one pure-miss
    cycle per elapsed cycle, so accounted pure-miss cycles, active
    cycles and summed PMC never exceed ``engine.now``; a single miss
    never accrues more PMC/MLP cost than its own lifetime; histogram
    mass equals completed misses.
``SAN-INCL``
    With an inclusive LLC, every valid block in a private level is
    present in the LLC.
"""

from __future__ import annotations

from typing import Any, List, Optional

#: Default number of events between invariant sweeps.
DEFAULT_INTERVAL = 4096

#: Default cycle budget before an outstanding MSHR entry is called a leak.
DEFAULT_MSHR_AGE_LIMIT = 500_000

SAN_TIME = "SAN-TIME"
SAN_TAG = "SAN-TAG"
SAN_MSHR = "SAN-MSHR"
SAN_WAITER = "SAN-WAITER"
SAN_PMC = "SAN-PMC"
SAN_INCL = "SAN-INCL"

ALL_INVARIANTS = (SAN_TIME, SAN_TAG, SAN_MSHR, SAN_WAITER, SAN_PMC, SAN_INCL)


class SanitizerError(AssertionError):
    """An invariant tripped; ``rule`` carries the ``SAN-*`` rule ID."""

    def __init__(self, rule: str, message: str) -> None:
        self.rule = rule
        super().__init__(f"[{rule}] {message}")


class Sanitizer:
    """Periodic invariant checker over one :class:`System`'s components."""

    __slots__ = ("engine", "caches", "monitor", "llc", "interval",
                 "mshr_age_limit", "checks_run", "_last_now", "_installed")

    def __init__(self, system: Any, interval: Optional[int] = None,
                 mshr_age_limit: int = DEFAULT_MSHR_AGE_LIMIT) -> None:
        self.engine = system.engine
        self.llc = system.llc
        self.caches: List[Any] = [system.llc] + list(system.l1s) + list(system.l2s)
        self.monitor = system.monitor
        self.interval = DEFAULT_INTERVAL if interval is None else interval
        self.mshr_age_limit = mshr_age_limit
        self.checks_run = 0
        self._last_now = system.engine.now
        self._installed = False

    # ------------------------------------------------------------------
    # Engine hookup
    # ------------------------------------------------------------------
    def install(self) -> "Sanitizer":
        """Register on the engine's watcher slot.

        Other observers (e.g. the metrics sampler) may coexist — the
        engine multiplexes them — but a second *sanitizer* on the same
        engine is a usage error and is refused.
        """
        for fn in self.engine.watchers:
            if getattr(fn, "__func__", None) is Sanitizer.check:
                raise RuntimeError("engine already has a sanitizer installed")
        self.engine.add_watcher(self.check, self.interval)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.engine.remove_watcher(self.check)
            self._installed = False

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Run every invariant once (raises :class:`SanitizerError`)."""
        self.check_time()
        self.check_tag_index()
        self.check_mshr()
        self.check_waiters()
        self.check_pmc()
        self.check_inclusion()
        self.checks_run += 1

    # -- SAN-TIME -------------------------------------------------------
    def check_time(self) -> None:
        now = self.engine.now
        if now < self._last_now:
            raise SanitizerError(
                SAN_TIME, f"engine time moved backwards: "
                          f"{self._last_now} -> {now}")
        self._last_now = now
        # Engine API: earliest queued timestamp, or None.
        head = self.engine.next_event_time()
        if head is not None and head < now:
            raise SanitizerError(
                SAN_TIME, f"event queued in the past: t={head} "
                          f"< now={now}")

    # -- SAN-TAG --------------------------------------------------------
    def check_tag_index(self) -> None:
        for cache in self.caches:
            shadowed = 0
            for set_idx, blocks in enumerate(cache._sets):
                reference = {}
                valid = 0
                for way, blk in enumerate(blocks):
                    if not blk.valid:
                        continue
                    valid += 1
                    if blk.tag in reference:
                        shadowed += 1          # first-match scan keeps lowest
                    else:
                        reference[blk.tag] = way
                index = cache._tag2way[set_idx]
                if index != reference:
                    raise SanitizerError(
                        SAN_TAG,
                        f"{cache.name} set {set_idx}: tag index "
                        f"{dict(index)} disagrees with linear scan "
                        f"{reference}")
                if cache._valid_count[set_idx] != valid:
                    raise SanitizerError(
                        SAN_TAG,
                        f"{cache.name} set {set_idx}: valid count "
                        f"{cache._valid_count[set_idx]} != {valid}")
            if cache._dup_tags != shadowed:
                raise SanitizerError(
                    SAN_TAG,
                    f"{cache.name}: duplicate-tag counter "
                    f"{cache._dup_tags} != {shadowed} shadowed copies")

    # -- SAN-MSHR -------------------------------------------------------
    def check_mshr(self) -> None:
        now = self.engine.now
        for cache in self.caches:
            mshr = cache.mshr
            entries = mshr._entries
            if len(entries) > mshr.capacity:
                raise SanitizerError(
                    SAN_MSHR,
                    f"{cache.name}: {len(entries)} MSHR entries exceed "
                    f"capacity {mshr.capacity}")
            for block, entry in entries.items():
                if entry.block != block:
                    raise SanitizerError(
                        SAN_MSHR,
                        f"{cache.name}: entry for block {entry.block:#x} "
                        f"filed under key {block:#x}")
                if entry.issue_time > now:
                    raise SanitizerError(
                        SAN_MSHR,
                        f"{cache.name}: entry {block:#x} issued in the "
                        f"future ({entry.issue_time} > {now})")
                age = now - entry.issue_time
                if age > self.mshr_age_limit:
                    raise SanitizerError(
                        SAN_MSHR,
                        f"{cache.name}: entry {block:#x} outstanding for "
                        f"{age} cycles (> {self.mshr_age_limit}) — leaked?")

    # -- SAN-WAITER -----------------------------------------------------
    def check_waiters(self) -> None:
        for cache in self.caches:
            for block, entry in cache.mshr._entries.items():
                if not entry.waiters:
                    raise SanitizerError(
                        SAN_WAITER,
                        f"{cache.name}: entry {block:#x} lost all waiters")
                prefetch_only = True
                for waiter in entry.waiters:
                    if waiter.block != entry.block:
                        raise SanitizerError(
                            SAN_WAITER,
                            f"{cache.name}: waiter for block "
                            f"{waiter.block:#x} attached to entry "
                            f"{entry.block:#x}")
                    if waiter.completed >= 0:
                        raise SanitizerError(
                            SAN_WAITER,
                            f"{cache.name}: waiter {waiter.req_id} of entry "
                            f"{block:#x} already responded at "
                            f"{waiter.completed} (double respond)")
                    if not waiter.is_prefetch:
                        prefetch_only = False
                if entry.prefetch_only and not prefetch_only:
                    raise SanitizerError(
                        SAN_WAITER,
                        f"{cache.name}: entry {block:#x} marked "
                        "prefetch-only but holds a demand waiter "
                        "(lost promotion)")

    # -- SAN-PMC --------------------------------------------------------
    def check_pmc(self) -> None:
        monitor = self.monitor
        if monitor is None:
            return
        now = self.engine.now
        eps = 1e-6 * max(1.0, float(now))
        for mon in monitor._cores:
            core = mon.core
            if mon.base_count < 0:
                raise SanitizerError(
                    SAN_PMC, f"core {core}: negative base access count "
                             f"{mon.base_count}")
            if mon.last_time > now:
                raise SanitizerError(
                    SAN_PMC, f"core {core}: PML swept to {mon.last_time}, "
                             f"ahead of now={now}")
            stats = mon.stats
            # Cycle conservation (PAPER.md §III / Algorithm 1): one core
            # distributes at most 1 pure-miss cycle per elapsed cycle.
            for label, value in (("pure_miss_cycles", stats.pure_miss_cycles),
                                 ("active_cycles", stats.active_cycles),
                                 ("pmc_sum", stats.pmc_sum)):
                if value > now + eps:
                    raise SanitizerError(
                        SAN_PMC,
                        f"core {core}: {label}={value:.3f} exceeds elapsed "
                        f"cycles {now}")
            if stats.pure_miss_cycles > stats.active_cycles + eps:
                raise SanitizerError(
                    SAN_PMC,
                    f"core {core}: pure miss cycles "
                    f"{stats.pure_miss_cycles:.3f} exceed active cycles "
                    f"{stats.active_cycles:.3f}")
            if stats.pure_misses > stats.misses:
                raise SanitizerError(
                    SAN_PMC, f"core {core}: {stats.pure_misses} pure misses "
                             f"> {stats.misses} misses")
            if sum(stats.pmc_histogram) != stats.misses:
                raise SanitizerError(
                    SAN_PMC,
                    f"core {core}: histogram mass "
                    f"{sum(stats.pmc_histogram)} != {stats.misses} "
                    "completed misses")
            for entry in mon.misses:   # read-only sweep; SS103 out of scope here
                lifetime = now - entry.issue_time
                for label, value in (("pmc", entry.pmc),
                                     ("mlp_cost", entry.mlp_cost)):
                    if value > lifetime + eps:
                        raise SanitizerError(
                            SAN_PMC,
                            f"core {core}: miss {entry.block:#x} accrued "
                            f"{label}={value:.3f} over a {lifetime}-cycle "
                            "lifetime")

    # -- SAN-INCL -------------------------------------------------------
    def check_inclusion(self) -> None:
        llc = self.llc
        if not llc.inclusive:
            return
        for upper in llc.upper_levels:
            for set_idx, blocks in enumerate(upper._sets):
                for blk in blocks:
                    if not blk.valid:
                        continue
                    addr = upper.block_addr(set_idx, blk.tag)
                    if not llc.probe(addr):
                        raise SanitizerError(
                            SAN_INCL,
                            f"inclusion hole: {upper.name} holds block "
                            f"{addr >> 6:#x} absent from {llc.name}")


def attach_sanitizer(system: Any, interval: Optional[int] = None,
                     mshr_age_limit: int = DEFAULT_MSHR_AGE_LIMIT) -> Sanitizer:
    """Build a :class:`Sanitizer` for ``system`` and install it."""
    return Sanitizer(system, interval=interval,
                     mshr_age_limit=mshr_age_limit).install()
