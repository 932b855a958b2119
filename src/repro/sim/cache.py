"""Non-blocking set-associative cache model.

Each cache level is write-back / write-allocate with a fixed base (tag+data)
latency and an MSHR file for outstanding misses, following the paper's
Table VII organization.  The model supports:

* miss merging (secondary misses attach to the existing MSHR entry),
* MSHR back-pressure (requests queue when the file is full),
* dirty-victim writebacks to the next level,
* writeback allocation without fetch (a writeback that misses installs the
  block directly — the whole line is being written),
* prefetch requests, with ChampSim-style promotion when a demand merges
  under a prefetch-initiated miss,
* an optional :class:`~repro.core.pmc.ConcurrencyMonitor` (the paper's PML)
  that observes base/miss phases and stamps each served miss with its PMC
  and MLP-based cost.

The replacement policy is fully pluggable via
:class:`repro.policies.base.ReplacementPolicy`.

Hot-path organization
---------------------
Tag lookup is O(1): each set keeps a ``tag -> way`` dict
(``_tag2way``) maintained on install/evict/invalidate, replacing the
per-lookup linear scan over the ways; :meth:`assert_no_duplicates`
cross-checks the index against the tag array.  A per-set valid-block
count skips the free-way scan once a set reaches steady state (every
install into a full set goes straight to victim selection).  Miss fills
use a cached bound method plus the request's ``mshr_entry`` field
instead of allocating a closure per miss, lookups are scheduled
through a cached :meth:`repro.sim.engine.Engine.post` (the unchecked
integer-time fast path), and :meth:`Cache._lookup` handles hits and
misses in one frame.  All of this is behaviour-preserving — the
golden-equivalence suite pins results bit-for-bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional

from .config import BLOCK_BITS, CacheConfig
from .engine import Engine
from .mshr import MSHR, MSHREntry
from .request import AccessType, MemRequest
from ..policies.base import PolicyAccess

if TYPE_CHECKING:
    from ..core.pmc import ConcurrencyMonitor
    from ..policies.base import ReplacementPolicy
    from ..prefetch.base import Prefetcher

_RFO = AccessType.RFO
_PREFETCH = AccessType.PREFETCH
_WRITEBACK = AccessType.WRITEBACK


class CacheBlock:
    """Tag-store entry.  Policy-private metadata lives inside the policy."""

    __slots__ = ("valid", "tag", "dirty", "prefetch", "core", "pc")

    def __init__(self) -> None:
        self.valid = False
        self.tag = -1
        self.dirty = False
        self.prefetch = False    # filled by a prefetch, not yet demanded
        self.core = -1
        self.pc = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CacheBlock(valid={self.valid}, tag={self.tag:#x}, "
                f"dirty={self.dirty}, prefetch={self.prefetch})")


@dataclass
class CacheStats:
    """Per-level counters, split by access type where it matters."""

    accesses: Dict[AccessType, int] = field(
        default_factory=lambda: {t: 0 for t in AccessType})
    hits: Dict[AccessType, int] = field(
        default_factory=lambda: {t: 0 for t in AccessType})
    misses: Dict[AccessType, int] = field(
        default_factory=lambda: {t: 0 for t in AccessType})
    mshr_merges: int = 0
    mshr_stalls: int = 0          # requests that had to queue for an MSHR
    invalidations: int = 0        # inclusive back-invalidations received
    late_hits: int = 0            # queued requests satisfied before retry
    evictions: int = 0
    writebacks_out: int = 0
    prefetch_fills: int = 0
    prefetch_useful: int = 0      # demand hits on a prefetched block
    prefetch_promoted: int = 0    # demand merged under a prefetch miss
    demand_misses_by_core: Dict[int, int] = field(default_factory=dict)

    @property
    def total_accesses(self) -> int:
        return sum(self.accesses.values())

    @property
    def demand_accesses(self) -> int:
        return self.accesses[AccessType.LOAD] + self.accesses[AccessType.RFO]

    @property
    def demand_hits(self) -> int:
        return self.hits[AccessType.LOAD] + self.hits[AccessType.RFO]

    @property
    def demand_misses(self) -> int:
        return self.misses[AccessType.LOAD] + self.misses[AccessType.RFO]

    @property
    def demand_miss_rate(self) -> float:
        n = self.demand_accesses
        return self.demand_misses / n if n else 0.0

    # ------------------------------------------------------------------
    # Serialization (persistent result store / ``SimResult.to_dict``)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-safe dict; enum-keyed counters become name-keyed."""
        return {
            "accesses": {t.name: self.accesses.get(t, 0) for t in AccessType},
            "hits": {t.name: self.hits.get(t, 0) for t in AccessType},
            "misses": {t.name: self.misses.get(t, 0) for t in AccessType},
            "mshr_merges": self.mshr_merges,
            "mshr_stalls": self.mshr_stalls,
            "invalidations": self.invalidations,
            "late_hits": self.late_hits,
            "evictions": self.evictions,
            "writebacks_out": self.writebacks_out,
            "prefetch_fills": self.prefetch_fills,
            "prefetch_useful": self.prefetch_useful,
            "prefetch_promoted": self.prefetch_promoted,
            "demand_misses_by_core": {
                str(core): n
                for core, n in sorted(self.demand_misses_by_core.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CacheStats":
        """Exact inverse of :meth:`to_dict`."""
        return cls(
            accesses={t: data["accesses"][t.name] for t in AccessType},
            hits={t: data["hits"][t.name] for t in AccessType},
            misses={t: data["misses"][t.name] for t in AccessType},
            mshr_merges=data["mshr_merges"],
            mshr_stalls=data["mshr_stalls"],
            invalidations=data["invalidations"],
            late_hits=data["late_hits"],
            evictions=data["evictions"],
            writebacks_out=data["writebacks_out"],
            prefetch_fills=data["prefetch_fills"],
            prefetch_useful=data["prefetch_useful"],
            prefetch_promoted=data["prefetch_promoted"],
            demand_misses_by_core={
                int(core): n
                for core, n in data["demand_misses_by_core"].items()
            },
        )


class Cache:
    """One cache level wired to a lower level (another cache or DRAM)."""

    __slots__ = (
        "cfg", "name", "engine", "policy", "lower", "monitor", "prefetcher",
        "inclusive", "upper_levels", "stats", "_set_mask",
        "_set_bits", "_latency", "_ways", "_sets", "_tag2way", "_valid_count",
        "_dup_tags", "mshr", "_pending", "_fill_cb", "_lookup_cb", "_post",
        "tracer",
    )

    def __init__(self, cfg: CacheConfig, engine: Engine,
                 policy: "ReplacementPolicy",
                 lower: Optional[Any] = None,
                 monitor: Optional["ConcurrencyMonitor"] = None,
                 prefetcher: Optional["Prefetcher"] = None,
                 inclusive: bool = False) -> None:
        self.cfg = cfg
        self.name = cfg.name
        self.engine = engine
        self.policy = policy
        self.lower = lower
        self.monitor = monitor
        self.prefetcher = prefetcher
        #: inclusive mode: evictions back-invalidate the upper levels
        self.inclusive = inclusive
        self.upper_levels: List["Cache"] = []
        self.stats = CacheStats()

        self._set_mask = cfg.sets - 1
        self._set_bits = cfg.sets.bit_length() - 1
        self._latency = cfg.latency
        self._ways = cfg.ways
        self._sets: List[List[CacheBlock]] = [
            [CacheBlock() for _ in range(cfg.ways)] for _ in range(cfg.sets)
        ]
        #: per-set ``tag -> way`` index over the *valid* blocks; with
        #: duplicate tags (see ``_drop_mapping``) it maps to the lowest way,
        #: matching what a first-match linear scan would return
        self._tag2way: List[Dict[int, int]] = [{} for _ in range(cfg.sets)]
        #: per-set count of valid blocks (== len of the set's index unless
        #: duplicate tags exist)
        self._valid_count: List[int] = [0] * cfg.sets
        #: number of shadowed duplicate-tag copies across all sets
        #: (pathological writeback-under-miss interleavings; normally 0)
        self._dup_tags = 0
        self.mshr = MSHR(cfg.mshr_entries)
        self._pending: Deque[MemRequest] = deque()
        # Bound methods cached once: ``self._lookup`` in ``access`` (and the
        # fill callback per miss) would otherwise allocate a fresh bound
        # method per request.  ``None`` once :meth:`release` ran.
        self._fill_cb: Any = self._fill_from_child
        self._lookup_cb: Any = self._lookup
        self._post = engine.post
        #: optional :class:`repro.obs.tracer.ChromeTracer`; every hook
        #: below guards on ``req.trace`` (False unless the tracer sampled
        #: the request), keeping the untraced hot path to one slot read.
        self.tracer: Optional[Any] = None

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def set_index(self, block: int) -> int:
        return block & self._set_mask

    def tag_of(self, block: int) -> int:
        return block >> self._set_bits

    def block_addr(self, set_idx: int, tag: int) -> int:
        return ((tag << self._set_bits) | set_idx) << BLOCK_BITS

    def _find_way(self, set_idx: int, tag: int) -> int:
        return self._tag2way[set_idx].get(tag, -1)

    def probe(self, addr: int) -> bool:
        """Non-intrusive presence check (used by prefetch filtering/tests)."""
        block = addr >> BLOCK_BITS
        return self.tag_of(block) in self._tag2way[self.set_index(block)]

    def invalidate(self, addr: int) -> bool:
        """Drop ``addr``'s block if present (inclusive back-invalidation).

        Returns whether the dropped copy was dirty, so the caller can merge
        that state into its own eviction writeback.
        """
        block = addr >> BLOCK_BITS
        set_idx = block & self._set_mask
        tag = block >> self._set_bits
        index = self._tag2way[set_idx]
        way = index.get(tag, -1)
        if way < 0:
            return False
        blk = self._sets[set_idx][way]
        was_dirty = blk.dirty
        blk.valid = False
        blk.dirty = False
        self._valid_count[set_idx] -= 1
        self._drop_mapping(index, set_idx, tag, way)
        self.stats.invalidations += 1
        return was_dirty

    # ------------------------------------------------------------------
    # Tag-index maintenance
    # ------------------------------------------------------------------
    def _drop_mapping(self, index: Dict[int, int], set_idx: int,
                      tag: int, way: int) -> None:
        """Remove ``tag``'s mapping after the copy in ``way`` left the set.

        Normally a plain ``del``.  If duplicate-tag copies exist anywhere
        (a block installed by a writeback while a miss on the same block
        was outstanding, then installed again by the fill), the remaining
        lowest-way copy must take over the mapping so the index keeps
        agreeing with a first-match linear scan.
        """
        if self._dup_tags:
            for w, blk in enumerate(self._sets[set_idx]):
                if w != way and blk.valid and blk.tag == tag:
                    index[tag] = w
                    self._dup_tags -= 1
                    return
        del index[tag]

    def _add_mapping(self, index: Dict[int, int], tag: int, way: int) -> None:
        """Point ``tag`` at ``way``; with a duplicate, keep the lowest way."""
        prev = index.get(tag)
        if prev is None:
            index[tag] = way
        else:
            self._dup_tags += 1
            if way < prev:
                index[tag] = way

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def access(self, req: MemRequest) -> None:
        """Entry point: an access arrives at this level now."""
        now = self.engine.now
        self.stats.accesses[req.rtype] += 1
        if self.monitor is not None:
            self.monitor.on_access(req.core, now, req.is_demand)
        if req.trace and self.tracer is not None:
            self.tracer.span_begin(req, self.name, now)
        self._post(now + self._latency, self._lookup_cb, req)

    def _lookup(self, req: MemRequest) -> None:
        """The access's tag check: hit, miss, MSHR merge or stall, then
        prefetcher training — one frame for the whole per-access path."""
        block = req.block
        set_idx = block & self._set_mask
        way = self._tag2way[set_idx].get(block >> self._set_bits, -1)
        rtype = req.rtype

        if way >= 0:
            now = self.engine.now
            blocks = self._sets[set_idx]
            blk = blocks[way]
            self.stats.hits[rtype] += 1
            if self.monitor is not None:
                self.monitor.on_hit_observed(req.core, now)
            access = PolicyAccess(req.pc, req.addr, req.core, rtype,
                                  blk.prefetch)
            if rtype == _WRITEBACK:
                blk.dirty = True
                self.policy.on_hit(set_idx, way, blocks, access)
                return                  # writebacks never train
            if blk.prefetch and req.is_demand:
                self.stats.prefetch_useful += 1
            self.policy.on_hit(set_idx, way, blocks, access)
            if req.is_demand:
                blk.prefetch = False      # block has now been demanded
                if rtype == _RFO:
                    blk.dirty = True
            if req.trace and self.tracer is not None:
                self.tracer.span_end(req, self.name, now, hit=True)
            # Inlined MemRequest.respond
            req.completed = now
            req.served_by = self.name
            cb = req.callback
            if cb is not None:
                cb(req, now)
        else:
            stats = self.stats
            stats.misses[rtype] += 1
            if req.is_demand:
                by_core = stats.demand_misses_by_core
                by_core[req.core] = by_core.get(req.core, 0) + 1
            if rtype == _WRITEBACK:
                # Write-allocate without fetch: the full line is incoming.
                self._install(req, dirty=True, entry=None)
                return                  # writebacks never train
            mshr = self.mshr
            entries = mshr._entries
            entry = entries.get(block)
            if entry is not None:
                was_prefetch_only = entry.prefetch_only
                entry.merge(req)
                mshr.merges += 1
                stats.mshr_merges += 1
                if was_prefetch_only and not entry.prefetch_only:
                    stats.prefetch_promoted += 1
                if req.trace and self.tracer is not None:
                    self.tracer.instant("mshr-merge", self.name,
                                        self.engine.now, req.core,
                                        block=hex(block))
            elif len(entries) >= mshr.capacity:
                stats.mshr_stalls += 1
                self._pending.append(req)
                if req.trace and self.tracer is not None:
                    self.tracer.instant("mshr-stall", self.name,
                                        self.engine.now, req.core,
                                        block=hex(block))
            else:
                self._start_miss(req)

        prefetcher = self.prefetcher
        if prefetcher is not None and req.is_demand:
            for addr in prefetcher.train(req, way >= 0):
                self._issue_prefetch(addr, req)

    def _start_miss(self, req: MemRequest) -> None:
        now = self.engine.now
        core = req.core
        # Inlined MSHR.allocate: both callers (`_lookup`,
        # `_retry_pending`) have just confirmed the file is not full and
        # holds no entry for this block.
        mshr = self.mshr
        entries = mshr._entries
        entry = MSHREntry(req.block, req, now, core)
        entries[req.block] = entry
        mshr.allocations += 1
        occ = len(entries)
        if occ > mshr.peak_occupancy:
            mshr.peak_occupancy = occ
        if self.monitor is not None:
            self.monitor.on_miss_start(core, now, entry)
        if self.lower is None:
            raise RuntimeError(f"{self.name}: miss with no lower level")
        child = MemRequest(req.addr, req.pc, core, req.rtype,
                           created=now, callback=self._fill_cb)
        child.mshr_entry = entry
        if req.trace:
            child.trace = True      # keep the lifecycle visible downstream
        self.lower.access(child)

    # ------------------------------------------------------------------
    # Fill path
    # ------------------------------------------------------------------
    def _fill_from_child(self, child: MemRequest, _time: int) -> None:
        """Fill callback shared by every miss (bound once in ``__init__``)."""
        entry = child.mshr_entry
        now = self.engine.now
        if self.monitor is not None:
            self.monitor.on_miss_end(entry.core, now, entry)
        self._install(entry.primary, dirty=entry.rfo, entry=entry)
        served = child.served_by or (self.lower.name if self.lower else "")
        tracer = self.tracer
        if child.trace and tracer is not None:
            tracer.instant("fill", self.name, now, child.core,
                           block=hex(child.block), waiters=len(entry.waiters))
        # Inlined MemRequest.respond for each waiter (the per-request
        # overhead is measurable at this call count).  Traced waiters
        # close their span at this level before the callback propagates
        # the fill upward, so spans nest DRAM -> LLC -> L2 -> L1 -> core.
        for waiter in entry.waiters:
            waiter.completed = now
            if served:
                waiter.served_by = served
            if waiter.trace and tracer is not None:
                tracer.span_end(waiter, self.name, now, hit=False)
            cb = waiter.callback
            if cb is not None:
                cb(waiter, now)
        del self.mshr._entries[entry.block]
        if self._pending:
            self._retry_pending()

    def _install(self, req: MemRequest, dirty: bool,
                 entry: Optional[MSHREntry]) -> None:
        """Place ``req``'s block into the array, evicting if needed."""
        block = req.block
        set_idx = block & self._set_mask
        tag = block >> self._set_bits
        blocks = self._sets[set_idx]
        index = self._tag2way[set_idx]
        policy = self.policy

        if entry is None:
            prefetch_fill = False
            fill_access = PolicyAccess(req.pc, req.addr, req.core, req.rtype)
        else:
            prefetch_fill = entry.prefetch_only
            fill_access = PolicyAccess(
                req.pc, req.addr, req.core, req.rtype, prefetch_fill,
                entry.pmc, entry.mlp_cost, entry.is_pure)

        way = -1
        if self._valid_count[set_idx] < self._ways:
            # Set not yet full: first invalid way wins (skipped entirely in
            # the steady state, where every set stays full).
            for w, blk in enumerate(blocks):
                if not blk.valid:
                    way = w
                    break
        if way < 0:
            way = policy.find_victim(set_idx, blocks, fill_access)
            if not 0 <= way < self._ways:
                policy.check_way(way)   # raises the policy's own error
            victim = blocks[way]
            policy.on_evict(set_idx, way, blocks, fill_access)
            self.stats.evictions += 1
            victim_dirty = victim.dirty
            if self.inclusive and self.upper_levels:
                victim_addr = self.block_addr(set_idx, victim.tag)
                for upper in self.upper_levels:
                    # An upper-level dirty copy is newer than ours: its
                    # data must reach memory with the eviction.
                    victim_dirty |= upper.invalidate(victim_addr)
            if req.trace and self.tracer is not None:
                self.tracer.instant("evict", self.name, self.engine.now,
                                    req.core, victim=hex(victim.tag),
                                    dirty=victim_dirty)
            if victim_dirty:
                self._writeback(set_idx, victim)
            if self._dup_tags:
                self._drop_mapping(index, set_idx, victim.tag, way)
            else:
                del index[victim.tag]
            self._valid_count[set_idx] -= 1

        blk = blocks[way]
        blk.valid = True
        blk.tag = tag
        blk.dirty = dirty
        blk.prefetch = prefetch_fill
        blk.core = req.core
        blk.pc = req.pc
        self._valid_count[set_idx] += 1
        prev = index.get(tag)       # inlined _add_mapping
        if prev is None:
            index[tag] = way
        else:
            self._dup_tags += 1
            if way < prev:
                index[tag] = way
        if prefetch_fill:
            self.stats.prefetch_fills += 1
        policy.on_fill(set_idx, way, blocks, fill_access)

    def _writeback(self, set_idx: int, victim: CacheBlock) -> None:
        if self.lower is None:
            return                      # memory-side victim: nothing below
        self.stats.writebacks_out += 1
        wb = MemRequest(
            self.block_addr(set_idx, victim.tag),
            victim.pc, victim.core, _WRITEBACK, created=self.engine.now,
        )
        # Writebacks leave this cache's port immediately; the lower level
        # accounts for its own latency and bandwidth.
        self.lower.access(wb)

    def _retry_pending(self) -> None:
        """Admit queued requests as MSHR slots free up."""
        pending = self._pending
        mshr = self.mshr
        entries = mshr._entries
        capacity = mshr.capacity
        while pending and len(entries) < capacity:
            req = pending.popleft()
            block = req.block
            set_idx = block & self._set_mask
            if (block >> self._set_bits) in self._tag2way[set_idx]:
                # Another miss to the same block filled while we waited.
                self.stats.late_hits += 1
                if req.trace and self.tracer is not None:
                    self.tracer.span_end(req, self.name, self.engine.now,
                                         hit=True, late=True)
                req.respond(self.engine.now, served_by=self.name)
                continue
            entry = entries.get(block)
            if entry is not None:
                entry.merge(req)
                mshr.merges += 1
                self.stats.mshr_merges += 1
                continue
            self._start_miss(req)

    # ------------------------------------------------------------------
    # Prefetching
    # ------------------------------------------------------------------
    def _issue_prefetch(self, addr: int, trigger: MemRequest) -> None:
        if addr < 0:
            return
        block = addr >> BLOCK_BITS
        if (block >> self._set_bits) in self._tag2way[block & self._set_mask]:
            return                      # already cached
        mshr = self.mshr
        entries = mshr._entries
        if block in entries:
            return                      # already in flight
        if len(entries) >= mshr.capacity or self._pending:
            return                      # don't let prefetches add pressure
        preq = MemRequest(
            addr, trigger.pc, trigger.core, _PREFETCH,
            created=self.engine.now,
        )
        self.prefetcher.issued += 1
        self.access(preq)

    def release(self) -> None:
        """Drop the cached self-callbacks and the misses still in flight
        at the end of a completed run; their requests' callbacks point
        at the level above.  The tag array and stats stay readable."""
        self._fill_cb = None
        self._lookup_cb = None
        self.mshr._entries.clear()
        self._pending.clear()

    # ------------------------------------------------------------------
    # Introspection (tests, debugging)
    # ------------------------------------------------------------------
    def blocks_in_set(self, set_idx: int) -> List[CacheBlock]:
        return self._sets[set_idx]

    def valid_blocks(self) -> int:
        return sum(1 for s in self._sets for b in s if b.valid)

    def assert_no_duplicates(self) -> None:
        """Invariants: a block address appears at most once in its set, and
        the ``tag -> way`` index agrees exactly with the tag array."""
        for set_idx, blocks in enumerate(self._sets):
            tags = [b.tag for b in blocks if b.valid]
            if len(tags) != len(set(tags)):
                raise AssertionError(
                    f"{self.name}: duplicate tags in set {set_idx}: {tags}")
            expected = {b.tag: w for w, b in enumerate(blocks) if b.valid}
            if self._tag2way[set_idx] != expected:
                raise AssertionError(
                    f"{self.name}: tag index out of sync in set {set_idx}: "
                    f"{self._tag2way[set_idx]} != {expected}")
            if self._valid_count[set_idx] != len(tags):
                raise AssertionError(
                    f"{self.name}: valid count out of sync in set "
                    f"{set_idx}: {self._valid_count[set_idx]} != {len(tags)}")
