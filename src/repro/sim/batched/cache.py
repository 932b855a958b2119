"""Batched cache level: SoA tag state + fused access/fill paths.

:class:`BatchedCache` is behaviourally identical to
:class:`~repro.sim.cache.Cache` — same counters, same event order, same
policy decisions — with three structural changes (DESIGN.md §13):

* the tag store is a :class:`~repro.sim.batched.soa.SoATagArrays`
  struct-of-arrays (flat numpy arrays indexed ``set_idx * ways + way``)
  instead of per-way ``CacheBlock`` objects; ``_sets`` materializes
  classic blocks on demand for introspection,
* lookup/hit/miss/install are fused into single functions, and events
  are appended straight into the :class:`~repro.sim.engine.Engine`
  calendar bucket,
* replacement metadata for the hot policies is updated **per set in
  bulk**: LRU keeps a flat stamp array and picks victims with ``argmin``;
  SRRIP keeps a flat RRPV array, replaces the classic one-step aging loop
  with a single deficit add (``row += rrpv_max - row.max()``), and picks
  victims with ``argmax``; CARE applies the same deficit transform to the
  policy's own EPV rows (``epv[:] = [x + d for x in epv]``, crediting
  ``epv_aging_rounds += d``) and preserves the RNG draw exactly.  Every
  other policy falls back to the classic per-event hook calls
  (``find_victim``/``on_hit``/``on_fill``/``on_evict``) against a lazy
  block view.

Equivalence arguments for the fast paths are spelled out in DESIGN.md
§13; the golden suite pins them bit-for-bit against the classic backend.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional

import numpy as np

from .soa import SoAMSHR, SoATagArrays
from ..cache import CacheStats
from ..config import BLOCK_BITS, CacheConfig
from ..mshr import MSHREntry
from ..request import AccessType, MemRequest
from ...core.care import CAREPolicy, EPV_MAX as _EPV_MAX
from ...policies.base import PolicyAccess
from ...policies.lru import LRUPolicy
from ...policies.srrip import SRRIPPolicy

if TYPE_CHECKING:
    from ..engine import Engine
    from ...core.pmc import ConcurrencyMonitor
    from ...policies.base import ReplacementPolicy
    from ...prefetch.base import Prefetcher

_WRITEBACK = AccessType.WRITEBACK
_RFO = AccessType.RFO
_PREFETCH = AccessType.PREFETCH

#: fast-path selector values (``_pmode``)
_P_GENERIC, _P_LRU, _P_SRRIP, _P_CARE = 0, 1, 2, 3


class _SetView:
    """Lazy classic-blocks view of one set for fallback policy hooks.

    Registered policies never read the ``blocks`` argument (they operate
    on their own metadata), so the common case allocates nothing; a
    policy that does index or iterate it gets classic ``CacheBlock``
    snapshots.  One reusable instance per cache — policies must not
    retain the view across hook calls (none do)."""

    __slots__ = ("_cache", "set_idx")

    def __init__(self, cache: "BatchedCache") -> None:
        self._cache = cache
        self.set_idx = 0

    def __len__(self) -> int:
        return self._cache._ways

    def __getitem__(self, way: int):
        return self._cache.soa.materialize_set(self.set_idx)[way]

    def __iter__(self):
        return iter(self._cache.soa.materialize_set(self.set_idx))


class BatchedCache:
    """One cache level of the batched backend (see module docstring)."""

    __slots__ = (
        "cfg", "name", "engine", "policy", "lower", "monitor", "prefetcher",
        "inclusive", "upper_levels", "instr_counter", "stats", "_set_mask",
        "_set_bits", "_latency", "_ways", "soa", "_valid_a", "_tag_a",
        "_dirty_a", "_pref_a", "_core_a", "_pc_a", "_tag2way", "_valid_count",
        "_dup_tags", "mshr", "_mentries", "_mshr_cap", "_pending", "_fill_cb",
        "_lookup_cb", "_ebuckets", "_etimes", "tracer", "_pmode", "_meta_a",
        "_meta_max", "_clock", "_view",
    )

    def __init__(self, cfg: CacheConfig, engine: "Engine",
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
        self.inclusive = inclusive
        self.upper_levels: List["BatchedCache"] = []
        self.instr_counter: Optional[Callable[[int], int]] = None
        self.stats = CacheStats()

        self._set_mask = cfg.sets - 1
        self._set_bits = cfg.sets.bit_length() - 1
        self._latency = cfg.latency
        self._ways = cfg.ways
        self.soa = SoATagArrays(cfg.sets, cfg.ways)
        self._valid_a = self.soa.valid
        self._tag_a = self.soa.tag
        self._dirty_a = self.soa.dirty
        self._pref_a = self.soa.prefetch
        self._core_a = self.soa.core
        self._pc_a = self.soa.pc
        # Same lookup index + bookkeeping as the classic cache (the
        # sanitizer cross-checks these against the tag arrays).
        self._tag2way: List[Dict[int, int]] = [{} for _ in range(cfg.sets)]
        self._valid_count: List[int] = [0] * cfg.sets
        self._dup_tags = 0
        self.mshr = SoAMSHR(cfg.mshr_entries)
        self._mentries = self.mshr._entries
        self._mshr_cap = cfg.mshr_entries
        self._pending: Deque[MemRequest] = deque()
        self._fill_cb = self._fill_from_child
        self._lookup_cb = self._lookup
        # Calendar internals bound once: `access` appends its lookup
        # event straight into the bucket.
        self._ebuckets = engine._buckets
        self._etimes = engine._times
        self.tracer: Optional[Any] = None

        # Replacement fast-path selection (exact types only: a subclass
        # may override hooks, so it falls back to the generic path).
        n = cfg.sets * cfg.ways
        self._clock = 0
        self._meta_max = 0
        self._meta_a: Optional[np.ndarray] = None
        if type(policy) is LRUPolicy:
            self._pmode = _P_LRU
            self._meta_a = np.zeros(n, dtype=np.int64)
        elif type(policy) is SRRIPPolicy:
            self._pmode = _P_SRRIP
            self._meta_max = policy.rrpv_max
            self._meta_a = np.full(n, policy.rrpv_max, dtype=np.int64)
        elif isinstance(policy, CAREPolicy):
            # CARE subclasses (ablations, M-CARE) only change constructor
            # flags / cost_signal; victim selection is shared.
            self._pmode = _P_CARE
        else:
            self._pmode = _P_GENERIC
        self._view = _SetView(self)

    # ------------------------------------------------------------------
    # Save-states (repro.sim.savestate)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle without the engine-calendar aliases.

        ``_ebuckets``/``_etimes`` alias ``engine._buckets``/``_times``
        for the inlined append; the engine's own ``__getstate__``
        replaces those containers with normalized copies, so pickled
        aliases would point at an orphaned calendar and post-restore
        events would vanish.  They are dropped here and re-bound by
        :meth:`~repro.sim.batched.system.BatchedSystem._relink` before
        a restored system resumes.
        """
        state = {slot: getattr(self, slot) for slot in BatchedCache.__slots__}
        state["_ebuckets"] = None
        state["_etimes"] = None
        return state

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    def relink_engine(self) -> None:
        """Re-bind the calendar aliases to the (restored) engine."""
        self._ebuckets = self.engine._buckets
        self._etimes = self.engine._times

    # ------------------------------------------------------------------
    # Address helpers / introspection (classic API)
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
        block = addr >> BLOCK_BITS
        return self.tag_of(block) in self._tag2way[self.set_index(block)]

    @property
    def _sets(self):
        """Classic per-set ``CacheBlock`` lists, materialized on demand.

        Introspection-only (sanitizer sweeps, tests): the authoritative
        state is the flat SoA arrays."""
        return self.soa.materialize()

    def blocks_in_set(self, set_idx: int):
        return self.soa.materialize_set(set_idx)

    def valid_blocks(self) -> int:
        return int(self._valid_a.sum())

    def assert_no_duplicates(self) -> None:
        for set_idx in range(self.cfg.sets):
            base = set_idx * self._ways
            valid = self._valid_a[base:base + self._ways]
            tags = self._tag_a[base:base + self._ways][valid != 0]
            if len(tags) != len(set(tags.tolist())):
                raise AssertionError(
                    f"{self.name}: duplicate tags in set {set_idx}: "
                    f"{tags.tolist()}")
            expected = {}
            for w in range(self._ways):
                if valid.item(w):
                    expected.setdefault(self._tag_a.item(base + w), w)
            if self._tag2way[set_idx] != expected:
                raise AssertionError(
                    f"{self.name}: tag index out of sync in set {set_idx}: "
                    f"{self._tag2way[set_idx]} != {expected}")
            if self._valid_count[set_idx] != int((valid != 0).sum()):
                raise AssertionError(
                    f"{self.name}: valid count out of sync in set "
                    f"{set_idx}: {self._valid_count[set_idx]}")

    # ------------------------------------------------------------------
    # Invalidation (inclusive back-invalidation)
    # ------------------------------------------------------------------
    def invalidate(self, addr: int) -> bool:
        block = addr >> BLOCK_BITS
        set_idx = block & self._set_mask
        tag = block >> self._set_bits
        index = self._tag2way[set_idx]
        way = index.get(tag, -1)
        if way < 0:
            return False
        fi = set_idx * self._ways + way
        was_dirty = bool(self._dirty_a.item(fi))
        self._valid_a[fi] = 0
        self._dirty_a[fi] = 0
        self._valid_count[set_idx] -= 1
        self._drop_mapping(index, set_idx, tag, way)
        self.stats.invalidations += 1
        return was_dirty

    # ------------------------------------------------------------------
    # Tag-index maintenance (same invariants as the classic cache)
    # ------------------------------------------------------------------
    def _drop_mapping(self, index: Dict[int, int], set_idx: int,
                      tag: int, way: int) -> None:
        if self._dup_tags:
            base = set_idx * self._ways
            valid_it = self._valid_a.item
            tag_it = self._tag_a.item
            for w in range(self._ways):
                if w != way and valid_it(base + w) and tag_it(base + w) == tag:
                    index[tag] = w
                    self._dup_tags -= 1
                    return
        del index[tag]

    # ------------------------------------------------------------------
    # Access path (fused)
    # ------------------------------------------------------------------
    def access(self, req: MemRequest) -> None:
        """Entry point: an access arrives at this level now."""
        engine = self.engine
        now = engine.now
        self.stats.accesses[req.rtype] += 1
        monitor = self.monitor
        if monitor is not None:
            monitor.on_access(req.core, now, req.is_demand)
        if req.trace and self.tracer is not None:
            self.tracer.span_begin(req, self.name, now)
        # Inlined Engine.post — the single most frequent scheduling
        # site; bucket append order equals classic seq order.
        t = now + self._latency
        buckets = self._ebuckets
        bucket = buckets.get(t)
        if bucket is None:
            buckets[t] = [(self._lookup_cb, (req,))]
            _heappush(self._etimes, t)  # simsan: skip=SS204 (approved inlined post; bucket append order == classic seq order)
        else:
            bucket.append((self._lookup_cb, (req,)))

    def _lookup(self, req: MemRequest) -> None:
        """Fused lookup + hit handling (classic `_lookup`+`_handle_hit`)."""
        block = req.block
        set_idx = block & self._set_mask
        way = self._tag2way[set_idx].get(block >> self._set_bits, -1)

        if way >= 0:
            now = self.engine.now
            rtype = req.rtype
            stats = self.stats
            stats.hits[rtype] += 1
            monitor = self.monitor
            if monitor is not None:
                monitor.on_hit_observed(req.core, now)
            fi = set_idx * self._ways + way
            pmode = self._pmode
            if pmode == _P_LRU:
                clock = self._clock + 1
                self._clock = clock
                self._meta_a[fi] = clock
            elif pmode == _P_SRRIP:
                self._meta_a[fi] = 0
            else:
                pol = self.policy
                pref = bool(self._pref_a.item(fi))
                access = PolicyAccess(req.pc, req.addr, req.core, rtype, pref)
                view = self._view
                view.set_idx = set_idx
                if rtype == _WRITEBACK:
                    self._dirty_a[fi] = 1
                    pol.on_hit(set_idx, way, view, access)
                    return
                if pref and req.is_demand:
                    stats.prefetch_useful += 1
                pol.on_hit(set_idx, way, view, access)
                if req.is_demand:
                    self._pref_a[fi] = 0
                    if rtype == _RFO:
                        self._dirty_a[fi] = 1
                if req.trace and self.tracer is not None:
                    self.tracer.span_end(req, self.name, now, hit=True)
                req.completed = now
                req.served_by = self.name
                cb = req.callback
                if cb is not None:
                    cb(req, now)
                prefetcher = self.prefetcher
                if prefetcher is not None and req.is_demand:
                    for addr in prefetcher.train(req, True):
                        self._issue_prefetch(addr, req)
                return
            # LRU/SRRIP tail (no PolicyAccess, hooks are pure metadata)
            if rtype == _WRITEBACK:
                self._dirty_a[fi] = 1
                return
            if req.is_demand:
                if self._pref_a.item(fi):
                    stats.prefetch_useful += 1
                    self._pref_a[fi] = 0
                if rtype == _RFO:
                    self._dirty_a[fi] = 1
            if req.trace and self.tracer is not None:
                self.tracer.span_end(req, self.name, now, hit=True)
            req.completed = now
            req.served_by = self.name
            cb = req.callback
            if cb is not None:
                cb(req, now)
            prefetcher = self.prefetcher
            if prefetcher is not None and req.is_demand:
                for addr in prefetcher.train(req, True):
                    self._issue_prefetch(addr, req)
            return

        # ---- miss (classic `_lookup` miss arm + `_handle_miss`) ----
        stats = self.stats
        rtype = req.rtype
        stats.misses[rtype] += 1
        if req.is_demand:
            by_core = stats.demand_misses_by_core
            core = req.core
            by_core[core] = by_core.get(core, 0) + 1
        if rtype == _WRITEBACK:
            # Write-allocate without fetch: the full line is incoming.
            self._install(req, True, None)
        else:
            entries = self._mentries
            entry = entries.get(block)
            if entry is not None:
                was_prefetch_only = entry.prefetch_only
                entry.merge(req)
                self.mshr.merges += 1
                stats.mshr_merges += 1
                if was_prefetch_only and not entry.prefetch_only:
                    stats.prefetch_promoted += 1
                if req.trace and self.tracer is not None:
                    self.tracer.instant("mshr-merge", self.name,
                                        self.engine.now, req.core,
                                        block=hex(block))
            elif len(entries) >= self._mshr_cap:
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
            for addr in prefetcher.train(req, False):
                self._issue_prefetch(addr, req)

    def _start_miss(self, req: MemRequest) -> None:
        now = self.engine.now
        core = req.core
        block = req.block
        # Inlined MSHR.allocate (callers just confirmed space + no entry);
        # the SoAMSHR slot arrays are derived lazily from the entry dict.
        mshr = self.mshr
        entries = mshr._entries
        entry = MSHREntry(block, req, now, core)
        entries[block] = entry
        mshr.allocations += 1
        occ = len(entries)
        if occ > mshr.peak_occupancy:
            mshr.peak_occupancy = occ
        if self.instr_counter is not None:
            entry.instr_at_issue = self.instr_counter(core)
        if self.monitor is not None:
            self.monitor.on_miss_start(core, now, entry)
        if self.lower is None:
            raise RuntimeError(f"{self.name}: miss with no lower level")
        child = MemRequest(req.addr, req.pc, core, req.rtype, now,
                           self._fill_cb)
        child.mshr_entry = entry
        if req.trace:
            child.trace = True
        self.lower.access(child)

    # ------------------------------------------------------------------
    # Fill path (fused)
    # ------------------------------------------------------------------
    def _fill_from_child(self, child: MemRequest, _time: int) -> None:
        entry = child.mshr_entry
        now = self.engine.now
        if self.monitor is not None:
            self.monitor.on_miss_end(entry.core, now, entry)
        self._install(entry.primary, entry.rfo, entry)
        served = child.served_by or (self.lower.name if self.lower else "")
        tracer = self.tracer
        if child.trace and tracer is not None:
            tracer.instant("fill", self.name, now, child.core,
                           block=hex(child.block), waiters=len(entry.waiters))
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
        """Place ``req``'s block into the arrays, evicting if needed."""
        block = req.block
        set_idx = block & self._set_mask
        tag = block >> self._set_bits
        index = self._tag2way[set_idx]
        ways = self._ways
        base = set_idx * ways
        pmode = self._pmode
        pol = self.policy

        if entry is None:
            prefetch_fill = False
        else:
            prefetch_fill = entry.prefetch_only
        fill_access = None
        if pmode >= _P_CARE or pmode == _P_GENERIC:
            if entry is None:
                fill_access = PolicyAccess(req.pc, req.addr, req.core,
                                           req.rtype)
            else:
                instr_during = 0
                if self.instr_counter is not None:
                    instr_during = (self.instr_counter(req.core)
                                    - entry.instr_at_issue)
                fill_access = PolicyAccess(
                    req.pc, req.addr, req.core, req.rtype, prefetch_fill,
                    entry.pmc, entry.mlp_cost, entry.is_pure, instr_during)

        way = -1
        if self._valid_count[set_idx] < ways:
            # First invalid way (argmin of the 0/1 valid row returns the
            # first zero); skipped entirely once the set is full.
            way = int(self._valid_a[base:base + ways].argmin())
        if way < 0:
            if pmode == _P_LRU:
                # Victim = oldest stamp; argmin returns the first minimum,
                # matching the classic first-min scan.
                way = int(self._meta_a[base:base + ways].argmin())
            elif pmode == _P_SRRIP:
                # Deficit aging: the classic loop ages all ways +1 until
                # one reaches rrpv_max; since all start < max that is
                # exactly d = rrpv_max - row.max() rounds, applied here
                # as one vector add.  First way at max = argmax.
                row = self._meta_a[base:base + ways]
                d = self._meta_max - int(row.max())
                if d:
                    row += d
                way = int(row.argmax())
            elif pmode == _P_CARE:
                # Same deficit transform on CARE's EPV row, preserving
                # the aging-round counter and the RNG draw: the candidate
                # list after d rounds is the ways whose EPV was maximal,
                # and rng.choice consumes one _randbelow(len) either way.
                epv = pol._epv[set_idx]
                m = max(epv)
                if m < _EPV_MAX:
                    d = _EPV_MAX - m
                    epv[:] = [x + d for x in epv]
                    pol.stats.epv_aging_rounds += d
                candidates = [w for w in range(ways) if epv[w] >= _EPV_MAX]
                way = pol.rng.choice(candidates)
                view = self._view
                view.set_idx = set_idx
                pol.on_evict(set_idx, way, view, fill_access)
            else:
                view = self._view
                view.set_idx = set_idx
                way = pol.check_way(
                    pol.find_victim(set_idx, view, fill_access))
                pol.on_evict(set_idx, way, view, fill_access)
            fi = base + way
            self.stats.evictions += 1
            victim_tag = self._tag_a.item(fi)
            victim_dirty = self._dirty_a.item(fi)
            if self.inclusive and self.upper_levels:
                victim_addr = (((victim_tag << self._set_bits) | set_idx)
                               << BLOCK_BITS)
                for upper in self.upper_levels:
                    if upper.invalidate(victim_addr):
                        victim_dirty = 1
            if req.trace and self.tracer is not None:
                self.tracer.instant("evict", self.name, self.engine.now,
                                    req.core, victim=hex(victim_tag),
                                    dirty=bool(victim_dirty))
            if victim_dirty:
                self._writeback(set_idx, fi, victim_tag)
            if self._dup_tags:
                self._drop_mapping(index, set_idx, victim_tag, way)
            else:
                del index[victim_tag]
            self._valid_count[set_idx] -= 1
        else:
            fi = base + way

        self._valid_a[fi] = 1
        self._tag_a[fi] = tag
        self._dirty_a[fi] = 1 if dirty else 0
        self._pref_a[fi] = 1 if prefetch_fill else 0
        self._core_a[fi] = req.core
        self._pc_a[fi] = req.pc
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
        if pmode == _P_LRU:
            clock = self._clock + 1
            self._clock = clock
            self._meta_a[fi] = clock
        elif pmode == _P_SRRIP:
            self._meta_a[fi] = self._meta_max - 1
        else:
            view = self._view
            view.set_idx = set_idx
            pol.on_fill(set_idx, way, view, fill_access)

    def _writeback(self, set_idx: int, fi: int, victim_tag: int) -> None:
        if self.lower is None:
            return                      # memory-side victim: nothing below
        self.stats.writebacks_out += 1
        wb = MemRequest(
            ((victim_tag << self._set_bits) | set_idx) << BLOCK_BITS,
            self._pc_a.item(fi), self._core_a.item(fi), _WRITEBACK,
            created=self.engine.now,
        )
        self.lower.access(wb)

    def _retry_pending(self) -> None:
        """Admit queued requests as MSHR slots free up (classic replica)."""
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
    # Prefetching (classic replica)
    # ------------------------------------------------------------------
    def _issue_prefetch(self, addr: int, trigger: MemRequest) -> None:
        if addr < 0:
            return
        block = addr >> BLOCK_BITS
        if (block >> self._set_bits) in self._tag2way[block & self._set_mask]:
            return                      # already cached
        entries = self._mentries
        if block in entries:
            return                      # already in flight
        if len(entries) >= self._mshr_cap or self._pending:
            return                      # don't let prefetches add pressure
        preq = MemRequest(
            addr, trigger.pc, trigger.core, _PREFETCH,
            created=self.engine.now,
        )
        self.prefetcher.issued += 1
        self.access(preq)
