"""Cache model: hits, misses, merging, back-pressure, writebacks, fills."""

from repro.policies.lru import LRUPolicy
from repro.sim import AccessType, Cache, CacheConfig, Engine, MemRequest


def make_cache(sets=4, ways=2, latency=2, mshr=2, engine=None, lower=None):
    eng = engine or Engine()
    cfg = CacheConfig("C", sets, ways, latency, mshr)
    cache = Cache(cfg, eng, LRUPolicy(sets, ways), lower=lower)
    return eng, cache


class _PerfectLower:
    """A lower level that answers every request after a fixed delay."""

    name = "MEM"

    def __init__(self, engine, delay=10):
        self.engine = engine
        self.delay = delay
        self.requests = []

    def access(self, req):
        self.requests.append(req)
        if req.rtype != AccessType.WRITEBACK:
            self.engine.at(self.engine.now + self.delay, req.respond,
                           self.engine.now + self.delay, self.name)


def _load(addr, core=0, pc=0x40, rtype=AccessType.LOAD, cb=None):
    return MemRequest(addr=addr, pc=pc, core=core, rtype=rtype, callback=cb)


def test_miss_then_hit_latency():
    eng = Engine()
    lower = _PerfectLower(eng, delay=10)
    _, cache = make_cache(engine=eng, lower=lower)
    done = []
    cache.access(_load(0x1000, cb=lambda r, t: done.append(t)))
    eng.run()
    # miss: base(2) + lower(10) = fill at 12
    assert done == [12]
    cache.access(_load(0x1000, cb=lambda r, t: done.append(t)))
    eng.run()
    assert done[-1] == 12 + 2  # hit costs one base latency
    assert cache.stats.demand_hits == 1
    assert cache.stats.demand_misses == 1


def test_mshr_merge_single_lower_request():
    eng = Engine()
    lower = _PerfectLower(eng, delay=20)
    _, cache = make_cache(engine=eng, lower=lower)
    done = []
    cache.access(_load(0x2000, cb=lambda r, t: done.append(("a", t))))
    cache.access(_load(0x2008, cb=lambda r, t: done.append(("b", t))))  # same block
    eng.run()
    assert len(lower.requests) == 1
    assert len(done) == 2
    assert cache.stats.mshr_merges == 1


def test_mshr_backpressure_queues_requests():
    eng = Engine()
    lower = _PerfectLower(eng, delay=50)
    _, cache = make_cache(engine=eng, lower=lower, mshr=2)
    done = []
    for i in range(4):   # 4 distinct blocks, MSHR holds 2
        cache.access(_load(0x4000 + i * 64, cb=lambda r, t: done.append(t)))
    eng.run()
    assert len(done) == 4
    assert cache.stats.mshr_stalls == 2
    assert cache.mshr.peak_occupancy == 2


def test_secondary_miss_merges_even_when_mshr_full():
    eng = Engine()
    lower = _PerfectLower(eng, delay=50)
    _, cache = make_cache(engine=eng, lower=lower, mshr=1)
    done = []
    cache.access(_load(0x0, cb=lambda r, t: done.append("first")))
    cache.access(_load(0x8, cb=lambda r, t: done.append("merged")))
    eng.run()
    assert sorted(done) == ["first", "merged"]
    assert cache.stats.mshr_merges == 1
    assert cache.stats.mshr_stalls == 0


def test_queued_request_late_hit():
    """A queued miss whose block arrives by other means becomes a late hit."""
    eng = Engine()
    lower = _PerfectLower(eng, delay=50)
    _, cache = make_cache(engine=eng, lower=lower, mshr=1)
    done = []
    cache.access(_load(0x0, cb=lambda r, t: done.append("first")))
    cache.access(_load(0x40, cb=lambda r, t: done.append("queued")))  # waits
    # A writeback to the queued block installs it without an MSHR entry.
    cache.access(_load(0x40, rtype=AccessType.WRITEBACK))
    eng.run()
    assert sorted(done) == ["first", "queued"]
    assert cache.stats.late_hits == 1


def test_writeback_allocates_without_fetch():
    eng = Engine()
    lower = _PerfectLower(eng)
    _, cache = make_cache(engine=eng, lower=lower)
    cache.access(_load(0x3000, rtype=AccessType.WRITEBACK))
    eng.run()
    assert lower.requests == []          # no fetch for a writeback miss
    assert cache.probe(0x3000)
    block = cache.blocks_in_set(cache.set_index(0x3000 >> 6))[0]
    assert block.dirty


def test_dirty_eviction_emits_writeback():
    eng = Engine()
    lower = _PerfectLower(eng)
    _, cache = make_cache(sets=1, ways=1, engine=eng, lower=lower)
    cache.access(_load(0x0, rtype=AccessType.RFO))   # dirty fill
    eng.run()
    cache.access(_load(0x40))                        # evicts dirty block
    eng.run()
    wbs = [r for r in lower.requests if r.rtype == AccessType.WRITEBACK]
    assert len(wbs) == 1
    assert wbs[0].block == 0
    assert cache.stats.writebacks_out == 1


def test_rfo_hit_marks_dirty():
    eng = Engine()
    lower = _PerfectLower(eng)
    _, cache = make_cache(engine=eng, lower=lower)
    cache.access(_load(0x100))
    eng.run()
    cache.access(_load(0x100, rtype=AccessType.RFO))
    eng.run()
    set_idx = cache.set_index(0x100 >> 6)
    blk = next(b for b in cache.blocks_in_set(set_idx) if b.valid)
    assert blk.dirty


def test_demand_hit_clears_prefetch_bit():
    eng = Engine()
    lower = _PerfectLower(eng)
    _, cache = make_cache(engine=eng, lower=lower)
    cache.access(_load(0x200, rtype=AccessType.PREFETCH))
    eng.run()
    set_idx = cache.set_index(0x200 >> 6)
    blk = next(b for b in cache.blocks_in_set(set_idx) if b.valid)
    assert blk.prefetch
    cache.access(_load(0x200))
    eng.run()
    assert not blk.prefetch
    assert cache.stats.prefetch_useful == 1


def test_no_duplicate_tags_invariant(small_trace):
    eng = Engine()
    lower = _PerfectLower(eng, delay=7)
    _, cache = make_cache(sets=8, ways=4, engine=eng, lower=lower, mshr=8)
    for rec in small_trace.records[:600]:
        cache.access(_load(rec.addr))
        eng.run()
    cache.assert_no_duplicates()
    assert cache.valid_blocks() <= 8 * 4


def test_block_addr_roundtrip():
    _, cache = make_cache(sets=8, ways=2)
    for addr in (0x0, 0x40, 0x1280, 0xFFFC0):
        block = addr >> 6
        set_idx = cache.set_index(block)
        tag = cache.tag_of(block)
        assert cache.block_addr(set_idx, tag) == (block << 6)
