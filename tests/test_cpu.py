"""Core model: pacing, ROB limits, dependent loads, warmup, IPC."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AccessType, CoreConfig, Engine
from repro.sim.cpu import Core
from repro.workloads import TraceRecord


class InstantL1:
    """Answers every access after a fixed delay (stands in for the cache)."""

    def __init__(self, engine, delay=3):
        self.engine = engine
        self.delay = delay
        self.issued = []

    def access(self, req):
        self.issued.append((self.engine.now, req))
        self.engine.at(self.engine.now + self.delay, req.respond,
                       self.engine.now + self.delay)


def run_core(records, delay=3, issue_width=4, rob=32, warmup=0,
             measure=None):
    eng = Engine()
    l1 = InstantL1(eng, delay)
    core = Core(0, eng, l1, records, CoreConfig(issue_width, rob),
                measure_records=measure, warmup_records=warmup, replay=False)
    core.start()
    eng.run()
    return eng, l1, core


def recs(n, gap=0, dep=False):
    return [TraceRecord(pc=0x10 + i, addr=i * 64, is_write=False,
                        gap=gap, dep=dep) for i in range(n)]


def test_all_records_retire():
    eng, l1, core = run_core(recs(20))
    assert core.finished
    assert core.retired_records == 20
    assert core.retired_instructions == 20


def test_instruction_count_includes_gaps():
    eng, l1, core = run_core(recs(10, gap=4))
    assert core.retired_instructions == 50


def test_front_end_pacing_limits_issue_rate():
    # 16 records, width 4, gap 0 -> at most 4 issues per cycle.
    eng, l1, core = run_core(recs(16), issue_width=4)
    from collections import Counter
    per_cycle = Counter(t for t, _ in l1.issued)
    assert max(per_cycle.values()) <= 4


def test_rob_limits_outstanding():
    # ROB of 4 slots, gap 0 -> at most 4 in flight.
    eng = Engine()
    inflight = {"now": 0, "peak": 0}

    class TrackingL1:
        def __init__(self, engine):
            self.engine = engine

        def access(self, req):
            inflight["now"] += 1
            inflight["peak"] = max(inflight["peak"], inflight["now"])

            def respond(r=req):
                inflight["now"] -= 1
                r.respond(self.engine.now)

            self.engine.at(self.engine.now + 10, respond)

    core = Core(0, eng, TrackingL1(eng), recs(30),
                CoreConfig(issue_width=8, rob_entries=4), replay=False)
    core.start()
    eng.run()
    assert core.finished
    assert inflight["peak"] <= 4


def test_dependent_loads_serialize():
    # Independent: overlapped; dependent: latency adds up.
    _, _, fast = run_core(recs(10, gap=0, dep=False), delay=20)
    _, _, slow = run_core(recs(10, gap=0, dep=True), delay=20)
    assert slow.finish_time > fast.finish_time + 100  # ~serialized


def test_warmup_excluded_from_ipc():
    eng, l1, core = run_core(recs(30, gap=1), warmup=10, measure=20)
    assert core.finished
    assert core.retired_instructions == 40      # 20 measured x 2 instr
    assert core.measure_start_time > 0
    assert core.ipc > 0


def test_stores_issue_rfo():
    records = [TraceRecord(pc=1, addr=0, is_write=True, gap=0)]
    eng, l1, core = run_core(records)
    assert l1.issued[0][1].rtype == AccessType.RFO


def test_empty_trace_finishes_immediately():
    eng = Engine()
    finished = []
    core = Core(0, eng, InstantL1(eng), [], CoreConfig(),
                on_finish=lambda c: finished.append(c))
    core.start()
    assert core.finished and finished == [core]


def test_stop_halts_dispatch():
    eng = Engine()
    l1 = InstantL1(eng)
    core = Core(0, eng, l1, recs(100), CoreConfig(4, 8), replay=False)
    core.start()
    eng.run(max_events=20)
    issued_before = len(l1.issued)
    core.stop()
    eng.run()
    # completions drain but no new dispatch beyond what the ROB held
    assert len(l1.issued) <= issued_before + 8


def test_ipc_definition():
    eng, l1, core = run_core(recs(40, gap=3), issue_width=4)
    cycles = core.finish_time - core.measure_start_time
    assert core.ipc == pytest.approx(core.retired_instructions / cycles)


# ----------------------------------------------------------------------
# Property: completions in any order, head-only redispatch
# ----------------------------------------------------------------------
class EagerCore(Core):
    """Reference completion path: every completion retires and
    redispatches, whether or not it completed the ROB head."""

    __slots__ = ()

    def _complete_cb(self, req, _time):
        entry = req.rob_entry
        entry.done = True
        if entry.deferred:
            for dep in entry.deferred:
                self.l1.access(dep)
            entry.deferred = None
        self._retire()
        self._dispatch()


class HeldL1:
    """Holds every access until the test completes it."""

    def __init__(self, engine):
        self.engine = engine
        self.outstanding = []
        self.issued = []

    def access(self, req):
        self.issued.append((self.engine.now, req.addr, req.rtype))
        self.outstanding.append(req)


def _completion_trace(core_cls, records, picks, cfg, warmup, measure,
                      replay):
    """Complete held requests in ``picks`` order; record what the core
    shows after every completion."""
    eng = Engine()
    l1 = HeldL1(eng)
    core = core_cls(0, eng, l1, records, cfg, measure_records=measure,
                    warmup_records=warmup, replay=replay)
    seen = []

    def complete(req):
        req.callback(req, eng.now)
        assert not core._rob or not core._rob[0].done   # retirement is eager
        seen.append((eng.now, core._rob_occ, core.retired_records,
                     core.measure_start_time, core.finish_time,
                     core.finished))

    core.start()
    eng.run()
    for k in range(120):
        if not l1.outstanding:
            break
        pick = picks[k % len(picks)]
        req = l1.outstanding.pop(pick % len(l1.outstanding))
        eng.at(eng.now + 1 + pick % 3, complete, req)
        eng.run()
    return seen, l1.issued


@settings(max_examples=120, deadline=None)
@given(records=st.lists(st.tuples(st.integers(0, 3), st.booleans(),
                                  st.booleans()), min_size=1, max_size=40),
       picks=st.lists(st.integers(0, 63), min_size=1, max_size=16),
       width=st.integers(1, 4), rob=st.integers(4, 12),
       warmup=st.integers(0, 5), measure=st.none() | st.integers(1, 30),
       replay=st.booleans())
def test_completion_order_matches_eager_redispatch(records, picks, width, rob,
                                                   warmup, measure, replay):
    trace = [TraceRecord(pc=0x40 + i, addr=(i % 7) * 64, is_write=write,
                         gap=gap, dep=dep)
             for i, (gap, write, dep) in enumerate(records)]
    cfg = CoreConfig(width, rob)
    args = (trace, picks, cfg, warmup, measure, replay)
    assert _completion_trace(Core, *args) == _completion_trace(EagerCore,
                                                               *args)
