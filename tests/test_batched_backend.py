"""Unit tests for the batched backend's building blocks.

Three layers are pinned here, below the golden suite's end-to-end
bit-identity:

* the calendar-queue :class:`~repro.sim.engine.Engine` the backend was
  built around (now the shared engine) — event *order* must match the
  classic ``(time, seq)`` heap, :class:`tests.test_engine.HeapModel`,
  exactly, including same-cycle self-scheduling, ``stop()`` mid-bucket,
  ``until``/``max_events`` bounds, and watcher multiplexing;
* the struct-of-arrays stores in :mod:`repro.sim.batched.soa`;
* the :mod:`repro.sim.backends` registry and the deprecation shims the
  API redesign introduced (positional ``simulate()`` args, silent
  ``make_policy`` kwarg drops).
"""

import random

import numpy as np
import pytest

from repro.sim.backends import (UnknownBackendError, available_backends,
                                build_system, get_backend, resolve_engine)
from repro.sim.batched.soa import SoAMSHR, SoATagArrays, TraceColumns
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine, EngineError
from repro.sim.request import AccessType, MemRequest
from repro.workloads import TraceRecord
from tests.test_engine import HeapModel


# ----------------------------------------------------------------------
# Engine: drain order is the classic (time, seq) heap order
# ----------------------------------------------------------------------
def _random_schedule(engine, log, seed, n=200, self_schedule=True):
    """Schedule n tagged events at random times, some re-scheduling."""
    r = random.Random(seed)

    def ev(tag):
        log.append((engine.now, tag))
        if self_schedule and tag % 7 == 0:
            # same-cycle re-entry plus a future echo
            engine.post(engine.now, ev, tag + 10_000)
            engine.post(engine.now + r.randrange(1, 5), ev, tag + 20_000)

    for tag in range(n):
        engine.at(r.randrange(0, 50), ev, tag)
    return log


@pytest.mark.parametrize("self_schedule", [False, True])
def test_drain_order_matches_classic_engine(self_schedule):
    model, calendar = HeapModel(), Engine()
    log_c = _random_schedule(model, [], seed=7, self_schedule=self_schedule)
    log_b = _random_schedule(calendar, [], seed=7, self_schedule=self_schedule)
    n_c = model.run()
    n_b = calendar.run()
    assert log_b == log_c
    assert n_b == n_c
    assert calendar.events_processed == model.events_processed
    assert calendar.now == model.now
    assert calendar.pending == 0


def test_same_cycle_appends_drain_in_the_same_walk():
    engine = Engine()
    log = []

    def second():
        log.append(("second", engine.now))

    def first():
        log.append(("first", engine.now))
        engine.post(engine.now, second)   # lands behind, same cycle

    engine.at(3, first)
    engine.at(5, lambda: log.append(("later", engine.now)))
    engine.run()
    assert log == [("first", 3), ("second", 3), ("later", 5)]


def test_stop_mid_bucket_preserves_tail_and_resumes():
    engine = Engine()
    log = []
    for tag in range(6):
        engine.at(4, log.append, tag)
    engine.at(4, engine.stop)
    # interleave the stop among the bucket's events
    bucket = engine._buckets[4]
    bucket.insert(3, bucket.pop())
    n1 = engine.run()
    assert log == [0, 1, 2]
    assert n1 == 4                       # 3 appends + the stop event
    assert engine.pending == 3
    assert engine.next_event_time() == 4
    n2 = engine.run()
    assert log == [0, 1, 2, 3, 4, 5]
    assert n2 == 3
    assert engine.events_processed == 7
    assert engine.pending == 0


@pytest.mark.parametrize("kwargs", [
    {"until": 20}, {"max_events": 37}, {"until": 20, "max_events": 37},
])
def test_bounded_runs_match_classic_engine(kwargs):
    model, calendar = HeapModel(), Engine()
    log_c = _random_schedule(model, [], seed=11)
    log_b = _random_schedule(calendar, [], seed=11)
    n_c = model.run(**kwargs)
    n_b = calendar.run(**kwargs)
    assert log_b == log_c
    assert n_b == n_c
    assert calendar.now == model.now
    assert calendar.events_processed == model.events_processed
    # and the leftovers drain identically
    assert calendar.run() == model.run()
    assert log_b == log_c


def test_step_and_pending_match_classic_engine():
    model, calendar = HeapModel(), Engine()
    _random_schedule(model, [], seed=3, n=40, self_schedule=False)
    _random_schedule(calendar, [], seed=3, n=40, self_schedule=False)
    while True:
        assert calendar.pending == model.pending
        assert calendar.next_event_time() == model.next_event_time()
        stepped_c, stepped_b = model.step(), calendar.step()
        assert stepped_b == stepped_c
        if not stepped_c:
            break
        assert calendar.now == model.now


def test_scheduling_guards():
    engine = Engine()
    engine.at(5, lambda: None)
    engine.run()
    with pytest.raises(EngineError):
        engine.at(engine.now - 1, lambda: None)
    with pytest.raises(EngineError):
        engine.after(-1, lambda: None)


def test_watcher_multiplexing_parity():
    model, calendar = HeapModel(), Engine()
    counts = {"c1": 0, "c2": 0, "b1": 0, "b2": 0}
    for eng, keys in ((model, ("c1", "c2")), (calendar, ("b1", "b2"))):
        _random_schedule(eng, [], seed=5, self_schedule=False)
        fns = []
        for key in keys:
            fns.append(lambda k=key: counts.__setitem__(k, counts[k] + 1))
        eng.add_watcher(fns[0], 16)
        eng.add_watcher(fns[1], 64)
        eng.run()
    calendar.remove_watcher(fns[0])
    calendar.remove_watcher(fns[1])
    assert calendar.watcher is None
    assert counts["b1"] == counts["c1"] > 0
    assert counts["b2"] == counts["c2"]


def test_direct_watcher_assignment_conflicts_with_add_watcher():
    engine = Engine()
    engine.watcher = lambda: None
    with pytest.raises(EngineError):
        engine.add_watcher(lambda: None, 8)


# ----------------------------------------------------------------------
# SoA stores
# ----------------------------------------------------------------------
def test_soa_tag_arrays_materialize_round_trip():
    soa = SoATagArrays(sets=4, ways=2)
    fi = 2 * soa.ways + 1               # set 2, way 1
    soa.valid[fi] = 1
    soa.tag[fi] = 0xABC
    soa.dirty[fi] = 1
    soa.core[fi] = 3
    soa.pc[fi] = 0x40
    assert soa.valid_blocks() == 1
    assert soa.set_tags(2) == [0xABC]
    assert soa.set_tags(0) == []
    blocks = soa.materialize_set(2)
    assert len(blocks) == 2
    assert not blocks[0].valid
    blk = blocks[1]
    assert (blk.valid, blk.tag, blk.dirty, blk.core, blk.pc) == (
        True, 0xABC, True, 3, 0x40)
    full = soa.materialize()
    assert len(full) == 4 and full[2][1].tag == 0xABC


def test_soa_mshr_views_are_derived_from_entries():
    mshr = SoAMSHR(capacity=4)
    for i, (block, core) in enumerate([(0x10, 0), (0x20, 1), (0x30, 0)]):
        req = MemRequest(block << 6, 0x4, core, AccessType.LOAD, created=i)
        mshr.allocate(req, time=i)
    assert mshr.occupied_slots() == 3
    assert mshr.outstanding_for_core(0) == 2
    assert mshr.outstanding_for_core(1) == 1
    blocks, cores, issue = mshr.slot_view()
    assert blocks.tolist() == [0x10, 0x20, 0x30]
    assert cores.tolist() == [0, 1, 0]
    assert issue.tolist() == [0, 1, 2]
    mshr.free(0x20)
    assert mshr.occupied_slots() == 2
    assert mshr.outstanding_for_core(1) == 0
    assert mshr.slot_view()[0].tolist() == [0x10, 0x30]


def test_trace_columns_decode():
    records = [
        TraceRecord(pc=0x10, addr=0x1000, is_write=False, gap=2),
        TraceRecord(pc=0x14, addr=0x2000, is_write=True, gap=0),
    ]
    cols = TraceColumns(records, issue_width=4)
    assert cols.n == 2
    assert cols.pc.dtype == np.int64
    assert cols.addr_l == [0x1000, 0x2000]
    assert cols.slots_l == [3, 1]       # gap + 1
    assert cols.rtype_l == [AccessType.LOAD, AccessType.RFO]
    assert cols.slotw_l == [3 / 4, 1 / 4]


# ----------------------------------------------------------------------
# Backend registry / engine selection
# ----------------------------------------------------------------------
def test_registry_lists_both_builtin_backends():
    assert {"classic", "batched"} <= set(available_backends())
    from repro.sim.batched.system import BatchedSystem
    from repro.sim.system import System
    assert get_backend("classic") is System
    assert get_backend("batched") is BatchedSystem


def test_unknown_backend_is_a_clear_error():
    with pytest.raises(UnknownBackendError, match="available"):
        get_backend("vectorized-nope")


def test_resolve_engine_precedence(monkeypatch):
    from dataclasses import replace
    cfg = replace(SystemConfig.tiny(1), engine="batched")
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert resolve_engine(None, None) == "classic"
    assert resolve_engine(None, cfg) == "batched"
    assert resolve_engine("classic", cfg) == "classic"
    monkeypatch.setenv("REPRO_ENGINE", "batched")
    assert resolve_engine("classic", None) == "batched"


# ----------------------------------------------------------------------
# Deprecation shims (API redesign)
# ----------------------------------------------------------------------
def _mini_records(n=60):
    r = random.Random(1)
    return [TraceRecord(pc=0x10, addr=r.randrange(256) * 64,
                        is_write=False, gap=1) for _ in range(n)]


def test_simulate_positional_args_warn_and_still_work(tiny_cfg):
    from repro.sim.system import simulate
    records = _mini_records()
    with pytest.warns(DeprecationWarning, match="positional"):
        legacy = simulate([records], tiny_cfg, "lru")
    modern = simulate([records], cfg=tiny_cfg, llc_policy="lru")
    assert legacy.to_json() == modern.to_json()


def test_simulate_rejects_positional_keyword_conflict(tiny_cfg):
    from repro.sim.system import simulate
    with pytest.warns(DeprecationWarning):
        with pytest.raises(TypeError, match="multiple values"):
            simulate([_mini_records()], tiny_cfg, cfg=tiny_cfg)


def test_make_policy_kwarg_drop_warns_once():
    from repro.policies.registry import make_policy
    with pytest.warns(DeprecationWarning, match="drop"):
        pol = make_policy("lru", 16, 4, bogus_knob_for_test=1)
    assert pol.name == "lru"
    # context kwargs stay silent — that is the uniform-context contract
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_policy("lru", 16, 4, n_cores=4)


# ----------------------------------------------------------------------
# End-to-end: build_system wires the batched component classes
# ----------------------------------------------------------------------
def test_build_system_selects_batched_components(tiny_cfg):
    from repro.sim.batched.cache import BatchedCache
    from repro.sim.batched.cpu import BatchedCore
    system = build_system(tiny_cfg, [_mini_records()], engine="batched",
                          llc_policy="lru", warmup_records=0)
    assert isinstance(system.engine, Engine)
    assert isinstance(system.llc, BatchedCache)
    assert all(isinstance(c, BatchedCore) for c in system.cores)
    result = system.run()
    assert result.sim_cycles > 0
