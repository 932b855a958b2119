"""FR-FCFS memory controller: scheduling policy and queue behavior."""

import pytest

from repro.sim import AccessType, DRAMConfig, Engine, MemRequest, SystemConfig
from repro.sim.dram import DRAM


def make_ctrl(banks=2, channels=1, read_queue=8, write_queue=8, **kw):
    eng = Engine()
    cfg = DRAMConfig(channels=channels, banks_per_channel=banks,
                     row_size=1024)
    ctrl = DRAM(cfg, eng, read_queue=read_queue, write_queue=write_queue,
                **kw)
    return eng, ctrl


def _read(addr, cb=None):
    return MemRequest(addr=addr, pc=0, core=0, rtype=AccessType.LOAD,
                      callback=cb)


def _write(addr):
    return MemRequest(addr=addr, pc=0, core=0, rtype=AccessType.WRITEBACK)


def test_single_read_latency_matches_simple_model():
    eng, ctrl = make_ctrl()
    times = []
    ctrl.access(_read(0x0, cb=lambda r, t: times.append(t)))
    eng.run()
    cfg = ctrl.cfg
    assert times == [cfg.t_rcd + cfg.t_cas + cfg.burst_cycles]


def test_row_hit_reordering():
    """A younger row-hit request is served before an older row-miss."""
    eng, ctrl = make_ctrl(banks=1)
    order = []
    # Open row 0 in the bank.
    ctrl.access(_read(0x0, cb=lambda r, t: order.append("warm")))
    eng.run()
    # While the bank is busy with a row-miss to row 8, queue: first a
    # row-miss (older), then a row-hit (younger).
    ctrl.access(_read(0x2000, cb=lambda r, t: order.append("busy")))
    ctrl.access(_read(0x4000, cb=lambda r, t: order.append("miss-old")))
    ctrl.access(_read(0x2040, cb=lambda r, t: order.append("hit-young")))
    eng.run()
    assert order == ["warm", "busy", "hit-young", "miss-old"]
    assert ctrl.stats.frfcfs_reorders >= 1


def test_reads_prioritized_over_buffered_writes():
    eng, ctrl = make_ctrl(banks=1, write_queue=16)
    order = []
    ctrl.access(_write(0x0))
    ctrl.access(_read(0x1000, cb=lambda r, t: order.append("read")))
    eng.run()
    # The write was issued first (it arrived when nothing else existed),
    # but subsequent writes buffer while reads flow.
    ctrl.access(_write(0x2000))
    ctrl.access(_write(0x3000))
    ctrl.access(_read(0x4000, cb=lambda r, t: order.append("read2")))
    eng.run()
    assert "read2" in order
    assert ctrl.stats.reads == 2


def test_write_drain_hysteresis():
    eng, ctrl = make_ctrl(banks=1, write_queue=4, drain_high=0.5,
                          drain_low=0.25)
    for i in range(4):
        ctrl.access(_write(0x1000 * i))
    eng.run()
    assert ctrl.stats.writes == 4
    assert ctrl.stats.write_drains >= 1


def test_read_queue_backpressure():
    eng, ctrl = make_ctrl(banks=1, read_queue=2)
    done = []
    for i in range(6):
        ctrl.access(_read(0x1000 * i, cb=lambda r, t: done.append(t)))
    eng.run()
    assert len(done) == 6                      # everything eventually served
    assert ctrl.stats.read_queue_full_stalls > 0


def test_banks_operate_in_parallel():
    eng, ctrl = make_ctrl(banks=2)
    times = []
    ctrl.access(_read(0x0, cb=lambda r, t: times.append(t)))    # bank 0
    ctrl.access(_read(0x40, cb=lambda r, t: times.append(t)))   # bank 1
    eng.run()
    # Bursts serialize on the bus; array access overlaps across banks.
    assert times[1] - times[0] == ctrl.cfg.burst_cycles


def test_full_system_runs_with_frfcfs(small_trace):
    from repro.sim import simulate
    cfg = SystemConfig.tiny(1)
    res = simulate([small_trace.records], cfg=cfg, llc_policy="care")
    assert res.ipc[0] > 0
    assert res.dram.reads > 0


def test_frfcfs_improves_row_hit_rate_on_interleaved_streams():
    """Two interleaved streams to different rows: FR-FCFS batches row
    hits, so it beats serving the one bank in arrival order, where a
    request hits only if it follows one to its own row."""
    import random
    rng = random.Random(1)
    reqs = []
    for i in range(120):
        row = rng.choice([0x0, 0x100000])
        reqs.append(row + (i % 16) * 64)
    eng, ctrl = make_ctrl(banks=1, read_queue=32)
    for addr in reqs:
        ctrl.access(_read(addr))
    eng.run()
    rows = [addr // ctrl.cfg.row_size for addr in reqs]
    arrival_order = sum(a == b for a, b in zip(rows, rows[1:])) / len(rows)
    assert ctrl.stats.row_hit_rate > arrival_order


def test_drain_parameter_validation():
    with pytest.raises(ValueError):
        make_ctrl(drain_high=0.2, drain_low=0.5)
