"""DRAM timing model: row-buffer behavior, bank/channel serialization."""

from repro.sim import AccessType, DRAMConfig, Engine, MemRequest
from repro.sim.dram import DRAM


def make_dram(channels=1, banks=2, row_size=2048):
    eng = Engine()
    dram = DRAM(DRAMConfig(channels=channels, banks_per_channel=banks,
                           row_size=row_size), eng)
    return eng, dram


def _read(addr, cb):
    return MemRequest(addr=addr, pc=0, core=0, rtype=AccessType.LOAD,
                      callback=cb)


def test_first_access_is_row_activate():
    eng, dram = make_dram()
    times = []
    dram.access(_read(0x0, lambda r, t: times.append(t)))
    eng.run()
    cfg = dram.cfg
    assert times == [cfg.t_rcd + cfg.t_cas + cfg.burst_cycles]
    assert dram.stats.row_misses == 1


def test_row_hit_is_faster():
    eng, dram = make_dram()
    times = []
    dram.access(_read(0x0, lambda r, t: times.append(("a", t))))
    eng.run()
    # 0x80 maps to the same bank (block 2 with 2 banks) and same row.
    dram.access(_read(0x80, lambda r, t: times.append(("b", t))))
    eng.run()
    first = times[0][1]
    second = times[1][1] - first
    assert dram.stats.row_hits == 1
    assert second == dram.cfg.row_hit_latency


def test_row_conflict_pays_precharge():
    eng, dram = make_dram(banks=1, row_size=128)
    times = []
    dram.access(_read(0x0, lambda r, t: times.append(t)))
    eng.run()
    dram.access(_read(0x4000, lambda r, t: times.append(t)))  # new row, same bank
    eng.run()
    delta = times[1] - times[0]
    assert delta == dram.cfg.row_miss_latency
    assert dram.stats.row_misses == 2


def test_same_bank_requests_serialize():
    eng, dram = make_dram(banks=1)
    times = []
    dram.access(_read(0x0, lambda r, t: times.append(t)))
    dram.access(_read(0x40, lambda r, t: times.append(t)))
    eng.run()
    assert times[1] > times[0]


def test_different_banks_overlap():
    eng, dram = make_dram(banks=2)
    times = []
    dram.access(_read(0x0, lambda r, t: times.append(t)))    # bank 0
    dram.access(_read(0x40, lambda r, t: times.append(t)))   # bank 1
    eng.run()
    # array access overlaps; only the data bursts serialize
    assert times[1] - times[0] == dram.cfg.burst_cycles


def test_channel_interleaving():
    eng, dram = make_dram(channels=2, banks=1)
    times = []
    dram.access(_read(0x0, lambda r, t: times.append(t)))    # channel 0
    dram.access(_read(0x40, lambda r, t: times.append(t)))   # channel 1
    eng.run()
    assert times[0] == times[1]   # fully parallel across channels


def test_writeback_consumes_bandwidth_without_response():
    eng, dram = make_dram(banks=1)
    wb = MemRequest(addr=0x0, pc=0, core=0, rtype=AccessType.WRITEBACK)
    dram.access(wb)
    times = []
    dram.access(_read(0x40, lambda r, t: times.append(t)))
    eng.run()
    assert dram.stats.writes == 1
    # The read had to wait behind the write burst in the same bank.
    assert times[0] > dram.cfg.row_miss_latency


def test_mean_read_latency_accumulates():
    eng, dram = make_dram()
    for i in range(4):
        dram.access(_read(i * 0x40, lambda r, t: None))
    eng.run()
    assert dram.stats.reads == 4
    assert dram.stats.mean_read_latency > 0


def test_idle_bank_read_is_not_queued_behind_a_busy_bank():
    """Three reads to bank 0 in different rows, then one to idle bank 1,
    all at cycle 0: the bank-1 read waits at most for one data burst."""
    eng, dram = make_dram(channels=1, banks=2)
    times = {}
    for name, addr in (("a", 0x0), ("b", 0x1000), ("c", 0x2000),
                       ("idle", 0x40)):
        dram.access(_read(addr, lambda r, t, n=name: times.setdefault(n, t)))
    eng.run()
    cfg = dram.cfg
    unloaded = cfg.t_rcd + cfg.t_cas + cfg.burst_cycles
    assert times["idle"] <= unloaded + cfg.burst_cycles
    assert times["c"] > times["b"] > times["a"]
