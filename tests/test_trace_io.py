"""Trace persistence (native format) and the ChampSim importer."""

import gzip

import pytest

from repro.workloads import spec_trace
from repro.workloads.io import (
    CHAMPSIM_RECORD,
    load_trace,
    pack_champsim_instruction,
    read_champsim_trace,
    save_trace,
)
from repro.workloads.trace import TraceRecord, make_trace


# ----------------------------------------------------------------------
# Native format
# ----------------------------------------------------------------------

def test_native_roundtrip(tmp_path):
    trace = spec_trace("429.mcf", n_records=700, seed=4)
    path = tmp_path / "mcf.rtrc"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.records == trace.records
    assert loaded.name == trace.name
    assert loaded.seed == trace.seed
    assert loaded.suite == trace.suite


def test_native_roundtrip_gzip(tmp_path):
    trace = spec_trace("470.lbm", n_records=500, seed=1)
    path = tmp_path / "lbm.rtrc.gz"
    save_trace(trace, path)
    raw = path.read_bytes()
    assert raw[:2] == b"\x1f\x8b"      # actually gzip on disk
    assert load_trace(path).records == trace.records


def test_native_preserves_dep_and_write_flags(tmp_path):
    records = [
        TraceRecord(pc=1, addr=64, is_write=True, gap=3, dep=False),
        TraceRecord(pc=2, addr=128, is_write=False, gap=0, dep=True),
    ]
    trace = make_trace("flags", records)
    path = tmp_path / "flags.rtrc"
    save_trace(trace, path)
    assert load_trace(path).records == records


def test_native_rejects_garbage(tmp_path):
    path = tmp_path / "bad.rtrc"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="not a native trace"):
        load_trace(path)


def test_native_detects_truncation(tmp_path):
    trace = spec_trace("429.mcf", n_records=50, seed=4)
    path = tmp_path / "t.rtrc"
    save_trace(trace, path)
    data = path.read_bytes()
    path.write_bytes(data[:-7])
    with pytest.raises(ValueError, match="truncated|promises"):
        load_trace(path)


# ----------------------------------------------------------------------
# ChampSim importer
# ----------------------------------------------------------------------

def test_champsim_record_is_64_bytes():
    assert CHAMPSIM_RECORD.size == 64
    assert len(pack_champsim_instruction(0x400000)) == 64


def test_champsim_loads_and_stores_extracted():
    blob = b"".join([
        pack_champsim_instruction(0x400000),                 # no memory
        pack_champsim_instruction(0x400004, src_mem=[0x1000]),
        pack_champsim_instruction(0x400008),                 # no memory
        pack_champsim_instruction(0x40000C),                 # no memory
        pack_champsim_instruction(0x400010, dest_mem=[0x2000]),
    ])
    trace = read_champsim_trace(blob, name="t")
    assert len(trace.records) == 2
    load, store = trace.records
    assert (load.pc, load.addr, load.is_write, load.gap) == \
        (0x400004, 0x1000, False, 1)
    assert (store.pc, store.addr, store.is_write, store.gap) == \
        (0x400010, 0x2000, True, 2)


def test_champsim_multi_operand_instruction():
    blob = pack_champsim_instruction(
        0x10, src_mem=[0xA0, 0xB0], dest_mem=[0xC0])
    trace = read_champsim_trace(blob)
    assert [(r.addr, r.is_write) for r in trace.records] == [
        (0xA0, False), (0xB0, False), (0xC0, True)]


def test_champsim_max_records_cap():
    blob = b"".join(
        pack_champsim_instruction(0x10 + i, src_mem=[0x100 + 64 * i])
        for i in range(10))
    trace = read_champsim_trace(blob, max_records=4)
    assert len(trace.records) == 4


def test_champsim_truncated_stream_rejected():
    blob = pack_champsim_instruction(0x10, src_mem=[0x100])[:-3]
    with pytest.raises(ValueError, match="truncated"):
        read_champsim_trace(blob)


def test_champsim_from_file_and_gzip(tmp_path):
    blob = pack_champsim_instruction(0x20, src_mem=[0x40])
    plain = tmp_path / "trace.champsim"
    plain.write_bytes(blob)
    assert len(read_champsim_trace(plain).records) == 1
    gz = tmp_path / "trace.champsim.gz"
    gz.write_bytes(gzip.compress(blob))
    assert len(read_champsim_trace(gz).records) == 1


def test_champsim_trace_runs_in_simulator():
    blob = b"".join(
        pack_champsim_instruction(0x400000 + 4 * (i % 8),
                                  src_mem=[0x1000 + 64 * (i % 50)])
        for i in range(800))
    trace = read_champsim_trace(blob, name="imported")
    from repro.sim import SystemConfig, simulate
    res = simulate([trace.records], cfg=SystemConfig.tiny(1),
                   llc_policy="care")
    assert res.ipc[0] > 0
