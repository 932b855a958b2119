"""Columnar traces: four typed columns per trace, records built only on
demand, and the version-3 trace file that stores the columns as blobs."""

import gzip
import json
import struct
import tracemalloc

import pytest

from repro.harness import ExperimentSpec
from repro.harness.config import RunConfig
from repro.sim import SystemConfig
from repro.sim.system import System
from repro.workloads.io import load_trace, save_trace
from repro.workloads.spec_like import DEFAULT_SCALE
from repro.workloads.trace import Trace, TraceRecord, make_trace
from repro.workloads.tracecache import generate_trace


def test_spec_trace_keeps_at_most_32_bytes_per_record():
    generate_trace("spec", "429.mcf", 200, 3, DEFAULT_SCALE)  # warm imports
    tracemalloc.start()
    try:
        trace = generate_trace("spec", "429.mcf", 12000, 3, DEFAULT_SCALE)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == 12000
    assert held / len(trace) <= 32


@pytest.mark.parametrize("suite,workload", [
    ("spec", "429.mcf"), ("gap", "bfs-or"), ("serve", "kv-zipf99")])
def test_generation_and_simulation_build_no_records(monkeypatch, suite,
                                                    workload):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a TraceRecord was built")

    monkeypatch.setattr(TraceRecord, "__new__", refuse)
    spec = ExperimentSpec(workload, "lru", n_cores=2, prefetch=False,
                          suite=suite, n_records=300, preset="tiny")
    traces = spec.build_traces(RunConfig())       # trace cache off
    assert all(isinstance(t, Trace) for t in traces)
    n = min(len(t) for t in traces)
    result = System(spec.build_config(), traces, llc_policy=spec.policy,
                    seed=spec.seed, measure_records=n // 2,
                    warmup_records=n // 2).run()
    assert sum(result.instructions) > 0


def test_v2_trace_file_is_refused_by_version(tmp_path):
    header = json.dumps({"name": "old", "seed": 0, "suite": "synthetic",
                         "records": 1}).encode()
    blob = (b"RTRC" + struct.pack("<HI", 2, len(header)) + header
            + struct.pack("<QQBH", 4, 64, 1, 3))
    path = tmp_path / "old.rtrc.gz"
    path.write_bytes(gzip.compress(blob))
    with pytest.raises(ValueError, match="version 2"):
        load_trace(path)


@pytest.mark.parametrize("suffix", [".rtrc", ".rtrc.gz"])
def test_v3_round_trips_extreme_values_exactly(tmp_path, suffix):
    top = (1 << 64) - 1
    records = [
        TraceRecord(pc=top, addr=top, is_write=True, gap=0xFFFF, dep=True),
        TraceRecord(pc=0, addr=0, is_write=False, gap=0, dep=False),
        TraceRecord(pc=1, addr=top - 63, is_write=True, gap=7, dep=False),
        TraceRecord(pc=top, addr=64, is_write=False, gap=1, dep=True),
    ]
    trace = make_trace("edge", records, seed=9, suite="edge-suite")
    path = tmp_path / f"edge{suffix}"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded == trace
    assert loaded.records == records


def test_save_trace_refuses_a_gap_above_16_bits(tmp_path):
    records = [TraceRecord(pc=4, addr=64, is_write=False, gap=3),
               TraceRecord(pc=8, addr=128, is_write=False, gap=70000)]
    path = tmp_path / "long-gap.rtrc"
    with pytest.raises(ValueError, match="record 1"):
        save_trace(make_trace("long-gap", records), path)
    assert not path.exists()


def test_system_from_record_list_matches_system_from_trace():
    trace = generate_trace("spec", "429.mcf", 800, 5, 16)
    results = []
    for traces in ([trace.records], [trace]):
        system = System(SystemConfig.tiny(1), traces, llc_policy="care",
                        prefetch=True, measure_records=400,
                        warmup_records=400)
        results.append(system.run().to_json())
    assert results[0] == results[1]
