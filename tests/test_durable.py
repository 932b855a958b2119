"""The one on-disk protocol (``repro.durable``): every writer is atomic,
and only a torn, bit-flipped or wrong-shape file is quarantined — a bug
in a decoder propagates and moves nothing."""

import os
from types import SimpleNamespace

import pytest

from repro.harness import ExperimentSpec, ResultStore, preempt
from repro.harness.supervise import SweepManifest
from repro.sim.stats import SimResult
from repro.workloads.trace import Trace, TraceRecord
from repro.workloads.tracecache import TraceCache, trace_key


@pytest.fixture(scope="module")
def specs():
    return [ExperimentSpec.single(w, "lru", n_records=300)
            for w in ("462.libquantum", "470.lbm")]


@pytest.fixture(scope="module")
def results(specs):
    return [spec.execute() for spec in specs]


def tiny_trace(addr):
    return Trace(name="t", records=[TraceRecord(pc=4, addr=addr,
                                                is_write=False, gap=1)])


# Each writer: (tmp_path, specs, results) -> (path, write old, write new).
def store_writer(tmp_path, specs, results):
    store = ResultStore(tmp_path / "store")
    return (store.path_for(specs[0]),
            lambda: store.put(specs[0], results[0]),
            lambda: store.put(specs[0], results[1]))


def trace_writer(tmp_path, specs, results):
    cache = TraceCache(tmp_path / "traces")
    key = trace_key("spec", "t", 1, 0, 1)
    return (cache.path_for(key), lambda: cache.put(key, tiny_trace(64)),
            lambda: cache.put(key, tiny_trace(128)))


def manifest_writer(tmp_path, specs, results):
    manifest = SweepManifest(tmp_path / "sweep.manifest.json")
    manifest.register(specs[0])

    def grow():
        manifest.register(specs[1])
        return manifest.save()
    return manifest.path, manifest.save, grow


def savestate_writer(tmp_path, specs, results):
    path = preempt.state_path(tmp_path / "ckpt", specs[0].key())
    policy = preempt.CheckpointPolicy(path, specs[0].key(), "f" * 64)
    policy.system = SimpleNamespace(
        engine=SimpleNamespace(events_processed=1, now=1))

    def advance():
        policy.system.engine.events_processed += 1000
        return preempt.save_state(policy)
    return path, lambda: preempt.save_state(policy), advance


@pytest.mark.parametrize("writer,degrades", [
    (store_writer, False), (trace_writer, False),
    (manifest_writer, False), (savestate_writer, True)])
def test_failed_rename_keeps_the_old_file_and_no_temp_file(
        tmp_path, monkeypatch, specs, results, writer, degrades):
    path, write_old, write_new = writer(tmp_path, specs, results)
    write_old()
    before = path.read_bytes()

    def full_disk(src, dst):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(os, "replace", full_disk)
    if degrades:
        assert write_new() is None          # save_state degrades
    else:
        with pytest.raises(OSError, match="No space"):
            write_new()
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_decoder_bug_propagates_and_moves_no_file(tmp_path, monkeypatch,
                                                  specs, results):
    store = ResultStore(tmp_path / "store")
    path = store.put(specs[0], results[0])
    cache = TraceCache(tmp_path / "traces")
    key = trace_key("spec", "t", 1, 0, 1)
    trace_path = cache.put(key, tiny_trace(64))
    cache.clear_memo()

    def bug(*args, **kwargs):
        raise RuntimeError("decoder bug")
    monkeypatch.setattr(SimResult, "from_dict", bug)
    monkeypatch.setattr("repro.workloads.tracecache.load_trace", bug)
    for read in (lambda: store.get(specs[0]), store.fsck,
                 lambda: list(store.load_entries()),
                 lambda: cache.get(key), cache.fsck):
        with pytest.raises(RuntimeError, match="decoder bug"):
            read()
    assert path.is_file() and trace_path.is_file()
    assert not (tmp_path / "store" / "quarantine").exists()
    assert not (tmp_path / "traces" / "quarantine").exists()
