"""The content-addressed trace cache (PR 7): keying, round-trip
byte-identity, memo/disk hit accounting, corruption quarantine + fsck,
the representability guard, and the per-directory process default."""

import gzip

import pytest

from repro.workloads import spec_trace
from repro.workloads.gap import gap_trace
from repro.harness.config import TRACE_CACHE_ENV as ENV_VAR
from repro.workloads.tracecache import (MAX_GAP, TraceCache, cached_trace,
                                        default_trace_cache,
                                        reset_default_trace_cache,
                                        set_default_trace_cache, trace_key,
                                        workloads_fingerprint)
from repro.workloads.trace import Trace, TraceRecord


@pytest.fixture(autouse=True)
def clean_default(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    reset_default_trace_cache()
    yield
    reset_default_trace_cache()


@pytest.fixture
def cache(tmp_path):
    return TraceCache(tmp_path / "traces")


SPEC_ARGS = dict(kind="spec", name="429.mcf", n_records=400, seed=3,
                 scale=1)


# ----------------------------------------------------------------------
# Keys and namespace
# ----------------------------------------------------------------------
def test_trace_key_is_stable_and_parameter_sensitive():
    key = trace_key(**SPEC_ARGS)
    assert key == trace_key(**SPEC_ARGS)
    assert len(key) == 64
    for change in ({"name": "470.lbm"}, {"n_records": 401}, {"seed": 4},
                   {"scale": 2}, {"kind": "gap"}):
        assert trace_key(**{**SPEC_ARGS, **change}) != key


def test_namespace_is_workloads_fingerprint(cache):
    fp = workloads_fingerprint()
    assert fp == workloads_fingerprint()      # cached, stable
    assert cache.namespace.name == fp[:16]
    key = trace_key(**SPEC_ARGS)
    path = cache.path_for(key)
    assert path.parent.name == key[:2]
    assert path.name == f"{key}.rtrc.gz"


# ----------------------------------------------------------------------
# Round-trip byte-identity and hit accounting
# ----------------------------------------------------------------------
def test_cached_spec_trace_round_trips_exactly(cache):
    direct = spec_trace("429.mcf", n_records=400, seed=3, scale=1)
    via_cache = cached_trace(cache=cache, **SPEC_ARGS)     # cold: generate
    assert via_cache.records == direct.records
    assert cache.stats()["writes"] == 1

    cache.clear_memo()
    from_disk = cached_trace(cache=cache, **SPEC_ARGS)     # warm: disk
    assert from_disk.records == direct.records
    assert cache.stats()["hits"] == 1

    from_memo = cached_trace(cache=cache, **SPEC_ARGS)     # hot: memo
    assert from_memo.records == direct.records
    assert cache.stats()["memo_hits"] == 1


def test_cached_gap_trace_round_trips_and_ignores_scale(cache):
    direct = gap_trace("bfs-tw", n_records=400, seed=5)
    got = cached_trace("gap", "bfs-tw", 400, 5, scale=7, cache=cache)
    assert got.records == direct.records
    # scale is normalized out of gap keys: any value hits the same entry
    cache.clear_memo()
    again = cached_trace("gap", "bfs-tw", 400, 5, scale=1, cache=cache)
    assert again.records == direct.records
    assert cache.stats()["writes"] == 1 and cache.stats()["hits"] == 1


def test_unknown_kind_rejected(cache):
    with pytest.raises(ValueError, match="kind"):
        cached_trace("mystery", "429.mcf", 100, 3, 1, cache=cache)


# ----------------------------------------------------------------------
# Corruption: quarantine on read, fsck sweep
# ----------------------------------------------------------------------
def test_corrupt_entry_is_quarantined_then_regenerated(cache):
    cached_trace(cache=cache, **SPEC_ARGS)
    key = trace_key(**SPEC_ARGS)
    path = cache.path_for(key)
    path.write_bytes(gzip.compress(b"not a trace"))
    cache.clear_memo()

    got = cached_trace(cache=cache, **SPEC_ARGS)   # quarantine + regen
    assert got.records == spec_trace("429.mcf", n_records=400, seed=3,
                                     scale=1).records
    assert cache.stats()["quarantined"] == 1
    assert len(list(cache.quarantine_dir.iterdir())) == 1
    assert path.is_file()                          # rewritten entry


def test_fsck_quarantines_unreadable_entries(cache):
    cached_trace(cache=cache, **SPEC_ARGS)
    cached_trace("spec", "470.lbm", 300, 3, 1, cache=cache)
    bad = cache.path_for(trace_key(**SPEC_ARGS))
    bad.write_bytes(b"\x1f\x8b garbage")

    report = cache.fsck()
    assert report.scanned == 2 and report.ok == 1
    assert len(report.quarantined) == 1
    assert "entr" in report.summary()
    assert len(cache) == 1                        # bad entry moved out
    # a second fsck over the healthy remainder is clean
    clean = cache.fsck()
    assert clean.scanned == 1 and clean.ok == 1 and not clean.errors


def flip_middle(path, n=64):
    """XOR ``n`` bytes in the middle of ``path`` (bit rot, not a tear)."""
    data = bytearray(path.read_bytes())
    mid = len(data) // 2
    for i in range(mid - n // 2, mid + n // 2):
        data[i] ^= 0xFF
    path.write_bytes(bytes(data))


def test_bit_flipped_entry_is_quarantined_then_regenerated(cache):
    cached_trace(cache=cache, **SPEC_ARGS)
    path = cache.path_for(trace_key(**SPEC_ARGS))
    flip_middle(path)
    cache.clear_memo()

    got = cached_trace(cache=cache, **SPEC_ARGS)   # quarantine + regen
    assert got.records == spec_trace("429.mcf", n_records=400, seed=3,
                                     scale=1).records
    assert cache.stats()["quarantined"] == 1
    assert [p.name for p in cache.quarantine_dir.iterdir()] == [path.name]
    # fsck finds the same damage offline
    flip_middle(path)
    report = cache.fsck()
    assert report.scanned == 1 and report.ok == 0
    assert len(report.quarantined) == 1 and report.errors
    assert not path.exists()


# ----------------------------------------------------------------------
# Representability guard: never cache what the format would distort
# ----------------------------------------------------------------------
def test_unrepresentable_trace_is_served_but_not_cached(cache):
    records = [TraceRecord(pc=4, addr=64, is_write=False,
                           gap=MAX_GAP + 1)]
    trace = Trace(name="synthetic", records=records)
    assert cache.put("0" * 64, trace) is None
    assert cache.stats()["writes"] == 0
    assert list(cache.entries()) == []


# ----------------------------------------------------------------------
# The per-directory process default
# ----------------------------------------------------------------------
def test_default_cache_disabled_values(monkeypatch):
    for value in ("", "0", "off", "none", "disabled", "OFF"):
        monkeypatch.setenv(ENV_VAR, value)
        assert default_trace_cache() is None


def test_default_cache_tracks_env_changes(tmp_path, monkeypatch):
    """Library callers (simbench) point REPRO_TRACE_CACHE elsewhere
    mid-process: the default must follow it at each call, keeping one
    cache (and its memo) while the directory is unchanged."""
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "a"))
    first = default_trace_cache()
    assert first is not None and first.root == tmp_path / "a"
    assert default_trace_cache() is first          # stable while unchanged
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "b"))
    second = default_trace_cache()
    assert second is not None and second.root == tmp_path / "b"
    monkeypatch.setenv(ENV_VAR, "off")
    assert default_trace_cache() is None


def test_trace_cache_for_keeps_one_cache_per_directory(tmp_path):
    """A warm worker keeps its memo while tasks name the same directory
    and chaos profile; any other setting gets a fresh cache."""
    from repro.checks.chaos import parse_chaos
    from repro.workloads.tracecache import trace_cache_for
    assert trace_cache_for(None) is None
    first = trace_cache_for(str(tmp_path / "a"))
    assert first.root == tmp_path / "a" and first.namespace.is_dir()
    assert trace_cache_for(str(tmp_path / "a")) is first
    chaotic = trace_cache_for(str(tmp_path / "a"),
                              chaos=parse_chaos("corrupt:1"))
    assert chaotic is not first and chaotic.chaos is not None
    other = trace_cache_for(str(tmp_path / "b"))
    assert other is not first and other.chaos is None


def test_set_default_overrides_env_until_reset(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "off")
    override = TraceCache(tmp_path / "pinned")
    set_default_trace_cache(override)
    assert default_trace_cache() is override       # env ignored
    reset_default_trace_cache()
    assert default_trace_cache() is None           # env honored again
