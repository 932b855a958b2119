"""Save-state codec: header, refusal rules, and resume bit-identity.

The harness-level machinery around these bytes (cadence, preemption,
quarantine, pool protocol) is covered in ``test_preempt.py``; this file
pins the wire format itself: a blob written mid-run restores to a system
whose remaining run is byte-identical, stale blobs are refused as
:class:`StaleSavestate`, and torn blobs as :class:`CorruptSavestate`.
"""

import gzip
import json

import pytest

from repro.harness import ExperimentSpec
from repro.harness import preempt
from repro.harness.store import code_fingerprint
from repro.sim.savestate import (SAVESTATE_SCHEMA, CorruptSavestate,
                                 StaleSavestate, decode_savestate,
                                 read_savestate_header)


@pytest.fixture(autouse=True)
def clean_latch(monkeypatch):
    monkeypatch.delenv("REPRO_CKPT_DIR", raising=False)
    monkeypatch.delenv("REPRO_CKPT_EVENTS", raising=False)
    monkeypatch.delenv("REPRO_CKPT_SECS", raising=False)
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    preempt.clear_preempt()
    yield
    preempt.clear_preempt()


def a_spec():
    return ExperimentSpec.single("462.libquantum", "lru", n_records=300)


def make_blob(tmp_path, monkeypatch, spec):
    """A real mid-run save-state: force a preempt at the first tick."""
    monkeypatch.setenv("REPRO_CKPT_DIR", str(tmp_path / "ckpt"))
    monkeypatch.setenv("REPRO_CKPT_EVENTS", "1000")
    preempt.request_preempt()
    with pytest.raises(preempt.PreemptedError) as excinfo:
        spec.execute()
    assert excinfo.value.path is not None
    return open(excinfo.value.path, "rb").read()


def tamper(blob, **header_changes):
    """Rewrite header fields (recompressed, checksum untouched)."""
    raw = gzip.decompress(blob)
    sep = raw.find(b"\n")
    header = json.loads(raw[:sep].decode())
    header.update(header_changes)
    patched = json.dumps(header, sort_keys=True).encode() + raw[sep:]
    return gzip.compress(patched, mtime=0)


# ----------------------------------------------------------------------
# Header
# ----------------------------------------------------------------------
def test_header_is_readable_without_unpickling(tmp_path, monkeypatch):
    spec = a_spec()
    blob = make_blob(tmp_path, monkeypatch, spec)
    header = read_savestate_header(blob)
    assert header["schema"] == SAVESTATE_SCHEMA
    assert header["spec_key"] == spec.key()
    assert header["fingerprint"] == code_fingerprint()
    assert header["engine"] == "Engine"
    assert header["events"] == 1000 and header["now"] > 0


# ----------------------------------------------------------------------
# Round trip: restore-then-run == uninterrupted run
# ----------------------------------------------------------------------
def test_decode_resumes_byte_identical(tmp_path, monkeypatch):
    spec = a_spec()
    clean = spec.execute()
    blob = make_blob(tmp_path, monkeypatch, spec)
    system = decode_savestate(blob, spec_key=spec.key(),
                              fingerprint=code_fingerprint())
    assert system.engine.events_processed == 1000
    resumed = system.resume()
    assert resumed.to_json() == clean.to_json()


# ----------------------------------------------------------------------
# Refusal rules
# ----------------------------------------------------------------------
def test_decode_refuses_skew_as_stale(tmp_path, monkeypatch):
    spec = a_spec()
    blob = make_blob(tmp_path, monkeypatch, spec)
    key, fp = spec.key(), code_fingerprint()
    with pytest.raises(StaleSavestate, match="schema"):
        decode_savestate(tamper(blob, schema="repro.savestate/v99"),
                         spec_key=key, fingerprint=fp)
    with pytest.raises(StaleSavestate, match="fingerprint"):
        decode_savestate(blob, spec_key=key, fingerprint="f" * 64)
    with pytest.raises(StaleSavestate, match="spec"):
        decode_savestate(blob, spec_key="0" * 64, fingerprint=fp)
    # schema is checked before the fingerprint: a future-format blob is
    # reported as a schema problem even if everything else drifted too
    with pytest.raises(StaleSavestate, match="schema"):
        decode_savestate(tamper(blob, schema="x", fingerprint="y"),
                         spec_key=key, fingerprint=fp)


def test_decode_refuses_torn_blob_as_corrupt(tmp_path, monkeypatch):
    spec = a_spec()
    blob = make_blob(tmp_path, monkeypatch, spec)
    key, fp = spec.key(), code_fingerprint()
    with pytest.raises(CorruptSavestate, match="gzip"):
        decode_savestate(blob[:len(blob) // 2], spec_key=key, fingerprint=fp)
    with pytest.raises(CorruptSavestate, match="gzip"):
        decode_savestate(b"not a gzip stream", spec_key=key, fingerprint=fp)
    # flip one payload byte: checksum catches it before unpickling
    raw = gzip.decompress(blob)
    flipped = gzip.compress(raw[:-1] + bytes([raw[-1] ^ 0xFF]), mtime=0)
    with pytest.raises(CorruptSavestate, match="checksum"):
        decode_savestate(flipped, spec_key=key, fingerprint=fp)
    with pytest.raises(CorruptSavestate, match="header"):
        decode_savestate(gzip.compress(b"no newline here"),
                         spec_key=key, fingerprint=fp)


def test_encoding_a_machine_is_deterministic(tmp_path, monkeypatch):
    """Encoding one machine twice yields identical bytes: mtime=0 gzip
    framing plus a stable header mean the blob is a function of the
    in-memory state, with no wall-clock smuggled in.  (Two *separate*
    simulations may pickle sets of in-flight objects in different
    orders, so cross-run blob equality is deliberately not claimed —
    the pinned invariant is result equality, above.)"""
    from repro.sim.savestate import encode_savestate
    spec = a_spec()
    blob = make_blob(tmp_path, monkeypatch, spec)
    system = decode_savestate(blob, spec_key=spec.key(),
                              fingerprint=code_fingerprint())
    first = encode_savestate(system, spec_key=spec.key(),
                             fingerprint=code_fingerprint())
    second = encode_savestate(system, spec_key=spec.key(),
                              fingerprint=code_fingerprint())
    assert first == second
