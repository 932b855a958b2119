"""Versioned in-flight save-states of a running simulator.

A save-state captures the *entire* deterministic machine mid-run — the
:class:`~repro.sim.engine.Engine` (calendar buckets, time, live drain
cursor normalized away), every cache/MSHR/core/DRAM component, the PML
concurrency monitor, attached observers, and the module-level
request-id counter — so that *restore-then-run is byte-identical to an
uninterrupted run*.  The golden checkpoint suite pins that invariant on
every fixture.

Snapshots are only meaningful at a **watcher boundary**: the engine
settles ``events_processed``, resets the loop countdown, and exposes the
live-bucket cursor before invoking a watcher, so a snapshot taken
inside a watcher call resumes phase-exact.
The :class:`~repro.harness.preempt.CheckpointPolicy` watcher is the only
sanctioned snapshot site.

Wire format (``repro.savestate/v1``)::

    gzip( <header JSON line> \\n <pickle payload> )

The header is readable without unpickling and carries everything the
refusal rules need: schema version, the repro *code fingerprint* (any
source edit invalidates old states), the spec content key, the engine
class, progress counters, and a sha256 over the payload.  A mismatched
schema/fingerprint/key raises :class:`StaleSavestate`; torn or
bit-rotted files raise :class:`CorruptSavestate`.  Callers (the preempt
layer) quarantine on either and fall back to a cold restart — a bad
save-state may cost time, never correctness.

This module is pure: it maps a live system to bytes and back.  File
I/O, cadence, env vars, and wall clocks live in
:mod:`repro.harness.preempt` so the deterministic domain stays free of
nondeterminism sources.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import pickle
import zlib
from typing import Any, Dict

SAVESTATE_SCHEMA = "repro.savestate/v1"


class SavestateError(RuntimeError):
    """A save-state could not be used; the caller must cold-start."""


class CorruptSavestate(SavestateError):
    """Torn write, bad checksum, or an unpicklable payload."""


class StaleSavestate(SavestateError):
    """Schema/fingerprint/spec mismatch — the state is for other code."""


def encode_savestate(system: Any, *, spec_key: str,
                     fingerprint: str) -> bytes:
    """Serialize ``system`` mid-run into a ``repro.savestate/v1`` blob.

    Must be called at a watcher boundary (see module doc); the engine's
    ``__getstate__`` hook normalizes its calendar so the pickled state
    is exactly "every event not yet dispatched".
    """
    from . import request as request_mod
    payload = pickle.dumps(
        {"system": system,
         "next_request_id": request_mod._next_request_id},
        protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "schema": SAVESTATE_SCHEMA,
        "fingerprint": fingerprint,
        "spec_key": spec_key,
        "engine": type(system.engine).__name__,
        "events": system.engine.events_processed,
        "now": system.engine.now,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    raw = json.dumps(header, sort_keys=True).encode() + b"\n" + payload
    # mtime=0 keeps the blob bytes a pure function of the machine state.
    return gzip.compress(raw, compresslevel=6, mtime=0)


def _split(blob: bytes) -> "tuple":
    try:
        raw = gzip.decompress(blob)
    except (OSError, EOFError, zlib.error) as exc:
        raise CorruptSavestate(f"unreadable gzip container: {exc}") from exc
    sep = raw.find(b"\n")
    if sep < 0:
        raise CorruptSavestate("missing header line")
    try:
        header = json.loads(raw[:sep].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptSavestate(f"unparseable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CorruptSavestate("header is not a JSON object")
    return header, raw[sep + 1:]


def read_savestate_header(blob: bytes) -> Dict[str, Any]:
    """The header dict alone (no unpickling, no refusal checks)."""
    header, _payload = _split(blob)
    return header


def decode_savestate(blob: bytes, *, spec_key: str,
                     fingerprint: str) -> Any:
    """Validate ``blob`` and return the restored system, ready to resume.

    Refusal rules, in order: schema version, code fingerprint, spec key
    (:class:`StaleSavestate`); then payload checksum and unpickling
    (:class:`CorruptSavestate`).  The module-level request-id counter is
    restored alongside the system so post-resume requests continue the
    uninterrupted id sequence (observer span keys depend on it).
    """
    header, payload = _split(blob)
    if header.get("schema") != SAVESTATE_SCHEMA:
        raise StaleSavestate(
            f"schema {header.get('schema')!r} != {SAVESTATE_SCHEMA!r}")
    if header.get("fingerprint") != fingerprint:
        raise StaleSavestate(
            f"code fingerprint {str(header.get('fingerprint'))[:12]}... "
            f"does not match the running code ({fingerprint[:12]}...)")
    if header.get("spec_key") != spec_key:
        raise StaleSavestate(
            f"state is for spec {str(header.get('spec_key'))[:12]}..., "
            f"not {spec_key[:12]}...")
    digest = hashlib.sha256(payload).hexdigest()
    if header.get("payload_sha256") != digest:
        raise CorruptSavestate("payload checksum mismatch (torn write?)")
    try:
        state = pickle.loads(payload)
        system = state["system"]
        next_id = state["next_request_id"]
    except CorruptSavestate:
        raise
    except Exception as exc:   # pickle raises a zoo of types
        raise CorruptSavestate(f"unpicklable payload: {exc}") from exc
    from . import request as request_mod
    # Resuming must continue the uninterrupted id sequence exactly; the
    # write is part of restoring one task's own state, not shared state
    # leaking between tasks (a fresh snapshot rewrites it per restore).
    request_mod._next_request_id = next_id
    return system
