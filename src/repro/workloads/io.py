"""Trace persistence and interchange.

Two on-disk formats:

* **Native format** (``.rtrc`` / ``.rtrc.gz``): a compact little-endian
  binary of this library's :class:`~repro.workloads.trace.TraceRecord`
  stream, with a JSON header carrying name/seed/suite metadata.  Use this
  to generate once and re-run many policy sweeps bit-identically.
* **ChampSim importer**: reads the fixed-size input records of the ChampSim
  simulator the paper evaluates on (64-byte ``trace_instr`` structs: ip,
  branch fields, destination/source registers, destination/source memory
  addresses) and converts them into our record stream, computing ``gap``
  from the non-memory instructions between memory operations.
"""

from __future__ import annotations

import gzip
import io
import json
import struct
from pathlib import Path
from typing import BinaryIO, Iterable, List, Union

from .trace import Trace, TraceRecord, make_trace

_MAGIC = b"RTRC"
_VERSION = 2
#: per record: pc, addr (u64), flags (u8: bit0 write, bit1 dep), gap (u16)
_RECORD = struct.Struct("<QQBH")


# ----------------------------------------------------------------------
# Native format
# ----------------------------------------------------------------------

def _open_read(path: Path) -> BinaryIO:
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def encode_trace(trace: Trace, compress: bool = True) -> bytes:
    """``trace`` in the native binary format, gzipped unless
    ``compress`` is false (``mtime=0``: the bytes depend only on the
    trace)."""
    header = json.dumps({
        "name": trace.name, "seed": trace.seed, "suite": trace.suite,
        "records": len(trace.records),
    }).encode()
    raw = bytearray(_MAGIC + struct.pack("<HI", _VERSION, len(header))
                    + header)
    for rec in trace.records:
        flags = (1 if rec.is_write else 0) | (2 if rec.dep else 0)
        raw += _RECORD.pack(rec.pc, rec.addr, flags, min(rec.gap, 0xFFFF))
    return gzip.compress(raw, mtime=0) if compress else bytes(raw)


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace in the native binary format (gzip if ``.gz``)."""
    path = Path(path)
    path.write_bytes(encode_trace(trace, compress=path.suffix == ".gz"))


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    path = Path(path)
    with _open_read(path) as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a native trace file")
        version, header_len = struct.unpack("<HI", fh.read(6))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported trace version {version}")
        meta = json.loads(fh.read(header_len))
        records: List[TraceRecord] = []
        expected = meta["records"]
        while True:
            chunk = fh.read(_RECORD.size)
            if not chunk:
                break
            if len(chunk) != _RECORD.size:
                raise ValueError(f"{path}: truncated record stream")
            pc, addr, flags, gap = _RECORD.unpack(chunk)
            records.append(TraceRecord(
                pc=pc, addr=addr, is_write=bool(flags & 1), gap=gap,
                dep=bool(flags & 2)))
    if len(records) != expected:
        raise ValueError(
            f"{path}: header promises {expected} records, found "
            f"{len(records)}")
    trace = make_trace(meta["name"], records, seed=meta["seed"],
                       suite=meta["suite"])
    return trace


# ----------------------------------------------------------------------
# ChampSim importer
# ----------------------------------------------------------------------

#: ChampSim input_instr: u64 ip; u8 is_branch; u8 branch_taken;
#: u8 destination_registers[2]; u8 source_registers[4];
#: u64 destination_memory[2]; u64 source_memory[4]
CHAMPSIM_RECORD = struct.Struct("<QBB2B4B2Q4Q")

NUM_INSTR_DESTINATIONS = 2
NUM_INSTR_SOURCES = 4


def pack_champsim_instruction(ip: int, is_branch: bool = False,
                              branch_taken: bool = False,
                              dest_mem: Iterable[int] = (),
                              src_mem: Iterable[int] = ()) -> bytes:
    """Build one ChampSim input record (used by tests and trace tooling)."""
    dmem = (list(dest_mem) + [0] * NUM_INSTR_DESTINATIONS)[
        :NUM_INSTR_DESTINATIONS]
    smem = (list(src_mem) + [0] * NUM_INSTR_SOURCES)[:NUM_INSTR_SOURCES]
    return CHAMPSIM_RECORD.pack(
        ip, int(is_branch), int(branch_taken),
        0, 0,            # destination registers (unused here)
        0, 0, 0, 0,      # source registers
        *dmem, *smem)


def read_champsim_trace(source: Union[str, Path, bytes, BinaryIO],
                        name: str = "champsim",
                        max_records: int = None) -> Trace:
    """Convert a ChampSim binary instruction trace to a :class:`Trace`.

    Each instruction with memory operands yields one record per distinct
    operand address (reads as loads, writes as stores); instructions
    without memory operands accumulate into the next record's ``gap``.
    """
    if isinstance(source, (str, Path)):
        fh: BinaryIO = _open_read(Path(source))
        close = True
    elif isinstance(source, bytes):
        fh = io.BytesIO(source)
        close = False
    else:
        fh = source
        close = False

    records: List[TraceRecord] = []
    gap = 0
    try:
        while True:
            chunk = fh.read(CHAMPSIM_RECORD.size)
            if not chunk:
                break
            if len(chunk) != CHAMPSIM_RECORD.size:
                raise ValueError("truncated ChampSim record")
            fields = CHAMPSIM_RECORD.unpack(chunk)
            ip = fields[0]
            dmem = fields[8:8 + NUM_INSTR_DESTINATIONS]
            smem = fields[8 + NUM_INSTR_DESTINATIONS:]
            touched = False
            for addr in smem:
                if addr:
                    records.append(TraceRecord(ip, addr, False, gap))
                    gap = 0
                    touched = True
            for addr in dmem:
                if addr:
                    records.append(TraceRecord(ip, addr, True, gap))
                    gap = 0
                    touched = True
            if not touched:
                gap += 1
            if max_records is not None and len(records) >= max_records:
                records = records[:max_records]
                break
    finally:
        if close:
            fh.close()
    return make_trace(name, records, suite="champsim")
