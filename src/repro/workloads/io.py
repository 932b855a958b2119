"""Trace persistence and interchange.

Two on-disk formats:

* **Native format** (``.rtrc`` / ``.rtrc.gz``, version 3): the four
  columns of a :class:`~repro.workloads.trace.Trace` as little-endian
  blobs behind a JSON header carrying name/seed/suite metadata::

      b"RTRC" | u16 version | u32 header length | header JSON
      | pc: n x u64 | addr: n x u64 | gap: n x u16 | flags: n x u8

  ``flags`` holds bit 0 (write) and bit 1 (dep).  A column is read back
  with one ``frombytes``, and ``.gz`` files use gzip level 1, so a trace
  costs milliseconds to save and load.  Use this to generate once and
  re-run many policy sweeps bit-identically.  Gaps are 16-bit on disk:
  :func:`encode_trace` refuses a gap above :data:`MAX_GAP` with a
  ``ValueError`` naming the record, rather than clamping it.  A file of
  another version (v2 held one 19-byte struct per record) is refused
  with a ``ValueError`` that names its version.

  The layout is generic — magic, version, a JSON header, then typed
  little-endian columns — and :func:`pack_columns` / :func:`unpack_columns`
  also read and write the committed GAP graph files
  (:mod:`repro.workloads.graphs`).
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
import sys
from array import array
from pathlib import Path
from typing import (Any, BinaryIO, Callable, Dict, Iterable, List,
                    Sequence, Tuple, Union)

from .trace import Trace

_MAGIC = b"RTRC"
_VERSION = 3
#: magic, then u16 version and u32 header length
_PREAMBLE = struct.Struct("<4sHI")
#: ``.gz`` compression level: the trace cache writes every trace it
#: generates, and gzip's default level 9 spends far more time than the
#: bytes it saves are worth
_COMPRESS_LEVEL = 1
#: largest gap the format stores (its gap column is u16)
MAX_GAP = 0xFFFF
#: on-disk column types, in file order; ``gap`` widens to the in-memory
#: ``array('I')`` on load
_DISK_TYPES = ("Q", "Q", "H", "B")
#: columns are little-endian on disk
_SWAP = sys.byteorder != "little"


# ----------------------------------------------------------------------
# Column blobs
# ----------------------------------------------------------------------

def pack_columns(magic: bytes, version: int, header: Dict[str, Any],
                 columns: Sequence[array]) -> bytes:
    """``columns`` behind ``magic``, ``version`` and ``header`` (as
    JSON), each column's items little-endian, uncompressed."""
    if _SWAP:
        columns = [array(col.typecode, col) for col in columns]
        for col in columns:
            col.byteswap()
    meta = json.dumps(header).encode()
    return b"".join([_PREAMBLE.pack(magic, version, len(meta)), meta]
                    + [col.tobytes() for col in columns])


def unpack_columns(raw: bytes, magic: bytes, version: int, source: Any,
                   what: str,
                   layout: Callable[[Dict[str, Any]], Sequence[Tuple[str, int]]]
                   ) -> Tuple[Dict[str, Any], List[array]]:
    """The header and columns of a :func:`pack_columns` blob, gzipped or
    not; ``layout(header)`` gives each column's typecode and length, and
    each column is read with one ``frombytes``.  ``ValueError`` naming
    ``source`` on the wrong magic or version, or a size the header does
    not promise."""
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    if len(raw) < _PREAMBLE.size or raw[:4] != magic:
        raise ValueError(f"{source}: not a native {what} file")
    _magic, found, header_len = _PREAMBLE.unpack_from(raw)
    if found != version:
        raise ValueError(f"{source}: unsupported {what} version {found} "
                         f"(this reader takes version {version})")
    pos = _PREAMBLE.size + header_len
    header = json.loads(raw[_PREAMBLE.size:pos])
    shape = [(array(code), n) for code, n in layout(header)]
    size = pos + sum(col.itemsize * n for col, n in shape)
    if len(raw) != size:
        raise ValueError(f"{source}: truncated or padded: the header "
                         f"promises {size} bytes, found {len(raw)} bytes")
    view = memoryview(raw)
    for col, n in shape:
        end = pos + n * col.itemsize
        col.frombytes(view[pos:end])
        if _SWAP:
            col.byteswap()
        pos = end
    return header, [col for col, _n in shape]


# ----------------------------------------------------------------------
# Native format
# ----------------------------------------------------------------------

def _open_read(path: Path) -> BinaryIO:
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _narrow_gaps(trace: Trace) -> array:
    """``trace.gap`` as the on-disk u16 column, or ``ValueError`` naming
    the first record whose gap does not fit."""
    try:
        return array("H", trace.gap)
    except OverflowError:
        i = next(i for i, gap in enumerate(trace.gap) if gap > MAX_GAP)
        raise ValueError(
            f"{trace.name}: record {i} {trace[i]} has a gap above "
            f"{MAX_GAP}, which the trace format cannot store") from None


def encode_trace(trace: Trace, compress: bool = True) -> bytes:
    """``trace`` in the native binary format, gzipped unless
    ``compress`` is false (``mtime=0``: the bytes depend only on the
    trace).  ``ValueError`` if a gap exceeds :data:`MAX_GAP`."""
    raw = pack_columns(_MAGIC, _VERSION, {
        "name": trace.name, "seed": trace.seed, "suite": trace.suite,
        "records": len(trace),
    }, [trace.pc, trace.addr, _narrow_gaps(trace), trace.flags])
    if compress:
        return gzip.compress(raw, compresslevel=_COMPRESS_LEVEL, mtime=0)
    return raw


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace in the native binary format (gzip if ``.gz``)."""
    path = Path(path)
    path.write_bytes(encode_trace(trace, compress=path.suffix == ".gz"))


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    meta, (pc, addr, gap, flags) = unpack_columns(
        Path(path).read_bytes(), _MAGIC, _VERSION, path, "trace",
        lambda meta: [(code, meta["records"]) for code in _DISK_TYPES])
    return Trace.from_columns(meta["name"], pc, addr, array("I", gap),
                              flags, seed=meta["seed"], suite=meta["suite"])


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

    trace = Trace(name, suite="champsim")
    gap = 0
    try:
        while max_records is None or len(trace) < max_records:
            chunk = fh.read(CHAMPSIM_RECORD.size)
            if not chunk:
                break
            if len(chunk) != CHAMPSIM_RECORD.size:
                raise ValueError("truncated ChampSim record")
            fields = CHAMPSIM_RECORD.unpack(chunk)
            ip = fields[0]
            dmem = fields[8:8 + NUM_INSTR_DESTINATIONS]
            smem = fields[8 + NUM_INSTR_DESTINATIONS:]
            operands = ([(addr, False) for addr in smem if addr]
                        + [(addr, True) for addr in dmem if addr])
            if not operands:
                gap += 1
            for addr, is_write in operands:
                if max_records is not None and len(trace) >= max_records:
                    break
                trace.append(ip, addr, is_write, gap)
                gap = 0
    finally:
        if close:
            fh.close()
    return trace
