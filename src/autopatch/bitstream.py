"""Binary configuration images and sparse reconfiguration scripts.

An image is header + three lane-major sections: the fan-out matrix (one
out_rows-wide bitfield per lane, at most one bit set), the coefficient
store (one 16-bit word per lane), and the fan-in matrix (mirroring the
fan-out layout over in_rows).  Lane-major layout keeps per-lane updates
byte-aligned.  A delta script is a flat list of absolute set-operations,
one per changed lane-field, so reconfiguration cost scales with the number
of changes instead of the machine size.

The row sections are mostly zero on a large machine.  Encode builds the
image with one `b"".join` of the header, each lane's field and the packed
coefficient words.  A field is one `bytes` per row, made once per call,
or the zero field that every unwired lane shares, so the image is the only
large buffer written: no section is zero-filled first and copied after.
Decode skips all-zero blocks of lanes and looks only at the set bytes.
Decoded coefficients are the shared per-code instances of
`CoefficientCode`, read from two unpacks of the coefficient words, one per
lane range (signed words on the high-res lanes, unsigned on the low-res
lanes above them), and diff compares lanes identity first.  So decode's
and diff's row-field work scales with the wired lanes, not with lanes x
field width, and encode looks each lane's field up once and leaves the
bytes to the join.

Delta records are NamedTuples, packed and unpacked through one `Struct`,
so the delta codec costs in proportion to the ops.  In a reconfiguration
round decoding the row sections costs in proportion to the wired lanes,
and the coefficient words, `apply` with its `validate_config` and the
final encode's lookups to all lanes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from operator import attrgetter
from typing import NamedTuple, Optional

from .machine import CoefficientCode, MachineConfig, MachineSpec, shared_highres, shared_lowres, validate_config

MAGIC = b"ACFG"
DELTA_MAGIC = b"ACDL"
FORMAT_VERSION = 1

NONE_PAYLOAD = 0xFFFF

# Lanes per block when a row section is scanned for set fields.
_SCAN_LANES = 32


class FormatError(Exception):
    def __init__(self, offset: int, reason: str):
        super().__init__(f"offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class SpecMismatchError(Exception):
    pass


class RangeError(Exception):
    """A delta operation references a lane, row, or code outside the spec."""


class ValidationError(Exception):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def _row_field_bytes(rows: int) -> int:
    return (rows + 7) // 8


def image_length(spec: MachineSpec) -> int:
    """Total image size for a machine: 5-byte header plus the three
    lane-major sections."""
    return (
        5
        + spec.n_lanes * _row_field_bytes(spec.out_rows)
        + spec.n_lanes * 2
        + spec.n_lanes * _row_field_bytes(spec.in_rows)
    )


def _encode_row_section(entries, rows: int) -> map:
    """The fields of a row section, lane by lane: one `bytes` per row,
    built once per call, and one zero field that every unwired lane
    shares."""
    width = _row_field_bytes(rows)
    fields = {row: (1 << row).to_bytes(width, "little") for row in set(entries) if row is not None}
    fields[None] = bytes(width)
    return map(fields.__getitem__, entries)


def encode(config: MachineConfig) -> bytes:
    """Serialize a valid configuration to its fixed-length image."""
    spec = config.spec
    return b"".join((
        MAGIC,
        bytes([FORMAT_VERSION]),
        *_encode_row_section(config.u_source, spec.out_rows),
        # a valid code fits a signed word, whose bytes are the code's low 16 bits
        struct.pack(f"<{spec.n_lanes}h", *map(attrgetter("code"), config.coefficients)),
        *_encode_row_section(config.i_dest, spec.in_rows),
    ))


def _decode_row_section(data: bytes, base: int, spec: MachineSpec, rows: int, what: str) -> list[Optional[int]]:
    """Row per lane.  A block of lanes whose fields are all zero is skipped
    with one comparison; in the other blocks the set bytes are found by
    translating the block to a 0/1 mark string and stepping through it.  So
    the work scales with the wired lanes, not with lanes x field width.
    One `find` per set byte suffices: the next set byte is either a second
    row in the same field or the next hit."""
    width = _row_field_bytes(rows)
    block = _SCAN_LANES * width
    zero = bytes(block)
    end = base + spec.n_lanes * width
    entries: list[Optional[int]] = [None] * spec.n_lanes
    for start in range(base, end, max(block, 1)):  # a 0-row section has no bytes
        chunk = data[start:min(start + block, end)]
        if chunk == zero[:len(chunk)]:
            continue
        marks = chunk.translate(b"\x00" + b"\x01" * 255)  # the table is folded at compile time
        at = marks.find(1)
        while at >= 0:
            field = at - at % width
            lane = (start - base + field) // width
            byte = chunk[at]
            following = marks.find(1, at + 1)
            if byte & (byte - 1) or 0 <= following < field + width:
                raise FormatError(start + field, f"lane {lane}: multiple {what} rows selected")
            row = 8 * (at - field) + byte.bit_length() - 1
            if row >= rows:
                raise FormatError(start + field, f"lane {lane}: {what} row {row} outside [0, {rows})")
            entries[lane] = row
            at = following
    return entries


def decode(image: bytes, spec: MachineSpec) -> MachineConfig:
    """Parse an image back into a configuration (the inverse of encode).

    Tap and initial-state annotations are not stored in images, so the
    result carries none.
    """
    expected = image_length(spec)
    if len(image) != expected:
        raise FormatError(0, f"image is {len(image)} bytes, expected {expected}")
    if image[:4] != MAGIC:
        raise FormatError(0, f"bad magic {image[:4]!r}")
    if image[4] != FORMAT_VERSION:
        raise FormatError(4, f"unsupported format version {image[4]}")

    n = spec.n_lanes
    u_base = 5
    c_base = u_base + n * _row_field_bytes(spec.out_rows)
    i_base = c_base + n * 2

    u = _decode_row_section(image, u_base, spec, spec.out_rows, "source")
    d = _decode_row_section(image, i_base, spec, spec.in_rows, "destination")

    # the high-res lanes' signed words, then the low-res lanes' unsigned
    # words above them; each distinct word of a range is resolved once,
    # most often to a hit among the shared instances, and an out-of-range
    # word is reported at the lowest lane that holds one
    coeffs: list[CoefficientCode] = []
    for lanes, word_format, shared, make in (
        (range(spec.lowres_lanes.start), "h", shared_highres, CoefficientCode.highres),
        (spec.lowres_lanes, "H", shared_lowres, CoefficientCode.lowres),
    ):
        words = struct.unpack_from(f"<{len(lanes)}{word_format}", image, c_base + 2 * lanes.start)
        try:
            code_of = {word: shared(word) or make(word) for word in set(words)}
        except ValueError:
            for lane, word in zip(lanes, words):
                try:
                    make(word)
                except ValueError as exc:
                    raise FormatError(c_base + 2 * lane, f"lane {lane}: {exc}") from None
        coeffs += map(code_of.__getitem__, words)

    return MachineConfig(spec=spec, u_source=tuple(u), coefficients=tuple(coeffs), i_dest=tuple(d))


# --------------------------------------------------------------------------
# delta scripts


class OpCode(IntEnum):
    SET_U_SOURCE = 1
    SET_COEFF = 2
    SET_I_DEST = 3


_OPCODES = {op.value: op for op in OpCode}
# the members under module names: on CPython 3.11 looking a member up on the
# enum class costs about 0.1 us, and the delta code names one or more per op
_SET_U_SOURCE, _SET_COEFF, _SET_I_DEST = OpCode.SET_U_SOURCE, OpCode.SET_COEFF, OpCode.SET_I_DEST

# one delta record: opcode byte, lane u16, payload u16
_RECORD = struct.Struct("<BHH")


class DeltaOp(NamedTuple):
    opcode: OpCode
    lane: int
    value: Optional[int]  # row index, None (disconnect), or coefficient code


@dataclass(frozen=True)
class DeltaScript:
    ops: tuple[DeltaOp, ...]


def diff(old: MachineConfig, new: MachineConfig) -> DeltaScript:
    """Minimal reconfiguration script: one op per changed lane-field, in
    ascending lane order (source, coefficient, destination within a lane)."""
    if old.spec != new.spec:
        raise SpecMismatchError("configurations target different machine geometries")
    ops = []
    lanes = zip(old.u_source, old.coefficients, old.i_dest, new.u_source, new.coefficients, new.i_dest)
    for lane, (u0, c0, d0, u1, c1, d1) in enumerate(lanes):
        if u0 is u1 and c0 is c1 and d0 is d1:
            continue
        if u0 != u1:
            ops.append(DeltaOp(_SET_U_SOURCE, lane, u1))
        if c0 is not c1 and c0 != c1:
            ops.append(DeltaOp(_SET_COEFF, lane, c1.code))
        if d0 != d1:
            ops.append(DeltaOp(_SET_I_DEST, lane, d1))
    return DeltaScript(tuple(ops))


def apply(config: MachineConfig, script: DeltaScript) -> MachineConfig:
    """Apply a script transactionally: the updated configuration is
    validated before it is returned, so a partial or invalid state is
    never observable."""
    spec = config.spec
    n_lanes, out_rows, in_rows, lowres_lanes = spec.n_lanes, spec.out_rows, spec.in_rows, spec.lowres_lanes
    u = list(config.u_source)
    c = list(config.coefficients)
    d = list(config.i_dest)
    for opcode, lane, value in script.ops:
        if not 0 <= lane < n_lanes:
            raise RangeError(f"lane {lane} outside [0, {n_lanes})")
        if opcode is _SET_U_SOURCE:
            if value is not None and not 0 <= value < out_rows:
                raise RangeError(f"lane {lane}: source row {value} outside [0, {out_rows})")
            u[lane] = value
        elif opcode is _SET_I_DEST:
            if value is not None and not 0 <= value < in_rows:
                raise RangeError(f"lane {lane}: destination row {value} outside [0, {in_rows})")
            d[lane] = value
        elif opcode is _SET_COEFF:
            if value is None:
                raise RangeError(f"lane {lane}: coefficient op carries no code")
            make = CoefficientCode.lowres if lane in lowres_lanes else CoefficientCode.highres
            try:
                c[lane] = make(value)
            except ValueError as exc:
                raise RangeError(f"lane {lane}: {exc}") from None
        else:
            raise RangeError(f"unknown opcode {opcode}")
    updated = MachineConfig(spec, tuple(u), tuple(c), tuple(d), config.initial_states, config.taps)
    problems = validate_config(updated)
    if problems:
        raise ValidationError(problems)
    return updated


def encode_delta(script: DeltaScript) -> bytes:
    """Serialize a script: magic, version, op count, then fixed-size
    records (opcode byte, lane u16, payload u16; 0xFFFF payload = none)."""
    out = [DELTA_MAGIC, bytes([FORMAT_VERSION]), struct.pack("<I", len(script.ops))]
    pack = _RECORD.pack
    for opcode, lane, value in script.ops:
        if opcode is _SET_COEFF:
            payload = value & 0xFFFF
        else:
            payload = NONE_PAYLOAD if value is None else value
        out.append(pack(opcode, lane, payload))
    return b"".join(out)


def decode_delta(data: bytes) -> DeltaScript:
    if len(data) < 9:
        raise FormatError(0, f"script is {len(data)} bytes, shorter than the 9-byte header")
    if data[:4] != DELTA_MAGIC:
        raise FormatError(0, f"bad magic {data[:4]!r}")
    if data[4] != FORMAT_VERSION:
        raise FormatError(4, f"unsupported format version {data[4]}")
    (count,) = struct.unpack_from("<I", data, 5)
    expected = 9 + count * _RECORD.size
    if len(data) != expected:
        raise FormatError(9, f"script is {len(data)} bytes, expected {expected} for {count} ops")
    ops = []
    for k, (opcode_raw, lane, payload) in enumerate(_RECORD.iter_unpack(data[9:])):
        opcode = _OPCODES.get(opcode_raw)
        if opcode is None:
            raise FormatError(9 + k * _RECORD.size, f"unknown opcode {opcode_raw}")
        if opcode is _SET_COEFF:
            value: Optional[int] = payload - 0x10000 if payload & 0x8000 else payload
        else:
            value = None if payload == NONE_PAYLOAD else payload
        ops.append(DeltaOp(opcode, lane, value))
    return DeltaScript(tuple(ops))
