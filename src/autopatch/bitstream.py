"""Binary configuration images and sparse reconfiguration scripts.

An image is header + three lane-major sections: the fan-out matrix (one
out_rows-wide bitfield per lane, at most one bit set), the coefficient
store (one 16-bit word per lane), and the fan-in matrix (mirroring the
fan-out layout over in_rows).  Lane-major layout keeps per-lane updates
byte-aligned.  A delta script is a flat list of absolute set-operations,
one per changed lane-field, so reconfiguration cost scales with the number
of changes instead of the machine size.

The row sections are mostly zero on a large machine, so encode stores one
byte per wired lane into a zeroed buffer, and decode skips all-zero blocks
of lanes and looks only at the set bytes.  Decoded coefficients are the
shared per-code instances of `CoefficientCode`, read from one unpack of
the coefficient words, and diff compares lanes identity first.  So the
row-field work scales with the wired lanes, not with lanes x field width.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from enum import IntEnum
from operator import attrgetter
from typing import Optional

from .machine import (
    CoefficientCode,
    HIGHRES_MAX,
    HIGHRES_MIN,
    MachineConfig,
    MachineSpec,
    validate_config,
)

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


def _encode_row_section(entries, rows: int) -> bytearray:
    width = _row_field_bytes(rows)
    section = bytearray(len(entries) * width)
    for lane, row in enumerate(entries):
        if row is not None:
            section[lane * width + (row >> 3)] = 1 << (row & 7)
    return section


def encode(config: MachineConfig) -> bytes:
    """Serialize a valid configuration to its fixed-length image."""
    spec = config.spec
    return b"".join((
        MAGIC,
        bytes([FORMAT_VERSION]),
        _encode_row_section(config.u_source, spec.out_rows),
        # a valid code fits a signed word, whose bytes are the code's low 16 bits
        struct.pack(f"<{spec.n_lanes}h", *map(attrgetter("code"), config.coefficients)),
        _encode_row_section(config.i_dest, spec.in_rows),
    ))


def _decode_row_section(data: bytes, base: int, spec: MachineSpec, rows: int, what: str) -> list[Optional[int]]:
    """Row per lane.  A block of lanes whose fields are all zero is skipped
    with one comparison; in the other blocks the set bytes are found by
    translating the block to a 0/1 mark string and stepping through it.  So
    the work scales with the wired lanes, not with lanes x field width."""
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
            if byte & (byte - 1) or marks.find(1, at + 1, field + width) >= 0:
                raise FormatError(start + field, f"lane {lane}: multiple {what} rows selected")
            row = 8 * (at - field) + byte.bit_length() - 1
            if row >= rows:
                raise FormatError(start + field, f"lane {lane}: {what} row {row} outside [0, {rows})")
            entries[lane] = row
            at = marks.find(1, field + width)
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

    # one shared code per distinct word; None marks a word outside the lane's range
    words = struct.unpack_from(f"<{n}H", image, c_base)
    distinct = set(words)
    highres = {}
    for word in distinct:
        code = word - 0x10000 if word & 0x8000 else word
        if HIGHRES_MIN <= code <= HIGHRES_MAX:
            highres[word] = CoefficientCode.highres(code)
    lowres = [CoefficientCode.lowres(code) for code in range(8)]
    coeffs = list(map(highres.get, words))
    valid = len(highres) == len(distinct)
    for lane in spec.lowres_lanes:
        word = words[lane]
        if word <= 7:
            coeffs[lane] = lowres[word]
        else:
            coeffs[lane] = None
            valid = False
    if not valid:
        lane = next(k for k, code in enumerate(coeffs) if code is None)
        word = words[lane]
        offset = c_base + lane * 2
        if lane in spec.lowres_lanes:
            raise FormatError(offset, f"lane {lane}: low-res code {word} outside [0, 7]")
        code = word - 0x10000 if word & 0x8000 else word
        raise FormatError(offset, f"lane {lane}: high-res code {code} outside [{HIGHRES_MIN}, {HIGHRES_MAX}]")

    return MachineConfig(spec=spec, u_source=tuple(u), coefficients=tuple(coeffs), i_dest=tuple(d))


# --------------------------------------------------------------------------
# delta scripts


class OpCode(IntEnum):
    SET_U_SOURCE = 1
    SET_COEFF = 2
    SET_I_DEST = 3


@dataclass(frozen=True)
class DeltaOp:
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
            ops.append(DeltaOp(OpCode.SET_U_SOURCE, lane, u1))
        if c0 is not c1 and c0 != c1:
            ops.append(DeltaOp(OpCode.SET_COEFF, lane, c1.code))
        if d0 != d1:
            ops.append(DeltaOp(OpCode.SET_I_DEST, lane, d1))
    return DeltaScript(tuple(ops))


def apply(config: MachineConfig, script: DeltaScript) -> MachineConfig:
    """Apply a script transactionally: the updated configuration is
    validated before it is returned, so a partial or invalid state is
    never observable."""
    spec = config.spec
    u = list(config.u_source)
    c = list(config.coefficients)
    d = list(config.i_dest)
    for op in script.ops:
        if not 0 <= op.lane < spec.n_lanes:
            raise RangeError(f"lane {op.lane} outside [0, {spec.n_lanes})")
        if op.opcode is OpCode.SET_U_SOURCE:
            if op.value is not None and not 0 <= op.value < spec.out_rows:
                raise RangeError(f"lane {op.lane}: source row {op.value} outside [0, {spec.out_rows})")
            u[op.lane] = op.value
        elif op.opcode is OpCode.SET_I_DEST:
            if op.value is not None and not 0 <= op.value < spec.in_rows:
                raise RangeError(f"lane {op.lane}: destination row {op.value} outside [0, {spec.in_rows})")
            d[op.lane] = op.value
        elif op.opcode is OpCode.SET_COEFF:
            if op.value is None:
                raise RangeError(f"lane {op.lane}: coefficient op carries no code")
            if op.lane in spec.lowres_lanes:
                if not 0 <= op.value <= 7:
                    raise RangeError(f"lane {op.lane}: low-res code {op.value} outside [0, 7]")
                c[op.lane] = CoefficientCode.lowres(op.value)
            else:
                if not HIGHRES_MIN <= op.value <= HIGHRES_MAX:
                    raise RangeError(
                        f"lane {op.lane}: high-res code {op.value} outside [{HIGHRES_MIN}, {HIGHRES_MAX}]"
                    )
                c[op.lane] = CoefficientCode.highres(op.value)
        else:
            raise RangeError(f"unknown opcode {op.opcode}")
    updated = replace(config, u_source=tuple(u), coefficients=tuple(c), i_dest=tuple(d))
    problems = validate_config(updated)
    if problems:
        raise ValidationError(problems)
    return updated


def encode_delta(script: DeltaScript) -> bytes:
    """Serialize a script: magic, version, op count, then fixed-size
    records (opcode byte, lane u16, payload u16; 0xFFFF payload = none)."""
    out = [DELTA_MAGIC, bytes([FORMAT_VERSION]), struct.pack("<I", len(script.ops))]
    for op in script.ops:
        if op.opcode is OpCode.SET_COEFF:
            payload = op.value & 0xFFFF
        else:
            payload = NONE_PAYLOAD if op.value is None else op.value
        out.append(struct.pack("<BHH", op.opcode, op.lane, payload))
    return b"".join(out)


def decode_delta(data: bytes) -> DeltaScript:
    if len(data) < 9:
        raise FormatError(0, f"script is {len(data)} bytes, shorter than the 9-byte header")
    if data[:4] != DELTA_MAGIC:
        raise FormatError(0, f"bad magic {data[:4]!r}")
    if data[4] != FORMAT_VERSION:
        raise FormatError(4, f"unsupported format version {data[4]}")
    (count,) = struct.unpack_from("<I", data, 5)
    expected = 9 + count * 5
    if len(data) != expected:
        raise FormatError(9, f"script is {len(data)} bytes, expected {expected} for {count} ops")
    ops = []
    for k in range(count):
        offset = 9 + k * 5
        opcode_raw, lane, payload = struct.unpack_from("<BHH", data, offset)
        try:
            opcode = OpCode(opcode_raw)
        except ValueError:
            raise FormatError(offset, f"unknown opcode {opcode_raw}") from None
        if opcode is OpCode.SET_COEFF:
            value: Optional[int] = payload - 0x10000 if payload & 0x8000 else payload
        else:
            value = None if payload == NONE_PAYLOAD else payload
        ops.append(DeltaOp(opcode, lane, value))
    return DeltaScript(tuple(ops))
