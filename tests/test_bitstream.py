import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import support
from autopatch.bitstream import (
    DeltaOp,
    DeltaScript,
    FormatError,
    OpCode,
    RangeError,
    SpecMismatchError,
    ValidationError,
    apply,
    decode,
    decode_delta,
    diff,
    encode,
    encode_delta,
    image_length,
)
from autopatch.circuit import build_circuit, normalize
from autopatch.dsl import compile_source
from autopatch.machine import (
    CoefKind,
    CoefficientCode,
    MachineConfig,
    MachineSpec,
    lucidac_spec,
    redac_tile_spec,
    validate_config,
)
from autopatch.router import route_design


class TestImage:
    def test_small_profile_length(self):
        # 5-byte header + 32 lanes x (2 bytes U + 2 bytes C + 2 bytes I)
        assert image_length(lucidac_spec()) == 197

    def test_empty_config_is_header_plus_zeros(self):
        image = encode(MachineConfig.empty(lucidac_spec()))
        assert len(image) == 197
        assert image[:5] == b"ACFG\x01"
        assert image[5:] == bytes(192)

    def test_roundtrip_lorenz(self, lorenz_design):
        config = lorenz_design.config
        assert decode(encode(config), config.spec) == config

    def test_roundtrip_random_configs(self):
        rng = random.Random(99)
        spec = lucidac_spec()
        for _ in range(100):
            config = support.random_config(spec, rng)
            assert decode(encode(config), spec) == config

    def test_encode_injective_on_distinct_configs(self):
        spec = lucidac_spec()
        rng = random.Random(3)
        images = {encode(support.random_config(spec, rng)) for _ in range(50)}
        configs = {decode(img, spec) for img in images}
        assert len(images) == len(configs)

    def test_truncated_image(self):
        image = encode(MachineConfig.empty(lucidac_spec()))
        with pytest.raises(FormatError, match="expected 197"):
            decode(image[:-1], lucidac_spec())

    def test_bad_magic(self):
        image = bytearray(encode(MachineConfig.empty(lucidac_spec())))
        image[0] = ord("X")
        with pytest.raises(FormatError, match="magic"):
            decode(bytes(image), lucidac_spec())

    def test_bad_version(self):
        image = bytearray(encode(MachineConfig.empty(lucidac_spec())))
        image[4] = 9
        with pytest.raises(FormatError, match="version"):
            decode(bytes(image), lucidac_spec())

    def test_multi_source_lane_rejected(self):
        image = bytearray(encode(MachineConfig.empty(lucidac_spec())))
        image[5] = 0b_0000_0011  # two bits in lane 0's fan-out field
        with pytest.raises(FormatError, match="multiple source rows"):
            decode(bytes(image), lucidac_spec())

    def test_row_bit_beyond_row_count_rejected(self):
        spec = MachineSpec(8, 4, 32)
        image = bytearray(encode(MachineConfig.empty(spec)))
        image[6] = 0x80  # bit 15 of lane 0, but out_rows is 13
        with pytest.raises(FormatError, match="row 15"):
            decode(bytes(image), spec)

    def test_lowres_code_out_of_range_rejected(self):
        spec = lucidac_spec()
        image = bytearray(encode(MachineConfig.empty(spec)))
        c_base = 5 + 32 * 2
        image[c_base + 24 * 2] = 9  # lane 24 is low-res; 9 > 7
        with pytest.raises(FormatError, match="low-res code 9"):
            decode(bytes(image), spec)

    def test_highres_code_out_of_range_rejected(self):
        spec = lucidac_spec()
        image = bytearray(encode(MachineConfig.empty(spec)))
        c_base = 5 + 32 * 2
        image[c_base + 1] = 0x09  # lane 0 word 0x0900 = 2304 > 2047
        with pytest.raises(FormatError, match="high-res code 2304"):
            decode(bytes(image), spec)

    def test_negative_code_roundtrip(self):
        spec = lucidac_spec()
        config = support.with_lanes(MachineConfig.empty(spec), (3, 1, CoefficientCode.highres(-2048), 2))
        assert decode(encode(config), spec) == config


@st.composite
def _configs(draw):
    spec = lucidac_spec()
    u, c, d = [], [], []
    for lane in range(spec.n_lanes):
        if draw(st.booleans()):
            u.append(draw(st.integers(0, spec.out_rows - 1)))
            d.append(draw(st.integers(0, spec.in_rows - 1)))
            if lane in spec.lowres_lanes:
                c.append(CoefficientCode.lowres(draw(st.integers(0, 7))))
            else:
                c.append(CoefficientCode.highres(draw(st.integers(-2048, 2047))))
        else:
            u.append(None)
            d.append(None)
            low = lane in spec.lowres_lanes
            c.append(CoefficientCode.lowres(0) if low else CoefficientCode.highres(0))
    return MachineConfig(spec=spec, u_source=tuple(u), coefficients=tuple(c), i_dest=tuple(d))


@given(_configs())
@settings(max_examples=80, deadline=None)
def test_roundtrip_property(config):
    assert decode(encode(config), config.spec) == config


@given(_configs(), _configs())
@settings(max_examples=80, deadline=None)
def test_delta_property(a, b):
    script = diff(a, b)
    assert encode(apply(a, script)) == encode(b)
    assert decode_delta(encode_delta(script)) == script


class TestDiffApply:
    def test_identical_configs_empty_script(self, lorenz_design):
        assert diff(lorenz_design.config, lorenz_design.config).ops == ()

    def test_single_coefficient_change_is_one_op(self, lorenz_design):
        config = lorenz_design.config
        changed = support.with_lanes(config, (0, config.u_source[0], CoefficientCode.highres(777), config.i_dest[0]))
        script = diff(config, changed)
        assert script.ops == (DeltaOp(OpCode.SET_COEFF, 0, 777),)

    def test_empty_to_lorenz_is_33_ops(self, lorenz_design):
        script = diff(MachineConfig.empty(lucidac_spec()), lorenz_design.config)
        assert len(script.ops) == 33  # 11 active lanes x 3 fields

    def test_spec_mismatch(self):
        with pytest.raises(SpecMismatchError):
            diff(MachineConfig.empty(lucidac_spec()), MachineConfig.empty(redac_tile_spec()))

    def test_apply_empty_script_is_identity(self, lorenz_design):
        assert apply(lorenz_design.config, DeltaScript(())) == lorenz_design.config

    def test_apply_diff_reaches_target(self, lorenz_design):
        rng = random.Random(4242)
        spec = lucidac_spec()
        for _ in range(50):
            a = support.random_config(spec, rng)
            b = support.random_config(spec, rng)
            assert encode(apply(a, diff(a, b))) == encode(b)

    def test_sparsity_counts_changed_fields(self):
        rng = random.Random(11)
        spec = lucidac_spec()
        for _ in range(25):
            a = support.random_config(spec, rng)
            b = support.random_config(spec, rng)
            changed = 0
            for lane in range(spec.n_lanes):
                changed += a.u_source[lane] != b.u_source[lane]
                changed += a.coefficients[lane] != b.coefficients[lane]
                changed += a.i_dest[lane] != b.i_dest[lane]
            assert len(diff(a, b).ops) == changed

    def test_lowres_code_range_checked(self):
        config = MachineConfig.empty(lucidac_spec())
        with pytest.raises(RangeError, match="low-res code 9"):
            apply(config, DeltaScript((DeltaOp(OpCode.SET_COEFF, 24, 9),)))

    def test_lane_range_checked(self):
        config = MachineConfig.empty(lucidac_spec())
        with pytest.raises(RangeError, match="lane 32"):
            apply(config, DeltaScript((DeltaOp(OpCode.SET_COEFF, 32, 0),)))

    def test_row_range_checked(self):
        config = MachineConfig.empty(lucidac_spec())
        with pytest.raises(RangeError, match="source row 16"):
            apply(config, DeltaScript((DeltaOp(OpCode.SET_U_SOURCE, 0, 16),)))

    def test_dangling_result_rejected_atomically(self):
        config = MachineConfig.empty(lucidac_spec())
        with pytest.raises(ValidationError, match="dangling"):
            apply(config, DeltaScript((DeltaOp(OpCode.SET_U_SOURCE, 0, 1),)))
        # the input is untouched (functional update)
        assert config == MachineConfig.empty(lucidac_spec())

    def test_apply_validates_lanes_the_script_leaves_alone(self):
        # decode accepts a dangling lane; apply re-checks every lane, so an
        # empty script does not pass the invalid image on
        spec = lucidac_spec()
        dangling = support.with_lanes(MachineConfig.empty(spec), (3, 1, CoefficientCode.highres(0), None))
        decoded = decode(encode(dangling), spec)
        script = diff(decoded, decoded)
        assert script.ops == ()
        with pytest.raises(ValidationError, match=r"^lane 3: dangling lane \(source but no destination\)$"):
            apply(decoded, script)

    def test_annotations_survive_apply(self, lorenz_design):
        config = lorenz_design.config
        updated = apply(config, DeltaScript((DeltaOp(OpCode.SET_COEFF, 0, 100),)))
        assert updated.taps == config.taps
        assert updated.initial_states == config.initial_states


class TestCodeRangeTexts:
    """The exact code-range diagnostics of decode and apply on lucidac,
    whose lanes 24-31 are low-res."""

    @pytest.mark.parametrize(
        "lane, word, text",
        [
            (31, 0x8001, "offset 131: lane 31: low-res code 32769 outside [0, 7]"),
            (0, 0xF000, "offset 69: lane 0: high-res code -4096 outside [-2048, 2047]"),
        ],
    )
    def test_decode(self, lane, word, text):
        spec = lucidac_spec()
        image = bytearray(encode(MachineConfig.empty(spec)))
        struct.pack_into("<H", image, 5 + 32 * 2 + 2 * lane, word)
        with pytest.raises(FormatError) as info:
            decode(bytes(image), spec)
        assert str(info.value) == text

    @pytest.mark.parametrize(
        "lane, code, text",
        [
            (31, 8, "lane 31: low-res code 8 outside [0, 7]"),
            (31, -1, "lane 31: low-res code -1 outside [0, 7]"),
            (0, 2048, "lane 0: high-res code 2048 outside [-2048, 2047]"),
            (0, -2049, "lane 0: high-res code -2049 outside [-2048, 2047]"),
        ],
    )
    def test_apply(self, lane, code, text):
        config = MachineConfig.empty(lucidac_spec())
        with pytest.raises(RangeError) as info:
            apply(config, DeltaScript((DeltaOp(OpCode.SET_COEFF, lane, code),)))
        assert str(info.value) == text


class TestDeltaWireFormat:
    def test_header_and_length(self):
        script = DeltaScript((DeltaOp(OpCode.SET_COEFF, 5, -1),))
        data = encode_delta(script)
        assert data[:5] == b"ACDL\x01"
        assert len(data) == 9 + 5

    def test_roundtrip_with_negative_code_and_none(self):
        script = DeltaScript(
            (
                DeltaOp(OpCode.SET_U_SOURCE, 3, None),
                DeltaOp(OpCode.SET_COEFF, 3, -1),       # wire 0xFFFF, but a code
                DeltaOp(OpCode.SET_COEFF, 0, -2048),
                DeltaOp(OpCode.SET_I_DEST, 7, 15),
            )
        )
        assert decode_delta(encode_delta(script)) == script

    def test_diff_scripts_roundtrip(self, lorenz_design):
        script = diff(MachineConfig.empty(lucidac_spec()), lorenz_design.config)
        assert decode_delta(encode_delta(script)) == script

    def test_truncated_script(self):
        data = encode_delta(DeltaScript((DeltaOp(OpCode.SET_COEFF, 0, 1),)))
        with pytest.raises(FormatError, match="expected"):
            decode_delta(data[:-2])

    def test_bad_opcode(self):
        data = bytearray(encode_delta(DeltaScript((DeltaOp(OpCode.SET_COEFF, 0, 1),))))
        data[9] = 0x77
        with pytest.raises(FormatError, match="opcode"):
            decode_delta(bytes(data))

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            decode_delta(b"WHAT\x01\x00\x00\x00\x00")


class TestDeltaOpRecord:
    def test_repr(self):
        op = DeltaOp(OpCode.SET_COEFF, 0, 777)
        assert repr(op) == "DeltaOp(opcode=<OpCode.SET_COEFF: 2>, lane=0, value=777)"
        assert repr(decode_delta(encode_delta(DeltaScript((op,)))).ops[0]) == repr(op)
        script = DeltaScript((op, DeltaOp(OpCode.SET_I_DEST, 2, None)))
        assert repr(script) == (
            "DeltaScript(ops=(DeltaOp(opcode=<OpCode.SET_COEFF: 2>, lane=0, value=777), "
            "DeltaOp(opcode=<OpCode.SET_I_DEST: 3>, lane=2, value=None)))"
        )

    def test_equal_ops_hash_equal(self):
        a, b = DeltaOp(OpCode.SET_I_DEST, 7, None), DeltaOp(OpCode.SET_I_DEST, 7, None)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, DeltaOp(OpCode.SET_I_DEST, 7, 0)}) == 2

    @pytest.mark.parametrize("name", ["opcode", "lane", "value"])
    def test_fields_are_read_only(self, name):
        op = DeltaOp(OpCode.SET_U_SOURCE, 1, 2)
        with pytest.raises(AttributeError):
            setattr(op, name, 3)
        assert op == DeltaOp(OpCode.SET_U_SOURCE, 1, 2)


# --------------------------------------------------------------------------
# parity with the lane-by-lane codec
#
# Test-local copies of the codec as it was before decode, encode and diff
# learned to skip unwired lanes and to share coefficient codes, and of the
# delta codec and apply as they were before delta records became tuples
# packed through one Struct.  The properties below require the same bytes,
# the same configurations and scripts, and the same FormatError (offset and
# reason) on malformed images, and the same exception (class, text and
# offset) from the delta path on malformed scripts.


def _loop_row_section_bytes(rows):
    return (rows + 7) // 8


def loop_encode(config):
    def row_section(entries, rows):
        width = _loop_row_section_bytes(rows)
        return b"".join((0 if row is None else 1 << row).to_bytes(width, "little") for row in entries)

    spec = config.spec
    return b"".join([
        b"ACFG",
        bytes([1]),
        row_section(config.u_source, spec.out_rows),
        struct.pack(f"<{spec.n_lanes}H", *(c.code & 0xFFFF for c in config.coefficients)),
        row_section(config.i_dest, spec.in_rows),
    ])


def loop_decode_row_section(data, base, spec, rows, what):
    width = _loop_row_section_bytes(rows)
    entries = []
    for lane in range(spec.n_lanes):
        offset = base + lane * width
        value = int.from_bytes(data[offset:offset + width], "little")
        if value == 0:
            entries.append(None)
            continue
        if value & (value - 1):
            raise FormatError(offset, f"lane {lane}: multiple {what} rows selected")
        row = value.bit_length() - 1
        if row >= rows:
            raise FormatError(offset, f"lane {lane}: {what} row {row} outside [0, {rows})")
        entries.append(row)
    return entries


def loop_decode(image, spec):
    expected = image_length(spec)
    if len(image) != expected:
        raise FormatError(0, f"image is {len(image)} bytes, expected {expected}")
    if image[:4] != b"ACFG":
        raise FormatError(0, f"bad magic {image[:4]!r}")
    if image[4] != 1:
        raise FormatError(4, f"unsupported format version {image[4]}")
    u_base = 5
    c_base = u_base + spec.n_lanes * _loop_row_section_bytes(spec.out_rows)
    i_base = c_base + spec.n_lanes * 2
    u = loop_decode_row_section(image, u_base, spec, spec.out_rows, "source")
    d = loop_decode_row_section(image, i_base, spec, spec.in_rows, "destination")
    coeffs = []
    for lane in range(spec.n_lanes):
        offset = c_base + lane * 2
        (word,) = struct.unpack_from("<H", image, offset)
        if lane in spec.lowres_lanes:
            if word > 7:
                raise FormatError(offset, f"lane {lane}: low-res code {word} outside [0, 7]")
            coeffs.append(CoefficientCode(CoefKind.LOW_RES, word))
        else:
            code = word - 0x10000 if word & 0x8000 else word
            if not -2048 <= code <= 2047:
                raise FormatError(offset, f"lane {lane}: high-res code {code} outside [-2048, 2047]")
            coeffs.append(CoefficientCode(CoefKind.HIGH_RES, code))
    return MachineConfig(spec=spec, u_source=tuple(u), coefficients=tuple(coeffs), i_dest=tuple(d))


def loop_diff(old, new):
    ops = []
    for lane in range(old.spec.n_lanes):
        if old.u_source[lane] != new.u_source[lane]:
            ops.append(DeltaOp(OpCode.SET_U_SOURCE, lane, new.u_source[lane]))
        if old.coefficients[lane] != new.coefficients[lane]:
            ops.append(DeltaOp(OpCode.SET_COEFF, lane, new.coefficients[lane].code))
        if old.i_dest[lane] != new.i_dest[lane]:
            ops.append(DeltaOp(OpCode.SET_I_DEST, lane, new.i_dest[lane]))
    return DeltaScript(tuple(ops))


def loop_apply(config, script):
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
            make = CoefficientCode.lowres if op.lane in spec.lowres_lanes else CoefficientCode.highres
            try:
                code = make(op.value)
            except ValueError as exc:
                raise RangeError(f"lane {op.lane}: {exc}") from None
            c[op.lane] = code
        else:
            raise RangeError(f"unknown opcode {op.opcode}")
    updated = dataclasses.replace(config, u_source=tuple(u), coefficients=tuple(c), i_dest=tuple(d))
    problems = validate_config(updated)
    if problems:
        raise ValidationError(problems)
    return updated


def loop_encode_delta(script):
    out = [b"ACDL", bytes([1]), struct.pack("<I", len(script.ops))]
    for op in script.ops:
        if op.opcode is OpCode.SET_COEFF:
            payload = op.value & 0xFFFF
        else:
            payload = 0xFFFF if op.value is None else op.value
        out.append(struct.pack("<BHH", op.opcode, op.lane, payload))
    return b"".join(out)


def loop_decode_delta(data):
    if len(data) < 9:
        raise FormatError(0, f"script is {len(data)} bytes, shorter than the 9-byte header")
    if data[:4] != b"ACDL":
        raise FormatError(0, f"bad magic {data[:4]!r}")
    if data[4] != 1:
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
            value = payload - 0x10000 if payload & 0x8000 else payload
        else:
            value = None if payload == 0xFFFF else payload
        ops.append(DeltaOp(opcode, lane, value))
    return DeltaScript(tuple(ops))


# small custom machines: row counts on both sides of a multiple of 8 (and 0
# input rows), a low-res top quarter from 4 lanes up, 0-3 reserved rows
_small_specs = st.builds(MachineSpec, st.integers(0, 12), st.integers(0, 6), st.integers(0, 40), st.integers(0, 3))


@st.composite
def _small_config(draw, spec):
    """A valid configuration; each code is drawn either as the shared
    instance or as a fresh one, so diff sees both kinds of equal codes."""
    u, c, d = [], [], []
    for lane in range(spec.n_lanes):
        kind = CoefKind.LOW_RES if lane in spec.lowres_lanes else CoefKind.HIGH_RES
        code = 0
        if spec.in_rows and draw(st.booleans()):
            u.append(draw(st.integers(0, spec.out_rows - 1)))
            d.append(draw(st.integers(0, spec.in_rows - 1)))
            code = draw(st.integers(0, 7) if kind is CoefKind.LOW_RES else st.integers(-2048, 2047))
        else:
            u.append(None)
            d.append(None)
        if draw(st.booleans()):
            c.append(CoefficientCode(kind, code))
        elif kind is CoefKind.LOW_RES:
            c.append(CoefficientCode.lowres(code))
        else:
            c.append(CoefficientCode.highres(code))
    return MachineConfig(spec=spec, u_source=tuple(u), coefficients=tuple(c), i_dest=tuple(d))


@st.composite
def _spec_and_configs(draw, count):
    spec = draw(_small_specs)
    return (spec,) + tuple(draw(_small_config(spec)) for _ in range(count))


def _outcome(fn, *args, errors=FormatError):
    """What a call returns (a configuration with its annotations), or the
    class, text and offset of one of the `errors` it raises; any other
    exception propagates and fails the test."""
    try:
        out = fn(*args)
    except errors as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    if isinstance(out, MachineConfig):
        return out, out.initial_states, out.taps
    return out


@st.composite
def _mutated_images(draw):
    """An encoded configuration with one to three faults: a set bit
    anywhere (an extra row in a lane, a bad coefficient word, a bad magic
    byte), a padding bit past `rows`, an arbitrary coefficient word or
    version byte, or a wrong length."""
    spec, config = draw(_spec_and_configs(1))
    image = bytearray(loop_encode(config))
    u_width = _loop_row_section_bytes(spec.out_rows)
    c_base = 5 + spec.n_lanes * u_width
    i_base = c_base + 2 * spec.n_lanes
    sections = ((5, u_width, spec.out_rows), (i_base, _loop_row_section_bytes(spec.in_rows), spec.in_rows))
    faults = draw(st.lists(st.sampled_from(["bit", "bit", "padding", "word", "version", "length"]), min_size=1, max_size=3))
    # a wrong length goes last: the other faults index the image at fixed offsets
    for fault in sorted(faults, key=lambda fault: fault == "length"):
        if fault == "bit":
            at = draw(st.integers(0, len(image) - 1))
            image[at] |= 1 << draw(st.integers(0, 7))
        elif fault == "padding" and spec.n_lanes:
            base, width, rows = draw(st.sampled_from(sections))
            if rows % 8:
                bit = draw(st.integers(rows, 8 * width - 1))
                at = base + draw(st.integers(0, spec.n_lanes - 1)) * width + bit // 8
                image[at] |= 1 << bit % 8
        elif fault == "word" and spec.n_lanes:
            lane = draw(st.integers(0, spec.n_lanes - 1))
            struct.pack_into("<H", image, c_base + 2 * lane, draw(st.integers(0, 0xFFFF)))
        elif fault == "version":
            image[4] = draw(st.integers(0, 255))
        elif fault == "length":
            cut = draw(st.integers(-3, 3).filter(bool))
            image = image[:cut] if cut < 0 else image + bytes(cut)
    return spec, bytes(image)


@st.composite
def _delta_bytes(draw):
    """Random bytes, a well-formed header over random records, or the
    encoding of a real script with bits set, words rewritten or the
    length changed."""
    kind = draw(st.sampled_from(["random", "records", "mutated"]))
    if kind == "random":
        return draw(st.binary(max_size=40))
    if kind == "records":
        count = draw(st.integers(0, 6))
        return b"ACDL\x01" + struct.pack("<I", count) + draw(st.binary(min_size=5 * count, max_size=5 * count))
    _, a, b = draw(_spec_and_configs(2))
    data = bytearray(encode_delta(diff(a, b)))
    faults = draw(st.lists(st.sampled_from(["bit", "word", "length"]), min_size=1, max_size=3))
    # a wrong length goes last, so the other faults see at least the header
    for fault in sorted(faults, key=lambda fault: fault == "length"):
        if fault == "bit":
            at = draw(st.integers(0, len(data) - 1))
            data[at] |= 1 << draw(st.integers(0, 7))
        elif fault == "word" and len(data) >= 11:
            struct.pack_into("<H", data, draw(st.integers(9, len(data) - 2)), draw(st.integers(0, 0xFFFF)))
        elif fault == "length":
            data = data[:draw(st.integers(0, len(data)))] + draw(st.binary(max_size=6))
    return bytes(data)


@st.composite
def _delta_ops(draw, spec):
    """One op that may fault: an unknown opcode (a plain int, even one
    equal to a member's value), a lane outside the machine or the u16
    field, a row or code outside its range, a None coefficient payload, or
    code -1 (wire 0xFFFF)."""
    opcode = draw(st.sampled_from(OpCode) | st.integers(0, 9))
    lane = st.sampled_from([-1, spec.n_lanes, 0xFFFF, 0x10000])
    if spec.n_lanes:
        lane |= st.integers(0, spec.n_lanes - 1)
    if opcode is OpCode.SET_COEFF:
        value = st.none() | st.integers(-1, 8) | st.sampled_from([-2049, -2048, 2047, 2048, 0x8000])
    else:
        value = st.none() | st.integers(-1, max(spec.out_rows, spec.in_rows)) | st.sampled_from([0xFFFF, 0x10000])
    return DeltaOp(opcode, draw(lane), draw(value))


@st.composite
def _base_and_scripts(draw):
    """A base configuration with random annotations, and the script of its
    diff to another configuration with zero to three ops from `_delta_ops`
    inserted anywhere."""
    spec, a, b = draw(_spec_and_configs(2))
    base = dataclasses.replace(
        a,
        initial_states=tuple(draw(st.floats(-1, 1)) for _ in range(spec.n_integrators)),
        taps=tuple((f"T{k}", draw(st.integers(0, spec.out_rows - 1))) for k in range(draw(st.integers(0, 2)))),
    )
    ops = list(diff(a, b).ops)
    for _ in range(draw(st.integers(0, 3))):
        ops.insert(draw(st.integers(0, len(ops))), draw(_delta_ops(spec)))
    return base, DeltaScript(tuple(ops))


class TestMatchesLaneLoopCodec:
    @given(_spec_and_configs(1))
    @settings(max_examples=150, deadline=None)
    def test_encode_and_decode(self, case):
        spec, config = case
        image = encode(config)
        assert image == loop_encode(config)
        assert decode(image, spec) == loop_decode(image, spec) == config

    @pytest.mark.parametrize(
        "spec",
        [lucidac_spec(), MachineSpec(8, 0, 16), MachineSpec(7, 0, 9, 1), MachineSpec(0, 0, 8)],
        ids=["lucidac", "8-bit rows", "rows past a byte", "0-byte input rows"],
    )
    @pytest.mark.parametrize("wired", ["none", "first", "last", "all"])
    def test_encode_edge_cases(self, spec, wired):
        """Lanes wired at the section edges, to the lowest and the highest
        row of each side; on a machine without input rows, whose fields
        are 0 bytes wide, the lanes get a source only."""
        lanes = {"none": [], "first": [0], "last": [spec.n_lanes - 1], "all": range(spec.n_lanes)}[wired]
        fields = []
        for k, lane in enumerate(lanes):
            make = CoefficientCode.lowres if lane in spec.lowres_lanes else CoefficientCode.highres
            source = spec.out_rows - 1 if k % 2 else 0
            dest = (spec.in_rows - 1 if k % 3 else 0) if spec.in_rows else None
            fields.append((lane, source, make(k % 8), dest))
        config = support.with_lanes(MachineConfig.empty(spec), *fields)
        image = encode(config)
        assert image == loop_encode(config)
        assert len(image) == image_length(spec)
        assert decode(image, spec) == config

    @given(_spec_and_configs(2))
    @settings(max_examples=150, deadline=None)
    def test_diff(self, case):
        _, a, b = case
        assert diff(a, b) == loop_diff(a, b)
        assert diff(a, a) == loop_diff(a, a) == DeltaScript(())

    @given(_mutated_images())
    @settings(max_examples=400, deadline=None)
    def test_malformed_image_same_error(self, case):
        spec, image = case
        assert _outcome(decode, image, spec) == _outcome(loop_decode, image, spec)

    def test_redac_images(self):
        spec = redac_tile_spec()
        rng = random.Random(5)
        a = support.random_config(spec, rng, p_active=0.05)
        b = support.random_config(spec, rng, p_active=0.05)
        image = encode(a)
        assert image == loop_encode(a)
        assert decode(image, spec) == loop_decode(image, spec) == a
        assert diff(a, b) == loop_diff(a, b)
        # a fault in the last lane of each section, past a run of unwired lanes
        width = _loop_row_section_bytes(spec.out_rows)
        for at in (5 + 8000 * width - 1, 5 + 8000 * (width + 2) - 1, image_length(spec) - 1):
            bad = bytearray(image)
            bad[at] |= 0x81
            assert _outcome(decode, bytes(bad), spec) == _outcome(loop_decode, bytes(bad), spec)
            assert _outcome(decode, bytes(bad), spec)[0] is FormatError

    @pytest.mark.parametrize(
        "faults",
        [
            ((5 + 64 + 2 * 24, 9), (5 + 64 + 1, 0x09)),  # bad low-res word at lane 24, high-res at lane 0
            ((5 + 64 + 2 * 31, 8), (5 + 64 + 2 * 23 + 1, 0xF7)),  # lanes 31 and 23
            ((5 + 64 + 2 * 30, 8), (5 + 64 + 2 * 25, 9)),  # two low-res lanes
            # two bad words in one range, each order: in a set 9 comes
            # before 15, and 0x0901 before 0x0907, the unused lanes' 0 first
            ((5 + 64 + 2 * 25, 15), (5 + 64 + 2 * 30, 9)),
            ((5 + 64 + 2 * 25, 9), (5 + 64 + 2 * 30, 15)),
            ((5 + 64 + 6, 0x07), (5 + 64 + 7, 0x09), (5 + 64 + 14, 0x01), (5 + 64 + 15, 0x09)),  # lanes 3 and 7
            ((5 + 64 + 6, 0x01), (5 + 64 + 7, 0x09), (5 + 64 + 14, 0x07), (5 + 64 + 15, 0x09)),
            ((5 + 64 + 2 * 30, 8), (5 + 1, 0x03), (5 + 64 + 64 + 1, 0x81)),  # every section
        ],
    )
    def test_first_faulty_lane_in_section_order_wins(self, faults):
        spec = lucidac_spec()
        image = bytearray(encode(MachineConfig.empty(spec)))
        for at, value in faults:
            image[at] = value
        outcome = _outcome(decode, bytes(image), spec)
        assert outcome == _outcome(loop_decode, bytes(image), spec)
        assert outcome[0] is FormatError

    @given(_base_and_scripts(), _delta_bytes())
    @settings(max_examples=150, deadline=None)
    def test_delta_codec_and_apply(self, case, data):
        base, script = case
        # encoding refuses a field outside u16 (struct.error) and a
        # coefficient op without a code (TypeError); apply and decode_delta
        # raise only their own errors
        encoding, applying = (struct.error, TypeError), (RangeError, ValidationError)
        encoded = _outcome(encode_delta, script, errors=encoding)
        assert encoded == _outcome(loop_encode_delta, script, errors=encoding)
        assert _outcome(apply, base, script, errors=applying) == _outcome(loop_apply, base, script, errors=applying)
        for wire in (data, encoded) if isinstance(encoded, bytes) else (data,):
            received = _outcome(decode_delta, wire)
            assert received == _outcome(loop_decode_delta, wire)
            if isinstance(received, DeltaScript):
                applied = _outcome(apply, base, received, errors=applying)
                assert applied == _outcome(loop_apply, base, received, errors=applying)

    # `diff` compares codes by identity first and `validate_config` skips
    # the zero code by identity, so decoded images must hold shared codes
    def test_decoded_codes_are_shared(self, lorenz_design):
        program = compile_source(support.synthetic_large_program(500))
        large = route_design(build_circuit(normalize(program), program), redac_tile_spec())
        for config in (support.random_config(lucidac_spec(), random.Random(8)), lorenz_design.config, large.config):
            spec = config.spec
            for lane, code in enumerate(decode(encode(config), spec).coefficients):
                shared = CoefficientCode.lowres if lane in spec.lowres_lanes else CoefficientCode.highres
                assert code is shared(code.code)


@given(_spec_and_configs(1), _delta_bytes())
@settings(max_examples=500, deadline=None)
def test_delta_fuzz_raises_only_format_range_or_validation_errors(case, data):
    _, base = case
    try:
        apply(base, decode_delta(data))
    except (FormatError, RangeError, ValidationError):
        pass
