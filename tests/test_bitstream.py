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
from autopatch.machine import (
    CoefKind,
    CoefficientCode,
    MachineConfig,
    MachineSpec,
    custom_spec,
    lucidac_spec,
    redac_tile_spec,
)


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
        spec = MachineSpec(8, 4, 32, out_rows=13, in_rows=16,
                           lowres_lanes=frozenset(range(24, 32)), has_const_row=True)
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
        changed = config.with_coeff(0, CoefficientCode.highres(777))
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


# --------------------------------------------------------------------------
# parity with the lane-by-lane codec
#
# Test-local copies of the codec as it was before decode, encode and diff
# learned to skip unwired lanes and to share coefficient codes.  The
# properties below require the same bytes, the same configurations and
# scripts, and the same FormatError (offset and reason) on malformed images.


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


# small custom machines: row counts on both sides of a multiple of 8 (and 0
# input rows), a low-res top quarter from 4 lanes up
_small_specs = st.builds(custom_spec, st.integers(0, 12), st.integers(0, 6), st.integers(0, 40))


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


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except FormatError as exc:
        return ("FormatError", exc.offset, exc.reason)


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


class TestMatchesLaneLoopCodec:
    @given(_spec_and_configs(1))
    @settings(max_examples=150, deadline=None)
    def test_encode_and_decode(self, case):
        spec, config = case
        image = encode(config)
        assert image == loop_encode(config)
        assert decode(image, spec) == loop_decode(image, spec) == config

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
            assert _outcome(decode, bytes(bad), spec)[0] == "FormatError"

    @pytest.mark.parametrize(
        "faults",
        [
            ((5 + 64 + 2 * 24, 9), (5 + 64 + 1, 0x09)),  # bad low-res word at lane 24, high-res at lane 0
            ((5 + 64 + 2 * 31, 8), (5 + 64 + 2 * 23 + 1, 0xF7)),  # lanes 31 and 23
            ((5 + 64 + 2 * 30, 8), (5 + 64 + 2 * 25, 9)),  # two low-res lanes
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
        assert outcome[0] == "FormatError"

    def test_decoded_codes_are_shared(self):
        spec = lucidac_spec()
        config = decode(encode(support.random_config(spec, random.Random(8))), spec)
        for lane, code in enumerate(config.coefficients):
            shared = CoefficientCode.lowres if lane in spec.lowres_lanes else CoefficientCode.highres
            assert code is shared(code.code)


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


@given(_spec_and_configs(1), _delta_bytes())
@settings(max_examples=500, deadline=None)
def test_delta_fuzz_raises_only_format_range_or_validation_errors(case, data):
    _, base = case
    try:
        apply(base, decode_delta(data))
    except (FormatError, RangeError, ValidationError):
        pass
