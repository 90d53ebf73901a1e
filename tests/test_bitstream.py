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

    def test_rows_in_two_bytes_of_one_field_rejected(self):
        image = bytearray(encode(MachineConfig.empty(lucidac_spec())))
        image[5 + 2 * 3] = 0x01  # rows 0 and 15 of lane 3's two-byte field
        image[5 + 2 * 3 + 1] = 0x80
        with pytest.raises(FormatError) as err:
            decode(bytes(image), lucidac_spec())
        assert (err.value.offset, err.value.reason) == (11, "lane 3: multiple source rows selected")

    def test_row_bit_beyond_row_count_rejected(self):
        spec = MachineSpec(8, 4, 32)
        image = bytearray(encode(MachineConfig.empty(spec)))
        image[6] = 0x80  # bit 15 of lane 0, but out_rows is 13
        with pytest.raises(FormatError, match="row 15") as err:
            decode(bytes(image), spec)
        assert err.value.offset == 5  # the start of the lane's field

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
        assert len(image) == image_length(spec)
        assert decode(image, spec) == config

    @pytest.mark.parametrize(
        "faults, offset, reason",
        [
            # bad low-res word at lane 24, high-res at lane 0
            (((5 + 64 + 2 * 24, 9), (5 + 64 + 1, 0x09)), 69, "lane 0: high-res code 2304 outside [-2048, 2047]"),
            # lanes 31 and 23
            (((5 + 64 + 2 * 31, 8), (5 + 64 + 2 * 23 + 1, 0xF7)), 115, "lane 23: high-res code -2304 outside [-2048, 2047]"),
            # two low-res lanes
            (((5 + 64 + 2 * 30, 8), (5 + 64 + 2 * 25, 9)), 119, "lane 25: low-res code 9 outside [0, 7]"),
            # two bad words in one range, each order: in a set 9 comes
            # before 15, and 0x0901 before 0x0907, the unused lanes' 0 first
            (((5 + 64 + 2 * 25, 15), (5 + 64 + 2 * 30, 9)), 119, "lane 25: low-res code 15 outside [0, 7]"),
            (((5 + 64 + 2 * 25, 9), (5 + 64 + 2 * 30, 15)), 119, "lane 25: low-res code 9 outside [0, 7]"),
            # lanes 3 and 7
            (((5 + 64 + 6, 0x07), (5 + 64 + 7, 0x09), (5 + 64 + 14, 0x01), (5 + 64 + 15, 0x09)), 75,
             "lane 3: high-res code 2311 outside [-2048, 2047]"),
            (((5 + 64 + 6, 0x01), (5 + 64 + 7, 0x09), (5 + 64 + 14, 0x07), (5 + 64 + 15, 0x09)), 75,
             "lane 3: high-res code 2305 outside [-2048, 2047]"),
            # every section
            (((5 + 64 + 2 * 30, 8), (5 + 1, 0x03), (5 + 64 + 64 + 1, 0x81)), 5, "lane 0: multiple source rows selected"),
        ],
        ids=[f"faults{k}" for k in range(8)],
    )
    def test_first_faulty_lane_in_section_order_wins(self, faults, offset, reason):
        spec = lucidac_spec()
        image = bytearray(encode(MachineConfig.empty(spec)))
        for at, value in faults:
            image[at] = value
        with pytest.raises(FormatError) as err:
            decode(bytes(image), spec)
        assert (err.value.offset, err.value.reason) == (offset, reason)

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

    def test_equal_codes_of_distinct_instances_are_no_change(self, lorenz_design):
        config = lorenz_design.config
        fresh = tuple(CoefficientCode(code.kind, code.code) for code in config.coefficients)
        assert diff(config, MachineConfig(config.spec, config.u_source, fresh, config.i_dest)).ops == ()

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
        spec = MachineSpec(8, 4, 32)  # 13 output rows, 16 input rows
        with pytest.raises(RangeError, match=r"^lane 0: destination row 16 outside \[0, 16\)$"):
            apply(MachineConfig.empty(spec), DeltaScript((DeltaOp(OpCode.SET_I_DEST, 0, 16),)))
        script = DeltaScript((DeltaOp(OpCode.SET_U_SOURCE, 0, 0), DeltaOp(OpCode.SET_I_DEST, 0, 14)))
        assert apply(MachineConfig.empty(spec), script).i_dest[0] == 14

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
        ops = (DeltaOp(OpCode.SET_COEFF, 0, 1), DeltaOp(OpCode.SET_COEFF, 1, 1))
        data = bytearray(encode_delta(DeltaScript(ops)))
        data[14] = 0x77  # the second record's opcode
        with pytest.raises(FormatError) as err:
            decode_delta(bytes(data))
        assert (err.value.offset, err.value.reason) == (14, "unknown opcode 119")

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
