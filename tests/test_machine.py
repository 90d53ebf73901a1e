import math
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import support
from autopatch.circuit import NodeKind, Port
from autopatch.machine import (
    CoefKind,
    CoefficientCode,
    HIGHRES_LSB,
    LOWRES_TABLE,
    MAX_LANES,
    MAX_ROWS,
    MachineConfig,
    MachineSpec,
    RangeWarning,
    decode,
    format_config,
    lowres_code_for,
    lucidac_spec,
    quantize_highres,
    quantize_highres_info,
    redac_tile_spec,
    validate_config,
)

HALF_LSB = HIGHRES_LSB / 2


class TestQuantize:
    def test_zero(self):
        assert quantize_highres(0.0) == 0

    def test_representative_value(self):
        code = quantize_highres(1.8)
        assert code == 369
        decoded = decode(CoefficientCode.highres(code))
        assert decoded == 1.8017578125
        assert abs(decoded - 1.8) < HALF_LSB

    def test_top_clamps_with_warning(self):
        with pytest.warns(RangeWarning):
            code = quantize_highres(10.0)
        assert code == 2047
        assert decode(CoefficientCode.highres(2047)) == 9.99511718750

    def test_bottom_is_exact(self):
        assert quantize_highres(-10.0) == -2048
        assert decode(CoefficientCode.highres(-2048)) == -10.0

    def test_below_bottom_clamps(self):
        with pytest.warns(RangeWarning):
            assert quantize_highres(-10.01) == -2048

    @pytest.mark.parametrize("value, code", [(1.7e308, 2047), (-1.7e308, -2048), (math.inf, 2047), (-math.inf, -2048)])
    def test_huge_gain_clamps(self, value, code):
        # 1.7e308 * 2048 overflows to inf, which round() refuses
        assert quantize_highres_info(value) == (code, True)

    @given(st.floats(min_value=-10.0, max_value=9.99))
    @settings(max_examples=300)
    def test_half_lsb_bound(self, value):
        code = quantize_highres(value)
        assert abs(decode(CoefficientCode.highres(code)) - value) <= HALF_LSB

    @given(st.tuples(st.floats(min_value=-10.0, max_value=9.99), st.floats(min_value=-10.0, max_value=9.99)))
    @settings(max_examples=300)
    def test_monotonic(self, pair):
        lo, hi = sorted(pair)
        assert quantize_highres(lo) <= quantize_highres(hi)


class TestDecode:
    def test_lowres_table(self):
        values = [decode(CoefficientCode.lowres(code)) for code in range(8)]
        assert values == [10.0, 1.0, 0.5, 0.1, -0.1, -0.5, -1.0, -10.0]

    def test_highres_zero(self):
        assert decode(CoefficientCode.highres(0)) == 0.0

    def test_code_ranges_enforced(self):
        with pytest.raises(ValueError):
            CoefficientCode.highres(2048)
        with pytest.raises(ValueError):
            CoefficientCode.lowres(8)

    @pytest.mark.parametrize(
        "kind, code, text",
        [
            (CoefKind.LOW_RES, 8, "low-res code 8 outside [0, 7]"),
            (CoefKind.HIGH_RES, 2048, "high-res code 2048 outside [-2048, 2047]"),
        ],
    )
    def test_code_range_texts(self, kind, code, text):
        with pytest.raises(ValueError) as info:
            CoefficientCode(kind, code)
        assert str(info.value) == text

    def test_lowres_eligibility_is_exact(self):
        assert lowres_code_for(-1.0) == 6
        assert lowres_code_for(0.1) == 3
        assert lowres_code_for(0.09999) is None
        assert lowres_code_for(1.8) is None

    @pytest.mark.parametrize(
        "value", [*LOWRES_TABLE, -0.0, 0.0, math.nan, math.inf, -math.inf, 1, -10, True, 0.09999, 0.1 + 1e-17, 1.8]
    )
    def test_lowres_lookup_matches_table_index(self, value):
        # the reference: an exact search of the table, as `tuple.index` compares
        try:
            want = LOWRES_TABLE.index(value)
        except ValueError:
            want = None
        assert lowres_code_for(value) == want


class TestSpecs:
    def test_small_profile(self):
        spec = lucidac_spec()
        assert spec.n_integrators == 8
        assert spec.n_multipliers == 4
        assert spec.n_lanes == 32
        assert spec.in_rows == 16
        assert spec.out_rows == 16
        assert spec.lowres_lanes == frozenset(range(24, 32))
        assert spec.reserved_rows == 3
        assert spec == MachineSpec(8, 4, 32, reserved_rows=3)

    def test_large_profile(self):
        spec = redac_tile_spec()
        assert spec.n_integrators == 1000
        assert spec.n_multipliers == 500
        assert spec.n_lanes == 8000
        assert spec.in_rows == 2000
        assert len(spec.lowres_lanes) == 2000
        assert len(spec.lowres_lanes) / spec.n_lanes == 0.25

    def test_row_convention(self):
        spec = lucidac_spec()
        assert spec.out_row(NodeKind.INTEGRATOR, 0) == 0
        assert spec.out_row(NodeKind.MULTIPLIER, 0) == 8
        assert spec.out_row(NodeKind.CONST_ONE, 0) == 12
        assert spec.out_row(None, 1) == 13
        assert spec.out_row_role(13) == (None, 1)
        assert spec.in_row(Port.INTEGRATOR_IN, 7) == 7
        assert spec.in_row(Port.MUL_A, 3) == 14
        assert spec.in_row(Port.MUL_B, 3) == 15

    @given(st.builds(MachineSpec, st.integers(0, 6), st.integers(0, 4), st.integers(0, 8), st.integers(0, 3)))
    @settings(max_examples=200)
    def test_row_maps_invert_the_roles(self, spec):
        out_slots = [(NodeKind.INTEGRATOR, k) for k in range(spec.n_integrators)]
        out_slots += [(NodeKind.MULTIPLIER, k) for k in range(spec.n_multipliers)]
        out_slots += [(NodeKind.CONST_ONE, 0)] + [(None, k) for k in range(1, 1 + spec.reserved_rows)]
        assert [spec.out_row(kind, k) for kind, k in out_slots] == list(range(spec.out_rows))
        assert [spec.out_row_role(spec.out_row(kind, k)) for kind, k in out_slots] == out_slots
        in_slots = [(Port.INTEGRATOR_IN, k) for k in range(spec.n_integrators)]
        in_slots += [(port, k) for k in range(spec.n_multipliers) for port in (Port.MUL_A, Port.MUL_B)]
        assert [spec.in_row(port, k) for port, k in in_slots] == list(range(spec.in_rows))
        assert [spec.in_row_role(spec.in_row(port, k)) for port, k in in_slots] == in_slots

    @pytest.mark.parametrize(
        "kind, port, slot, text",
        [
            (NodeKind.INTEGRATOR, Port.INTEGRATOR_IN, 8, "integrator index 8 outside [0, 8)"),
            (NodeKind.INTEGRATOR, Port.INTEGRATOR_IN, -1, "integrator index -1 outside [0, 8)"),
            (NodeKind.MULTIPLIER, Port.MUL_A, 4, "multiplier index 4 outside [0, 4)"),
            (NodeKind.MULTIPLIER, Port.MUL_B, -1, "multiplier index -1 outside [0, 4)"),
            (NodeKind.CONST_ONE, None, 1, "constant index 1 outside [0, 1)"),
            (None, None, 0, "reserved row index 0 outside [1, 4)"),
            (None, None, 4, "reserved row index 4 outside [1, 4)"),
        ],
    )
    def test_slot_out_of_range(self, kind, port, slot, text):
        spec = lucidac_spec()
        with pytest.raises(ValueError) as err:
            spec.out_row(kind, slot)
        assert str(err.value) == text
        if port is not None:
            with pytest.raises(ValueError) as err:
                spec.in_row(port, slot)
            assert str(err.value) == text

    def test_custom_profile(self):
        spec = MachineSpec(2, 1, 8)
        assert spec.in_rows == 4
        assert spec.out_rows == 4
        assert spec.lowres_lanes == frozenset({6, 7})
        assert MachineSpec(2, 1, 8, reserved_rows=2).out_rows == 6


class TestValidateConfig:
    def test_empty_is_valid(self):
        assert validate_config(MachineConfig.empty(lucidac_spec())) == []

    def test_dangling_lane_destination_only(self):
        config = support.with_lanes(MachineConfig.empty(lucidac_spec()), (3, None, CoefficientCode.highres(0), 5))
        problems = validate_config(config)
        assert any("lane 3" in p and "dangling" in p for p in problems)

    def test_dangling_lane_source_only(self):
        config = support.with_lanes(MachineConfig.empty(lucidac_spec()), (4, 1, CoefficientCode.highres(0), None))
        assert any("dangling" in p for p in validate_config(config))

    def test_kind_lane_mismatch(self):
        config = support.with_lanes(MachineConfig.empty(lucidac_spec()), (0, None, CoefficientCode.lowres(0), None))
        assert any("kind/lane mismatch" in p for p in validate_config(config))

    def test_row_out_of_range(self):
        config = support.with_lanes(MachineConfig.empty(lucidac_spec()), (0, 99, CoefficientCode.highres(1), 0))
        assert any("source row 99" in p for p in validate_config(config))

    def test_unused_lane_must_carry_zero_code(self):
        config = support.with_lanes(MachineConfig.empty(lucidac_spec()), (1, None, CoefficientCode.highres(5), None))
        assert any("unused lane" in p for p in validate_config(config))

    def test_fan_out_freedom(self):
        spec = lucidac_spec()
        for row in range(spec.out_rows):
            config = MachineConfig.empty(spec)
            for lane in range(spec.n_lanes):
                code = CoefficientCode.lowres(1) if lane in spec.lowres_lanes else CoefficientCode.highres(7)
                config = support.with_lanes(config, (lane, row, code, lane % spec.in_rows))
            assert validate_config(config) == []

    def test_fan_in_freedom(self):
        spec = lucidac_spec()
        config = MachineConfig.empty(spec)
        for lane in range(spec.n_lanes):
            code = CoefficientCode.lowres(2) if lane in spec.lowres_lanes else CoefficientCode.highres(-3)
            config = support.with_lanes(config, (lane, lane % spec.out_rows, code, 7))
        assert validate_config(config) == []

    def test_random_generator_produces_valid_configs(self):
        rng = random.Random(7)
        spec = lucidac_spec()
        for _ in range(50):
            assert validate_config(support.random_config(spec, rng)) == []

    def test_equality_and_annotations(self):
        spec = lucidac_spec()
        a = MachineConfig.empty(spec)
        b = MachineConfig(
            spec=spec,
            u_source=a.u_source,
            coefficients=a.coefficients,
            i_dest=a.i_dest,
            initial_states=(1.0,) * spec.n_integrators,
            taps=(("X", 0),),
        )
        # annotations ride along but do not affect identity
        assert a == b
        assert hash(a) == hash(b)
        assert a != support.with_lanes(a, (0, 0, CoefficientCode.highres(1), 0))

    def test_tap_row_out_of_range_flagged(self):
        spec = lucidac_spec()
        config = MachineConfig(
            spec=spec,
            u_source=(None,) * 32,
            coefficients=MachineConfig.empty(spec).coefficients,
            i_dest=(None,) * 32,
            taps=(("X", 40),),
        )
        assert any("tap X" in p for p in validate_config(config))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_every_lane_loop(self, data):
        config = data.draw(_checked_configs())
        assert validate_config(config) == loop_validate_config(config)


def loop_validate_config(config):
    """`validate_config` as it was, kept as a reference: every lane takes
    every check, with no shortcut for unused lanes."""
    spec = config.spec
    violations = []
    for lane in range(spec.n_lanes):
        src, coeff, dst = config.u_source[lane], config.coefficients[lane], config.i_dest[lane]
        if src is not None and not 0 <= src < spec.out_rows:
            violations.append(f"lane {lane}: source row {src} outside [0, {spec.out_rows})")
        if dst is not None and not 0 <= dst < spec.in_rows:
            violations.append(f"lane {lane}: destination row {dst} outside [0, {spec.in_rows})")
        if (src is None) != (dst is None):
            what = "destination but no source" if src is None else "source but no destination"
            violations.append(f"lane {lane}: dangling lane ({what})")
        want = CoefKind.LOW_RES if lane in spec.lowres_lanes else CoefKind.HIGH_RES
        if coeff.kind is not want:
            violations.append(f"lane {lane}: kind/lane mismatch ({coeff.kind.value} code on a {want.value}-res lane)")
        if src is None and dst is None and coeff.code != 0:
            violations.append(f"lane {lane}: unused lane carries nonzero code {coeff.code}")
    for name, row in config.taps:
        if not 0 <= row < spec.out_rows:
            violations.append(f"tap {name}: output row {row} outside [0, {spec.out_rows})")
    return violations


@st.composite
def _checked_configs(draw):
    """A custom-machine configuration whose lanes mix every case the checks
    tell apart: unused or not, rows in or out of range, dangling lanes, zero
    or nonzero codes of either kind, each a shared instance or a fresh one."""
    spec = draw(st.builds(MachineSpec, st.integers(0, 6), st.integers(0, 3), st.integers(0, 24), st.integers(0, 3)))
    u, c, d = [], [], []
    for lane in range(spec.n_lanes):
        unused = draw(st.booleans())
        u.append(None if unused else draw(st.none() | st.integers(-1, spec.out_rows)))
        d.append(None if unused else draw(st.none() | st.integers(-1, spec.in_rows)))
        own = CoefKind.LOW_RES if lane in spec.lowres_lanes else CoefKind.HIGH_RES
        other = CoefKind.HIGH_RES if own is CoefKind.LOW_RES else CoefKind.LOW_RES
        kind = own if draw(st.integers(0, 3)) else other
        code = draw(st.sampled_from([0, 0, 1, 7]))
        if draw(st.booleans()):
            c.append(CoefficientCode(kind, code))
        else:
            c.append(CoefficientCode.lowres(code) if kind is CoefKind.LOW_RES else CoefficientCode.highres(code))
    taps = tuple((f"T{k}", draw(st.integers(-1, spec.out_rows))) for k in range(draw(st.integers(0, 2))))
    return MachineConfig(spec=spec, u_source=tuple(u), coefficients=tuple(c), i_dest=tuple(d), taps=taps)


def test_format_config_lists_active_lanes_in_order(lorenz_design):
    dump = format_config(lorenz_design.config).splitlines()
    assert dump[0].startswith("LANE 0: row0 --[1.5576171875 (high,319)]--> row1")
    assert len(dump) == 11
    lanes = [int(line.split()[1].rstrip(":")) for line in dump]
    assert lanes == sorted(lanes)


class TestSizeBound:
    def test_largest_addressable_geometry(self):
        assert MachineSpec(1, 0, MAX_LANES).n_lanes == MAX_LANES
        assert MachineSpec(MAX_ROWS - 1, 0, 8).out_rows == MAX_ROWS
        assert MachineSpec(0, MAX_ROWS // 2, 8).in_rows == MAX_ROWS
        spec = MachineSpec(0, 0, MAX_LANES, reserved_rows=MAX_ROWS - 1)
        assert spec.out_rows == MAX_ROWS
        empty = MachineConfig.empty(spec)
        assert empty.coefficients[0] is CoefficientCode.highres(0)
        assert empty.coefficients[-1] is CoefficientCode.lowres(0)

    @pytest.mark.parametrize(
        "geometry, problem",
        [
            ((1, 0, MAX_LANES + 1), f"{MAX_LANES + 1} lanes exceed"),
            ((1, 0, 10**9), "1000000000 lanes exceed"),  # refused before the low-res lane set is built
            ((MAX_ROWS, 0, 8), f"{MAX_ROWS + 1} output rows exceed"),
            ((1, MAX_ROWS // 2, 8), f"{MAX_ROWS + 1} input rows exceed"),
            # a geometry both oversized and negative is named by its size
            ((-1, 0, 100000), "100000 lanes exceed"),
            ((70000, -1, 8), "70000 output rows exceed"),
        ],
        ids=["lanes", "billion_lanes", "output_rows", "input_rows", "lanes_and_negative", "rows_and_negative"],
    )
    def test_larger_geometry_refused(self, geometry, problem):
        with pytest.raises(ValueError, match=problem):
            MachineSpec(*geometry)

    def test_spec_checks_the_bound_itself(self):
        with pytest.raises(ValueError, match="lanes exceed"):
            MachineSpec(0, 0, MAX_LANES + 1)
        with pytest.raises(ValueError, match=f"{MAX_ROWS + 1} output rows exceed"):
            MachineSpec(0, 0, 8, reserved_rows=MAX_ROWS)

    @pytest.mark.parametrize("geometry", [(1, -1, 8), (1, 0, 8, -1)], ids=["multipliers", "reserved_rows"])
    def test_negative_geometry_refused(self, geometry):
        with pytest.raises(ValueError, match="negative geometry"):
            MachineSpec(*geometry)


class TestSharedCodes:
    def test_one_instance_per_kind_and_code(self):
        assert CoefficientCode.highres(-7) is CoefficientCode.highres(-7)
        assert CoefficientCode.lowres(3) is CoefficientCode.lowres(3)
        assert CoefficientCode.highres(3) is not CoefficientCode.lowres(3)
        assert CoefficientCode.highres(3) == CoefficientCode(CoefKind.HIGH_RES, 3)

    @pytest.mark.parametrize("make, code", [(CoefficientCode.highres, 2048), (CoefficientCode.lowres, 8)])
    def test_invalid_code_is_refused_and_not_kept(self, make, code):
        for _ in range(2):
            with pytest.raises(ValueError, match="outside"):
                make(code)

    def test_empty_config_shares_two_codes(self):
        config = MachineConfig.empty(redac_tile_spec())
        assert len({id(code) for code in config.coefficients}) == 2
        assert validate_config(config) == []
