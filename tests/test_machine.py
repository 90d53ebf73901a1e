import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import support
from autopatch.machine import (
    CoefKind,
    CoefficientCode,
    HIGHRES_LSB,
    MAX_LANES,
    MAX_ROWS,
    MachineConfig,
    MachineSpec,
    RangeWarning,
    RowRole,
    custom_spec,
    decode,
    format_config,
    lowres_code_for,
    lucidac_spec,
    quantize_highres,
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

    def test_lowres_eligibility_is_exact(self):
        assert lowres_code_for(-1.0) == 6
        assert lowres_code_for(0.1) == 3
        assert lowres_code_for(0.09999) is None
        assert lowres_code_for(1.8) is None


class TestSpecs:
    def test_small_profile(self):
        spec = lucidac_spec()
        assert spec.n_integrators == 8
        assert spec.n_multipliers == 4
        assert spec.n_lanes == 32
        assert spec.in_rows == 16
        assert spec.out_rows == 16
        assert spec.lowres_lanes == frozenset(range(24, 32))
        assert spec.has_const_row

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
        assert spec.integrator_out_row(0) == 0
        assert spec.multiplier_out_row(0) == 8
        assert spec.const_row() == 12
        assert spec.out_row_role(13) == (RowRole.RESERVED, 1)
        assert spec.mul_a_row(3) == 14
        assert spec.mul_b_row(3) == 15
        for row in range(spec.in_rows):
            role, k = spec.in_row_role(row)
            back = {
                RowRole.INTEGRATOR_IN: spec.integrator_in_row,
                RowRole.MUL_A: spec.mul_a_row,
                RowRole.MUL_B: spec.mul_b_row,
            }[role](k)
            assert back == row

    def test_in_rows_invariant_enforced(self):
        with pytest.raises(ValueError, match="in_rows"):
            MachineSpec(8, 4, 32, out_rows=16, in_rows=15, lowres_lanes=frozenset(), has_const_row=True)

    def test_out_rows_must_fit_elements(self):
        with pytest.raises(ValueError, match="out_rows"):
            MachineSpec(8, 4, 32, out_rows=12, in_rows=16, lowres_lanes=frozenset(), has_const_row=True)

    def test_lowres_fraction_capped(self):
        with pytest.raises(ValueError, match="half"):
            MachineSpec(8, 4, 32, out_rows=16, in_rows=16,
                        lowres_lanes=frozenset(range(17)), has_const_row=True)

    def test_custom_profile(self):
        spec = custom_spec(2, 1, 8)
        assert spec.in_rows == 4
        assert spec.out_rows == 4
        assert spec.lowres_lanes == frozenset({6, 7})


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
        config = MachineConfig.empty(lucidac_spec()).with_coeff(0, CoefficientCode.lowres(0))
        assert any("kind/lane mismatch" in p for p in validate_config(config))

    def test_row_out_of_range(self):
        config = support.with_lanes(MachineConfig.empty(lucidac_spec()), (0, 99, CoefficientCode.highres(1), 0))
        assert any("source row 99" in p for p in validate_config(config))

    def test_unused_lane_must_carry_zero_code(self):
        config = MachineConfig.empty(lucidac_spec()).with_coeff(1, CoefficientCode.highres(5))
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


def test_format_config_lists_active_lanes_in_order(lorenz_design):
    dump = format_config(lorenz_design.config).splitlines()
    assert dump[0].startswith("LANE 0: row0 --[1.5576171875 (high,319)]--> row1")
    assert len(dump) == 11
    lanes = [int(line.split()[1].rstrip(":")) for line in dump]
    assert lanes == sorted(lanes)


class TestSizeBound:
    def test_largest_addressable_geometry(self):
        assert custom_spec(1, 0, MAX_LANES).n_lanes == MAX_LANES
        assert custom_spec(MAX_ROWS - 1, 0, 8).out_rows == MAX_ROWS
        assert custom_spec(0, MAX_ROWS // 2, 8).in_rows == MAX_ROWS
        spec = MachineSpec(0, 0, MAX_LANES, out_rows=MAX_ROWS, in_rows=0,
                           lowres_lanes=frozenset(), has_const_row=False)
        assert MachineConfig.empty(spec).coefficients[-1] is CoefficientCode.highres(0)

    @pytest.mark.parametrize(
        "geometry, problem",
        [
            ((1, 0, MAX_LANES + 1), f"{MAX_LANES + 1} lanes exceed"),
            ((1, 0, 10**9), "1000000000 lanes exceed"),  # refused before the low-res lane set is built
            ((MAX_ROWS, 0, 8), f"{MAX_ROWS + 1} output rows exceed"),
            ((1, MAX_ROWS // 2, 8), f"{MAX_ROWS + 1} input rows exceed"),
        ],
        ids=["lanes", "billion_lanes", "output_rows", "input_rows"],
    )
    def test_larger_geometry_refused(self, geometry, problem):
        with pytest.raises(ValueError, match=problem):
            custom_spec(*geometry)

    def test_spec_checks_the_bound_itself(self):
        with pytest.raises(ValueError, match="lanes exceed"):
            MachineSpec(0, 0, MAX_LANES + 1, out_rows=0, in_rows=0, lowres_lanes=frozenset(), has_const_row=False)
        with pytest.raises(ValueError, match="output rows exceed"):
            MachineSpec(0, 0, 8, out_rows=MAX_ROWS + 1, in_rows=0, lowres_lanes=frozenset(), has_const_row=False)


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
