"""Machine geometry and routed interconnect configuration.

A machine in this model is a pair of switch matrices joined by coefficient
lanes: a voltage-coupled fan-out matrix (one source row drives any set of
column lanes) feeding per-lane multiplying DACs, whose output currents are
collected by a current-coupled fan-in matrix (any set of lanes sums onto
one input row).  Summation is implicit in the current coupling, so the
machine has no summer elements at all.

Two coefficient flavours exist: "high-res" lanes carry a signed 12-bit code
over [-10, 10), "low-res" lanes carry a 3-bit code selecting one of eight
round values (+-10, +-1, +-0.5, +-0.1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

HIGHRES_MIN = -2048
HIGHRES_MAX = 2047
HIGHRES_LSB = 10.0 / 2048.0

#: Decoded value per 3-bit low-res code, index == code.
LOWRES_TABLE = (10.0, 1.0, 0.5, 0.1, -0.1, -0.5, -1.0, -10.0)

#: Weights that a low-res lane can realize exactly.
LOWRES_VALUES = frozenset(LOWRES_TABLE)


class RangeWarning(UserWarning):
    """A coefficient value was clamped to the representable code range."""


class CoefKind(Enum):
    HIGH_RES = "high"
    LOW_RES = "low"


@dataclass(frozen=True)
class CoefficientCode:
    """Digital code of one lane's multiplying DAC."""

    kind: CoefKind
    code: int

    def __post_init__(self):
        if self.kind is CoefKind.HIGH_RES:
            if not HIGHRES_MIN <= self.code <= HIGHRES_MAX:
                raise ValueError(f"high-res code {self.code} outside [{HIGHRES_MIN}, {HIGHRES_MAX}]")
        else:
            if not 0 <= self.code <= 7:
                raise ValueError(f"low-res code {self.code} outside [0, 7]")

    @staticmethod
    def highres(code: int) -> "CoefficientCode":
        """The shared high-res instance for `code`."""
        return _shared_code(_HIGHRES_CODES, CoefKind.HIGH_RES, code)

    @staticmethod
    def lowres(code: int) -> "CoefficientCode":
        """The shared low-res instance for `code`."""
        return _shared_code(_LOWRES_CODES, CoefKind.LOW_RES, code)


# Shared instances per kind, filled on demand: an image holds a handful of
# distinct codes over thousands of lanes, and comparing shared instances is
# an identity check.  Validation runs before an instance is stored and only
# int codes are stored, so each dict holds at most 4096 or 8 entries.
_HIGHRES_CODES: dict[int, CoefficientCode] = {}
_LOWRES_CODES: dict[int, CoefficientCode] = {}


def _shared_code(shared: dict[int, CoefficientCode], kind: CoefKind, code: int) -> CoefficientCode:
    instance = shared.get(code)
    if instance is None:
        instance = CoefficientCode(kind, code)
        if type(code) is int:
            shared[code] = instance
    return instance


def decode(coeff: CoefficientCode) -> float:
    """Return the exact gain a coefficient code configures."""
    if coeff.kind is CoefKind.HIGH_RES:
        return coeff.code * 10.0 / 2048.0
    return LOWRES_TABLE[coeff.code]


def quantize_highres_info(value: float) -> tuple[int, bool]:
    """Nearest 12-bit code for a gain, plus whether it was clamped."""
    raw = round(value * 2048.0 / 10.0)
    code = min(HIGHRES_MAX, max(HIGHRES_MIN, raw))
    return code, code != raw


def quantize_highres(value: float) -> int:
    """Quantize a gain to the nearest 12-bit code, clamping at the rails.

    The code maps back to ``code * 10/2048``, so -10 is exactly
    representable while the top code decodes to slightly below +10.
    Clamping emits a (non-fatal) :class:`RangeWarning`.
    """
    code, clamped = quantize_highres_info(value)
    if clamped:
        warnings.warn(
            RangeWarning(f"coefficient {value} clamps to code {code} ({decode(CoefficientCode.highres(code))})"),
            stacklevel=2,
        )
    return code


def lowres_code_for(value: float) -> Optional[int]:
    """Code realizing `value` exactly on a low-res lane, or None.

    Deliberately an exact comparison: 0.09999 must not snap to 0.1.
    """
    try:
        return LOWRES_TABLE.index(value)
    except ValueError:
        return None


# --------------------------------------------------------------------------
# machine geometry


class RowRole(Enum):
    INTEGRATOR_OUT = "IntegratorOut"
    MULTIPLIER_OUT = "MultiplierOut"
    CONST_ONE = "ConstOne"
    RESERVED = "Reserved"
    INTEGRATOR_IN = "IntegratorIn"
    MUL_A = "MulA"
    MUL_B = "MulB"


#: Largest geometry the binary formats can address: a delta record carries
#: its lane as a u16, and the row payload 0xFFFF means "no row".
MAX_LANES = 65536
MAX_ROWS = 65534


def _check_size(n_lanes: int, out_rows: int, in_rows: int) -> None:
    if n_lanes > MAX_LANES:
        raise ValueError(f"{n_lanes} lanes exceed the format limit of {MAX_LANES}")
    for rows, what in ((out_rows, "output"), (in_rows, "input")):
        if rows > MAX_ROWS:
            raise ValueError(f"{rows} {what} rows exceed the format limit of {MAX_ROWS}")


@dataclass(frozen=True)
class MachineSpec:
    """Parametric geometry of one interconnect tile.

    Row conventions (fixed so that bitstreams and tests are reproducible):
    output rows list integrator outputs first, then multiplier outputs, then
    the constant-one row (if present), then reserved rows; input rows list
    integrator inputs first, then multiplier port pairs (A then B per
    multiplier).
    """

    n_integrators: int
    n_multipliers: int
    n_lanes: int
    out_rows: int
    in_rows: int
    lowres_lanes: frozenset[int]
    has_const_row: bool

    def __post_init__(self):
        if min(self.n_integrators, self.n_multipliers, self.n_lanes, self.out_rows, self.in_rows) < 0:
            raise ValueError("negative geometry")
        _check_size(self.n_lanes, self.out_rows, self.in_rows)
        if self.in_rows != self.n_integrators + 2 * self.n_multipliers:
            raise ValueError(
                f"in_rows must equal n_integrators + 2*n_multipliers "
                f"({self.n_integrators} + 2*{self.n_multipliers} != {self.in_rows})"
            )
        needed = self.n_integrators + self.n_multipliers + (1 if self.has_const_row else 0)
        if self.out_rows < needed:
            raise ValueError(f"out_rows {self.out_rows} < {needed} element outputs")
        if any(not 0 <= k < self.n_lanes for k in self.lowres_lanes):
            raise ValueError("lowres lane index outside lane range")
        if self.n_lanes and len(self.lowres_lanes) / self.n_lanes > 0.5:
            raise ValueError("more than half the lanes are low-res")

    # --- output rows

    def integrator_out_row(self, i: int) -> int:
        return self._checked(i, self.n_integrators, "integrator")

    def multiplier_out_row(self, j: int) -> int:
        return self.n_integrators + self._checked(j, self.n_multipliers, "multiplier")

    def const_row(self) -> int:
        if not self.has_const_row:
            raise ValueError("machine has no constant-one row")
        return self.n_integrators + self.n_multipliers

    def out_row_role(self, row: int) -> tuple[RowRole, int]:
        if not 0 <= row < self.out_rows:
            raise ValueError(f"out-row {row} outside [0, {self.out_rows})")
        if row < self.n_integrators:
            return (RowRole.INTEGRATOR_OUT, row)
        row -= self.n_integrators
        if row < self.n_multipliers:
            return (RowRole.MULTIPLIER_OUT, row)
        row -= self.n_multipliers
        if self.has_const_row and row == 0:
            return (RowRole.CONST_ONE, 0)
        return (RowRole.RESERVED, row)

    # --- input rows

    def integrator_in_row(self, i: int) -> int:
        return self._checked(i, self.n_integrators, "integrator")

    def mul_a_row(self, j: int) -> int:
        return self.n_integrators + 2 * self._checked(j, self.n_multipliers, "multiplier")

    def mul_b_row(self, j: int) -> int:
        return self.n_integrators + 2 * self._checked(j, self.n_multipliers, "multiplier") + 1

    def in_row_role(self, row: int) -> tuple[RowRole, int]:
        if not 0 <= row < self.in_rows:
            raise ValueError(f"in-row {row} outside [0, {self.in_rows})")
        if row < self.n_integrators:
            return (RowRole.INTEGRATOR_IN, row)
        row -= self.n_integrators
        return (RowRole.MUL_A if row % 2 == 0 else RowRole.MUL_B, row // 2)

    @staticmethod
    def _checked(idx: int, limit: int, what: str) -> int:
        if not 0 <= idx < limit:
            raise ValueError(f"{what} index {idx} outside [0, {limit})")
        return idx


def _derived_spec(n_integrators: int, n_multipliers: int, n_lanes: int) -> MachineSpec:
    # top quarter of the lane range is low-res, constant row present
    n_low = n_lanes // 4
    out_rows = n_integrators + n_multipliers + 1
    in_rows = n_integrators + 2 * n_multipliers
    _check_size(n_lanes, out_rows, in_rows)  # before the low-res lane set is built
    return MachineSpec(
        n_integrators=n_integrators,
        n_multipliers=n_multipliers,
        n_lanes=n_lanes,
        out_rows=out_rows,
        in_rows=in_rows,
        lowres_lanes=frozenset(range(n_lanes - n_low, n_lanes)),
        has_const_row=True,
    )


def lucidac_spec() -> MachineSpec:
    """Small-machine profile: 8 integrators, 4 multipliers, 32 lanes.

    The two switch matrices are 16x32 (voltage side) and 32x16 (current
    side); lanes 24-31 are low-res.
    """
    return MachineSpec(
        n_integrators=8,
        n_multipliers=4,
        n_lanes=32,
        out_rows=16,
        in_rows=16,
        lowres_lanes=frozenset(range(24, 32)),
        has_const_row=True,
    )


def redac_tile_spec() -> MachineSpec:
    """Large-machine profile: 1000 integrators, 500 multipliers, 8000 lanes."""
    return _derived_spec(1000, 500, 8000)


def custom_spec(n_integrators: int, n_multipliers: int, n_lanes: int) -> MachineSpec:
    """Ad-hoc profile with the same row/lane conventions as the presets."""
    return _derived_spec(n_integrators, n_multipliers, n_lanes)


# --------------------------------------------------------------------------
# routed configuration


@dataclass(frozen=True, eq=False)
class MachineConfig:
    """Full interconnect state: fan-out matrix, coefficients, fan-in matrix.

    `u_source[lane]` is the output row driving the lane (or None),
    `i_dest[lane]` the input row its current feeds (or None).  A lane is
    *active* iff it has both.

    `initial_states` and `taps` (signal name -> output row) annotate the
    configuration for simulation; they are not part of the electrical
    state, so equality, hashing, and the binary image cover only
    (spec, u_source, coefficients, i_dest).
    """

    spec: MachineSpec
    u_source: tuple[Optional[int], ...]
    coefficients: tuple[CoefficientCode, ...]
    i_dest: tuple[Optional[int], ...]
    initial_states: tuple[float, ...] = ()
    taps: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        n = self.spec.n_lanes
        if not (len(self.u_source) == len(self.coefficients) == len(self.i_dest) == n):
            raise ValueError("lane arrays must have spec.n_lanes entries")
        if not self.initial_states:
            object.__setattr__(self, "initial_states", (0.0,) * self.spec.n_integrators)
        elif len(self.initial_states) != self.spec.n_integrators:
            raise ValueError("initial_states must have one entry per integrator")

    def __eq__(self, other):
        if not isinstance(other, MachineConfig):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.u_source == other.u_source
            and self.coefficients == other.coefficients
            and self.i_dest == other.i_dest
        )

    def __hash__(self):
        return hash((self.spec, self.u_source, self.coefficients, self.i_dest))

    @staticmethod
    def empty(spec: MachineSpec) -> "MachineConfig":
        coefficients = [CoefficientCode.highres(0)] * spec.n_lanes
        for lane in spec.lowres_lanes:
            coefficients[lane] = CoefficientCode.lowres(0)
        return MachineConfig(
            spec=spec,
            u_source=(None,) * spec.n_lanes,
            coefficients=tuple(coefficients),
            i_dest=(None,) * spec.n_lanes,
        )

    def is_active(self, lane: int) -> bool:
        return self.u_source[lane] is not None and self.i_dest[lane] is not None

    def active_lanes(self) -> list[int]:
        return [k for k in range(self.spec.n_lanes) if self.is_active(k)]

    def with_coeff(self, lane: int, code: CoefficientCode) -> "MachineConfig":
        c = list(self.coefficients)
        c[lane] = code
        return replace(self, coefficients=tuple(c))


def validate_config(config: MachineConfig) -> list[str]:
    """Check every configuration invariant; an empty list means ok.

    Each violation names the lane (or row) and the rule it breaks.
    """
    spec = config.spec
    high_zero, low_zero = CoefficientCode.highres(0), CoefficientCode.lowres(0)
    violations = []
    for lane, (src, coeff, dst) in enumerate(zip(config.u_source, config.coefficients, config.i_dest)):
        # an unused lane holding its kind's shared zero code breaks no rule
        if src is None and dst is None and coeff is (low_zero if lane in spec.lowres_lanes else high_zero):
            continue
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


def format_config(config: MachineConfig) -> str:
    """Textual dump of the active lanes, one per line, ascending lane order."""
    lines = []
    for lane in config.active_lanes():
        coeff = config.coefficients[lane]
        lines.append(
            f"LANE {lane}: row{config.u_source[lane]} "
            f"--[{decode(coeff)!r} ({coeff.kind.value},{coeff.code})]--> row{config.i_dest[lane]}"
        )
    return "\n".join(lines)
