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

`dependency_order` orders elements by what they read, and `LoopError`
names a cycle without an integrator; the compiler's loop check and the
simulator's multiplier order both use them, so they live here, below both.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional

HIGHRES_MIN = -2048
HIGHRES_MAX = 2047
HIGHRES_LSB = 10.0 / 2048.0

#: Decoded value per 3-bit low-res code, index == code.
LOWRES_TABLE = (10.0, 1.0, 0.5, 0.1, -0.1, -0.5, -1.0, -10.0)


class NodeKind(Enum):
    """Kind of a circuit node, and of the machine output row it drives."""

    INTEGRATOR = "Integrator"
    MULTIPLIER = "Multiplier"
    CONST_ONE = "ConstOne"


class Port(Enum):
    """Input port an edge lands on, and the machine input row it reads."""

    INTEGRATOR_IN = "IntegratorIn"
    MUL_A = "MulA"
    MUL_B = "MulB"


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
# the shared instance for a code, or None while there is none: one dict
# lookup, for a caller that resolves many codes and builds on a miss
shared_highres = _HIGHRES_CODES.get
shared_lowres = _LOWRES_CODES.get


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
    # clamp to one step past the rails first: a huge gain scales to inf, which round() refuses
    raw = round(min(max(value * 2048.0 / 10.0, HIGHRES_MIN - 1.0), HIGHRES_MAX + 1.0))
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


_LOWRES_CODE_OF = {value: code for code, value in enumerate(LOWRES_TABLE)}


def lowres_code_for(value: float) -> Optional[int]:
    """Code realizing `value` exactly on a low-res lane, or None.

    Deliberately an exact comparison: 0.09999 must not snap to 0.1.  A
    dict lookup compares as `LOWRES_TABLE.index` does (equal numbers hash
    alike, so `1` finds code 1), without raising for a miss.
    """
    return _LOWRES_CODE_OF.get(value)


# --------------------------------------------------------------------------
# machine geometry


#: Largest geometry the binary formats can address: a delta record carries
#: its lane as a u16, and the row payload 0xFFFF means "no row".
MAX_LANES = 65536
MAX_ROWS = 65534


@dataclass(frozen=True)
class MachineSpec:
    """Parametric geometry of one interconnect tile.

    The four constructor values are the whole geometry; `out_rows`,
    `in_rows` and `lowres_lanes` follow from them.  Row conventions (fixed
    so that bitstreams and tests are reproducible): output rows list
    integrator outputs first, then multiplier outputs, then the constant-one
    row, then `reserved_rows` rows that no element drives; input rows list
    integrator inputs first, then multiplier port pairs (A then B per
    multiplier).  The top quarter of the lanes (rounded down) is low-res.
    """

    n_integrators: int
    n_multipliers: int
    n_lanes: int
    reserved_rows: int = 0
    out_rows: int = field(init=False, repr=False, compare=False)
    in_rows: int = field(init=False, repr=False, compare=False)
    lowres_lanes: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        out_rows = self.n_integrators + self.n_multipliers + 1 + self.reserved_rows
        in_rows = self.n_integrators + 2 * self.n_multipliers
        # the format limits come first, so an oversized geometry is named as such
        if self.n_lanes > MAX_LANES:
            raise ValueError(f"{self.n_lanes} lanes exceed the format limit of {MAX_LANES}")
        for rows, what in ((out_rows, "output"), (in_rows, "input")):
            if rows > MAX_ROWS:
                raise ValueError(f"{rows} {what} rows exceed the format limit of {MAX_ROWS}")
        if min(self.n_integrators, self.n_multipliers, self.n_lanes, self.reserved_rows) < 0:
            raise ValueError("negative geometry")
        object.__setattr__(self, "out_rows", out_rows)
        object.__setattr__(self, "in_rows", in_rows)
        object.__setattr__(self, "lowres_lanes", frozenset(range(self.n_lanes - self.n_lanes // 4, self.n_lanes)))

    def out_row(self, kind: Optional[NodeKind], slot: int) -> int:
        """The out-row that element `slot` of `kind` drives, or for kind None
        the reserved row `slot` past the element rows: the inverse of
        `out_row_role`."""
        n_elements = self.n_integrators + self.n_multipliers
        if kind is NodeKind.INTEGRATOR:
            first, low, limit, what = 0, 0, self.n_integrators, "integrator"
        elif kind is NodeKind.MULTIPLIER:
            first, low, limit, what = self.n_integrators, 0, self.n_multipliers, "multiplier"
        elif kind is NodeKind.CONST_ONE:
            first, low, limit, what = n_elements, 0, 1, "constant"
        else:  # the reserved rows follow the constant row
            first, low, limit, what = n_elements, 1, 1 + self.reserved_rows, "reserved row"
        if not low <= slot < limit:
            raise ValueError(f"{what} index {slot} outside [{low}, {limit})")
        return first + slot

    def out_row_role(self, row: int) -> tuple[Optional[NodeKind], int]:
        """The element that drives out-row `row`, as (kind, slot), or
        (None, offset past the element rows) for a reserved row."""
        if not 0 <= row < self.out_rows:
            raise ValueError(f"out-row {row} outside [0, {self.out_rows})")
        if row < self.n_integrators:
            return (NodeKind.INTEGRATOR, row)
        row -= self.n_integrators
        if row < self.n_multipliers:
            return (NodeKind.MULTIPLIER, row)
        row -= self.n_multipliers
        if row == 0:
            return (NodeKind.CONST_ONE, 0)
        return (None, row)

    def in_row(self, port: Port, slot: int) -> int:
        """The in-row that feeds `port` of element `slot`: the inverse of
        `in_row_role`."""
        if port is Port.INTEGRATOR_IN:
            first, width, limit, what = 0, 1, self.n_integrators, "integrator"
        else:
            first, width, limit, what = self.n_integrators + (port is Port.MUL_B), 2, self.n_multipliers, "multiplier"
        if not 0 <= slot < limit:
            raise ValueError(f"{what} index {slot} outside [0, {limit})")
        return first + width * slot

    def in_row_role(self, row: int) -> tuple[Port, int]:
        """The element port that in-row `row` feeds, as (port, slot)."""
        if not 0 <= row < self.in_rows:
            raise ValueError(f"in-row {row} outside [0, {self.in_rows})")
        if row < self.n_integrators:
            return (Port.INTEGRATOR_IN, row)
        row -= self.n_integrators
        return (Port.MUL_A if row % 2 == 0 else Port.MUL_B, row // 2)


def lucidac_spec() -> MachineSpec:
    """Small-machine profile: 8 integrators, 4 multipliers, 32 lanes.

    The two switch matrices are 16x32 (voltage side) and 32x16 (current
    side); lanes 24-31 are low-res and out-rows 13-15 are reserved.
    """
    return MachineSpec(8, 4, 32, reserved_rows=3)


def redac_tile_spec() -> MachineSpec:
    """Large-machine profile: 1000 integrators, 500 multipliers, 8000 lanes."""
    return MachineSpec(1000, 500, 8000)


# --------------------------------------------------------------------------
# routed configuration


@dataclass(frozen=True)
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
    initial_states: tuple[float, ...] = field(default=(), compare=False)
    taps: tuple[tuple[str, int], ...] = field(default=(), compare=False)

    def __post_init__(self):
        n = self.spec.n_lanes
        if not (len(self.u_source) == len(self.coefficients) == len(self.i_dest) == n):
            raise ValueError("lane arrays must have spec.n_lanes entries")
        if not self.initial_states:
            object.__setattr__(self, "initial_states", (0.0,) * self.spec.n_integrators)
        elif len(self.initial_states) != self.spec.n_integrators:
            raise ValueError("initial_states must have one entry per integrator")

    @staticmethod
    def empty(spec: MachineSpec) -> "MachineConfig":
        n_low = len(spec.lowres_lanes)  # the low-res lanes are the top ones
        return MachineConfig(
            spec=spec,
            u_source=(None,) * spec.n_lanes,
            coefficients=(CoefficientCode.highres(0),) * (spec.n_lanes - n_low) + (CoefficientCode.lowres(0),) * n_low,
            i_dest=(None,) * spec.n_lanes,
        )

    def is_active(self, lane: int) -> bool:
        return self.u_source[lane] is not None and self.i_dest[lane] is not None

    def active_lanes(self) -> list[int]:
        return [k for k in range(self.spec.n_lanes) if self.is_active(k)]


def validate_config(config: MachineConfig) -> list[str]:
    """Check every configuration invariant; an empty list means ok.

    Each violation names the lane (or row) and the rule it breaks.
    """
    spec = config.spec
    high_zero, low_zero = CoefficientCode.highres(0), CoefficientCode.lowres(0)
    # bound once: a member lookup on the enum class costs ~0.1 µs per lane
    low_res, high_res = CoefKind.LOW_RES, CoefKind.HIGH_RES
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
        want = low_res if lane in spec.lowres_lanes else high_res
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


# --------------------------------------------------------------------------
# element ordering


class LoopError(Exception):
    """A cycle with no integrator on it (an algebraic loop).  `cycle`
    lists its elements in signal-flow order, the first repeated last."""

    def __init__(self, cycle: list):
        super().__init__(f"algebraic loop without an integrator: {' -> '.join(map(str, cycle))}")
        self.cycle = cycle


def dependency_order(reads: Mapping[int, Iterable[int]]) -> list[int]:
    """Order the keys of `reads` so that each comes after every key it
    reads.  Values that are not keys are inputs and impose no order; among
    keys whose reads are all placed, the smallest goes first.  Raises
    LoopError naming one cycle when no such order exists.
    """
    pending = {k: {r for r in deps if r in reads} for k, deps in reads.items()}
    readers: dict[int, list[int]] = {k: [] for k in reads}
    for k, deps in pending.items():
        for r in deps:
            readers[r].append(k)
    ready = [k for k, deps in pending.items() if not deps]
    heapq.heapify(ready)
    order = []
    while ready:
        k = heapq.heappop(ready)
        order.append(k)
        for reader in readers[k]:
            pending[reader].discard(k)
            if not pending[reader]:
                heapq.heappush(ready, reader)
    if len(order) == len(reads):
        return order
    # every key left over still reads another left-over key, so following
    # those reads from any of them must come back to a key already seen
    key = min(k for k, deps in pending.items() if deps)
    path: list[int] = []
    seen: dict[int, int] = {}
    while key not in seen:
        seen[key] = len(path)
        path.append(key)
        key = min(pending[key])
    raise LoopError((path[seen[key]:] + [key])[::-1])
