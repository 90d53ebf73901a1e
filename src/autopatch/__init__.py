"""autopatch: an ODE-to-analog-computer toolchain.

Pipeline: DSL source -> validated Program -> expanded PolySystem ->
summer-free CircuitGraph -> placed/routed MachineConfig -> binary image,
plus a fixed-step simulator for both the routed machine and the polynomial
reference system, and a three-stage switch-fabric model.
"""

__version__ = "0.1.0"

from .dsl import Program, compile_source, parse, tokenize, validate
from .circuit import CircuitGraph, PolySystem, build_circuit, detect_algebraic_loops, normalize
from .machine import (
    CoefficientCode,
    MachineConfig,
    MachineSpec,
    decode,
    lucidac_spec,
    quantize_highres,
    redac_tile_spec,
    validate_config,
)
from .router import PlaceRouteReport, RoutedDesign, route_design
from .bitstream import DeltaScript, apply, decode_delta, diff, encode, encode_delta, image_length
from .bitstream import decode as decode_image
from .fabric import FabricSpec, FabricState, StageSpec, blocking_experiment, simstar_spec, switch_count
from .sim import SimSettings, Trace, build_dynamics, emit_traces, run, run_reference

__all__ = [
    "__version__",
    "Program", "compile_source", "parse", "tokenize", "validate",
    "CircuitGraph", "PolySystem", "build_circuit", "detect_algebraic_loops", "normalize",
    "CoefficientCode", "MachineConfig", "MachineSpec", "decode",
    "lucidac_spec", "quantize_highres", "redac_tile_spec", "validate_config",
    "PlaceRouteReport", "RoutedDesign", "route_design",
    "DeltaScript", "apply", "decode_delta", "diff", "encode", "encode_delta", "image_length", "decode_image",
    "FabricSpec", "FabricState", "StageSpec", "blocking_experiment", "simstar_spec", "switch_count",
    "SimSettings", "Trace", "build_dynamics", "emit_traces", "run", "run_reference",
]
