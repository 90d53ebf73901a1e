"""autopatch: an ODE-to-analog-computer toolchain.

Pipeline: DSL source -> validated Program -> expanded PolySystem ->
summer-free CircuitGraph -> placed/routed MachineConfig -> binary image,
plus a fixed-step simulator for both the routed machine and the polynomial
reference system, and a three-stage switch-fabric model.

`import autopatch` loads no submodule: each public name below imports its
home module on first access, so a process pays only for the layers it uses.
`_Record`, the base of the submodules' plain records, lives here because
every submodule loads this module anyway.
"""

import importlib

__version__ = "0.1.0"


class _Record:
    """Field-wise equality, hash and repr over `__slots__`, in slot order.
    A record writes its own `__init__`, so no class is built from generated
    code at import."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


#: public name -> (home module, attribute)
_EXPORTS = {
    name: (module, name)
    for module, names in (
        ("dsl", "Program compile_source parse tokenize validate"),
        ("circuit", "CircuitGraph PolySystem build_circuit detect_algebraic_loops normalize"),
        ("machine", "CoefficientCode MachineConfig MachineSpec decode lucidac_spec quantize_highres "
                    "redac_tile_spec validate_config"),
        ("router", "PlaceRouteReport RoutedDesign route_design"),
        ("bitstream", "DeltaScript apply decode_delta diff encode encode_delta image_length"),
        ("fabric", "FabricSpec FabricState StageSpec blocking_experiment simstar_spec switch_count"),
        ("sim", "SimSettings Trace build_dynamics emit_traces run run_reference"),
    )
    for name in names.split()
}
_EXPORTS["decode_image"] = ("bitstream", "decode")

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    try:
        module, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), attribute)
    globals()[name] = value
    return value
