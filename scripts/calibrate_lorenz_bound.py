#!/usr/bin/env python3
"""Reference-oracle run fixing the machine-range regression bound.

Integrates the expanded chaotic-oscillator system (unquantized weights)
and the routed, quantized hardware over a long horizon and reports each
path's peaks and largest |signal|; the acceptance suite freezes a bound
just above these values and asserts that the hardware run stays inside it.

Usage: python3 scripts/calibrate_lorenz_bound.py [t_end]
"""

import sys
from pathlib import Path

from autopatch import build_circuit, compile_source, lucidac_spec, normalize
from autopatch.router import route_design
from autopatch.sim import SimSettings, build_dynamics, run, run_reference


def main() -> int:
    t_end = float(sys.argv[1]) if len(sys.argv) > 1 else 100.0
    source = (Path(__file__).resolve().parent.parent / "programs" / "lorenz.odedsl").read_text()
    program = compile_source(source)
    system = normalize(program)
    settings = SimSettings(dt=1e-3, t_end=t_end)

    reference = run_reference(system, settings)
    ref_worst = max(reference.peaks.values())
    print(f"reference peaks over [0, {t_end:g}]: "
          f"{ {k: round(v, 6) for k, v in sorted(reference.peaks.items())} }")
    print(f"reference max |signal|: {ref_worst:.6f}")

    design = route_design(build_circuit(system, program), lucidac_spec())
    model = build_dynamics(design.config)
    hardware = run(model, model.initial, settings)
    hw_worst = max(hardware.peaks.values())
    print(f"hardware peaks over [0, {t_end:g}]: "
          f"{ {k: round(v, 6) for k, v in sorted(hardware.peaks.items())} }")
    print(f"hardware  max |signal|: {hw_worst:.6f} (quantized coefficients)")
    print(f"suggested frozen bound: {max(ref_worst, hw_worst) * 1.005 + 0.005:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
