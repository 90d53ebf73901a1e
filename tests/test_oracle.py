"""Random-program oracle: random polynomial programs, compiled and routed,
must simulate like the reference evaluator, and like their decoded image.

For each drawn program (1-5 states, degree <= 4, on lucidac and on an
8-integrator, 16-multiplier, 64-lane machine):

- the hardware model with quantization bypassed (exact lane weights) agrees
  with `run_reference` within 1e-9 relative to the reference's largest
  |sample| (at least 1);
- the quantized models built from the routed configuration and from
  `bitstream.decode(encode(config))` give identical traces and peaks.

Programs the machine cannot hold (`CapacityError`) are skipped.
"""

import dataclasses

from hypothesis import assume, given, settings
import hypothesis.strategies as st

import support
from autopatch.bitstream import decode, encode
from autopatch.circuit import build_circuit, normalize
from autopatch.machine import MachineSpec, lucidac_spec
from autopatch.router import CapacityError, route_design
from autopatch.sim import NonFiniteError, SimSettings, build_dynamics, max_abs_deviation, run, run_reference

SPECS = [lucidac_spec(), MachineSpec(8, 16, 64)]
SETTINGS = SimSettings(dt=0.01, t_end=0.5)


def outcome(model):
    """The run of `model` from its initial state, or the error that ended it."""
    return simulated(run, model, model.initial, SETTINGS)


def simulated(simulate, *args):
    try:
        return simulate(*args)
    except NonFiniteError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 5), spec=st.sampled_from(SPECS))
def test_random_program_matches_reference_and_image(seed, n_states, spec):
    program = support.random_program(seed, n_states)
    system = normalize(program)
    try:
        design = route_design(build_circuit(system, program), spec)
    except CapacityError:
        assume(False)

    bypass = build_dynamics(design.config, lane_weights=design.lane_weight_map())
    hw, ref = outcome(bypass), simulated(run_reference, system, SETTINGS)
    assume(not isinstance(ref, str))
    assert not isinstance(hw, str), hw
    assert hw.times == ref.times and hw.signals.keys() == ref.signals.keys()
    scale = max([1.0] + [abs(v) for samples in ref.signals.values() for v in samples])
    assert max_abs_deviation(hw, ref) <= 1e-9 * scale

    config = design.config
    image = dataclasses.replace(decode(encode(config), spec), initial_states=config.initial_states, taps=config.taps)
    assert image == config
    # a Trace compares times, signals, clip events and peaks
    assert outcome(build_dynamics(image)) == outcome(build_dynamics(config))
