"""Three-stage switch fabric: geometry, greedy routing, blocking analysis.

The fabric is a classic input/middle/output block hierarchy.  Within a
stage every block is a full crossbar of `inputs_per_block x
outputs_per_block` switches; the stage ratio e = outputs/inputs makes a
block a concentrator (e < 1), an expander (e > 1), or square.  Inter-stage
wiring is the standard one: output link j of input block i lands on input
i of middle block j, and output link k of middle block j lands on input j
of output block k.  Extra output-stage inputs beyond the number of middle
blocks are unconnected spares.

Every inter-stage link carries at most one route.  A fabric output
terminates at most one route, which its callers keep by asking for
distinct outputs; a fabric input may feed any number of outputs (fan-out
happens inside its input block).  The one routing rule is
`FabricState.claim`, greedy first-fit over middle blocks from an input
block to an output block with no rearrangement: for an analog program a
blocked request means the program cannot be patched at all, so the
interesting output is the blocking verdict itself.  Link occupancy is one
int bitmask per input and per output block, so first-fit is one bit step.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import _Record

MAX_PORTS = 1 << 16  # most inputs or outputs of any stage that a FabricState models
MAX_REQUESTS = 10**8  # most requests, trials times load, that a blocking experiment issues


class StageSpec(_Record):
    """One stage: `blocks` crossbars of `inputs_per_block x
    outputs_per_block` switches, checked when made.  No code assigns to a
    field."""

    __slots__ = ("blocks", "inputs_per_block", "outputs_per_block")

    def __init__(self, blocks: int, inputs_per_block: int, outputs_per_block: int):
        if min(blocks, inputs_per_block, outputs_per_block) < 1:
            raise ValueError("stage dimensions must be positive")
        self.blocks = blocks
        self.inputs_per_block = inputs_per_block
        self.outputs_per_block = outputs_per_block

    def switch_count(self) -> int:
        return self.blocks * self.inputs_per_block * self.outputs_per_block


class FabricSpec(NamedTuple):
    input: StageSpec
    middle: StageSpec
    output: StageSpec

    def check_wirable(self) -> None:
        """Verify the stages fit MAX_PORTS and can be joined by the standard
        wiring; extra middle/output-stage inputs are unconnected spares."""
        ports = max(s.blocks * max(s.inputs_per_block, s.outputs_per_block) for s in (self.input, self.middle, self.output))
        if ports > MAX_PORTS:
            raise ValueError(f"a fabric stage has {ports} inputs or outputs; at most {MAX_PORTS} are modelled")
        if self.input.outputs_per_block > self.middle.blocks:
            raise ValueError("input blocks have more output links than middle blocks")
        if self.input.blocks > self.middle.inputs_per_block:
            raise ValueError("middle blocks have fewer inputs than there are input blocks")
        if self.middle.outputs_per_block > self.output.blocks:
            raise ValueError("middle blocks have more output links than output blocks")
        if self.middle.blocks > self.output.inputs_per_block:
            raise ValueError("output blocks have fewer inputs than there are middle blocks")

    @property
    def total_inputs(self) -> int:
        return self.input.blocks * self.input.inputs_per_block

    @property
    def total_outputs(self) -> int:
        return self.output.blocks * self.output.outputs_per_block


def simstar_spec() -> FabricSpec:
    """The 320-in/512-out production geometry: twenty 16x20 input blocks,
    twenty 20x32 middle blocks, thirty-two 22x16 output blocks."""
    return FabricSpec(
        input=StageSpec(20, 16, 20),
        middle=StageSpec(20, 20, 32),
        output=StageSpec(32, 22, 16),
    )


def switch_count(spec: FabricSpec) -> int:
    """Total crosspoint switches over all three stages."""
    return spec.input.switch_count() + spec.middle.switch_count() + spec.output.switch_count()


class FabricState:
    """Live link occupancy of one fabric: bit j of `in_busy[i]` is set
    while the link from input block i to middle block j carries a route,
    bit j of `out_busy[b]` while the link from middle block j to output
    block b does.  `claim` is the one routing rule.  Nothing is ever
    released: a blocking trial starts from a fresh state.
    """

    def __init__(self, spec: FabricSpec):
        spec.check_wirable()
        self.spec = spec
        self._wired = (1 << spec.input.outputs_per_block) - 1  # middle blocks an input block reaches
        self._reachable = spec.middle.outputs_per_block  # output blocks the middle stage reaches
        self.in_busy = [0] * spec.input.blocks
        self.out_busy = [0] * spec.output.blocks

    def claim(self, ib: int, ob: int) -> int:
        """Claim the lowest middle block whose links from input block `ib`
        and to output block `ob` are both free, and return it; both are
        block indices in range.  If there is none, return -1 and leave the
        state unchanged."""
        free = self._wired & ~(self.in_busy[ib] | self.out_busy[ob]) if ob < self._reachable else 0
        if not free:
            return -1
        bit = free & -free
        self.in_busy[ib] |= bit
        self.out_busy[ob] |= bit
        return bit.bit_length() - 1


class ExperimentResult(NamedTuple):
    blocked_fraction: float
    mean_routed: float


def blocking_experiment(spec: FabricSpec, load: int, trials: int, seed: int) -> ExperimentResult:
    """Monte Carlo blocking estimate under random request sequences.

    Each trial starts from an empty fabric and issues `load` requests, each
    pairing a uniformly random input with a fresh output drawn (without
    replacement) from the outputs not yet requested this trial; a blocked
    request still consumes its output draw.  Trials are seeded
    independently from (seed, trial index), so results are reproducible
    and trial-parallelizable.  Reports the fraction of trials suffering at
    least one block and the mean number of routed requests per trial.

    Each index below n (the input, then the slot among the unused outputs)
    is drawn by `getrandbits` rejection sampling: n.bit_length() bits,
    redrawn while the value is n or more.  That is how `randrange(n)` draws
    on CPython 3.10-3.13, so the draws are exactly those of
    `random.Random(f"{seed}:{trial}").randrange`;
    `tests/test_fabric.py::TestMatchesMatrixOccupancy::test_blocking_experiment`
    compares against a loop that calls `randrange`.
    """
    if not 0 <= load <= spec.total_outputs:
        raise ValueError(f"load {load} outside [0, {spec.total_outputs}]")
    if trials < 1:
        raise ValueError("need at least one trial")
    requests = trials * max(load, 1)  # a trial at load 0 still costs a reseed
    if requests > MAX_REQUESTS:
        raise ValueError(f"{trials} trials at load {load} issue {requests} requests; at most {MAX_REQUESTS} are run")
    spec.check_wirable()  # before the per-output list, whose size the spec sets
    n_inputs, n_outputs = spec.total_inputs, spec.total_outputs
    inputs_per_block, input_bits = spec.input.inputs_per_block, n_inputs.bit_length()
    block_of_output = [output // spec.output.outputs_per_block for output in range(n_outputs)]
    rng = random.Random()
    reseed, getrandbits = rng.seed, rng.getrandbits
    blocked_trials = 0
    routed_total = 0
    for trial in range(trials):
        reseed(f"{seed}:{trial}")
        claim = FabricState(spec).claim
        unused = block_of_output.copy()  # block ids of the outputs not yet requested
        routed = 0
        for remaining in range(n_outputs, n_outputs - load, -1):
            input = getrandbits(input_bits)
            while input >= n_inputs:
                input = getrandbits(input_bits)
            bits = remaining.bit_length()
            k = getrandbits(bits)
            while k >= remaining:
                k = getrandbits(bits)
            ob, unused[k] = unused[k], unused[-1]
            unused.pop()
            routed += claim(input // inputs_per_block, ob) >= 0
        routed_total += routed
        blocked_trials += routed < load
    return ExperimentResult(blocked_trials / trials, routed_total / trials)
