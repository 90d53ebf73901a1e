import random
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from autopatch.fabric import (
    ExperimentResult,
    FabricSpec,
    MAX_PORTS,
    FabricState,
    StageSpec,
    blocking_experiment,
    simstar_spec,
    switch_count,
)


class TestGeometry:
    def test_production_spec_shape(self):
        spec = simstar_spec()
        assert spec.total_inputs == 320
        assert spec.total_outputs == 512

    def test_switch_count_production(self):
        assert switch_count(simstar_spec()) == 30464

    def test_switch_count_single_crossbar(self):
        assert StageSpec(1, 320, 512).switch_count() == 163840

    def test_switch_count_trivial(self):
        assert StageSpec(1, 1, 1).switch_count() == 1

    def test_switch_count_linear_in_blocks(self):
        base = simstar_spec()
        doubled = FabricSpec(
            StageSpec(base.input.blocks * 2, 16, 20),
            StageSpec(base.middle.blocks * 2, 20, 32),
            StageSpec(base.output.blocks * 2, 22, 16),
        )
        assert switch_count(doubled) == 2 * switch_count(base)

    def test_stage_dimensions_positive(self):
        with pytest.raises(ValueError):
            StageSpec(0, 16, 20)

    def test_unwirable_spec_rejected_at_state_construction(self):
        bad = FabricSpec(StageSpec(2, 4, 9), StageSpec(8, 2, 3), StageSpec(3, 8, 4))
        with pytest.raises(ValueError, match="output links"):
            FabricState(bad)

    @pytest.mark.parametrize(
        "make, text",
        [
            (lambda: StageSpec(2, 3, 4), "StageSpec(blocks=2, inputs_per_block=3, outputs_per_block=4)"),
            (
                lambda: FabricSpec(StageSpec(1, 1, 2), StageSpec(2, 1, 1), StageSpec(1, 2, 1)),
                "FabricSpec(input=StageSpec(blocks=1, inputs_per_block=1, outputs_per_block=2), "
                "middle=StageSpec(blocks=2, inputs_per_block=1, outputs_per_block=1), "
                "output=StageSpec(blocks=1, inputs_per_block=2, outputs_per_block=1))",
            ),
            (lambda: ExperimentResult(0.25, 3.5), "ExperimentResult(blocked_fraction=0.25, mean_routed=3.5)"),
        ],
        ids=["stage", "fabric", "experiment result"],
    )
    def test_record(self, make, text):
        """Field-wise equality and hash, no `__dict__`, and the repr a
        dataclass gave them."""
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b) and a
        assert not hasattr(a, "__dict__")
        assert repr(a) == text
        assert a != ExperimentResult(9.0, 9.0)


def release(state, ib, ob, j):
    """Tear down the route that `state.claim(ib, ob)` gave middle block j."""
    state.in_busy[ib] &= ~(1 << j)
    state.out_busy[ob] &= ~(1 << j)


def check_invariants(state, routed):
    """Assert that each of the `routed` routes holds one link of each
    hop.  A link used by two routes shows as a popcount below it."""
    links = [sum(mask.bit_count() for mask in masks) for masks in (state.in_busy, state.out_busy)]
    assert links == [routed] * 2, "link occupancy out of step with routes"


def snapshot(state):
    return tuple(state.in_busy), tuple(state.out_busy)


def blocks(spec, input, output):
    """The (input block, output block) of a request from `input` to `output`."""
    return input // spec.input.inputs_per_block, output // spec.output.outputs_per_block


# input blocks reach 3 of the 5 middle blocks, and output blocks 2 and 3
# have no middle link, so both kinds of block occur
SMALL_SPEC = FabricSpec(StageSpec(3, 2, 3), StageSpec(5, 3, 2), StageSpec(4, 5, 2))


class TestRouting:
    def test_first_request_uses_middle_zero(self):
        assert FabricState(simstar_spec()).claim(0, 0) == 0

    def test_identity_map_routes_without_blocking(self):
        spec = simstar_spec()
        state = FabricState(spec)
        for k in range(320):
            assert state.claim(*blocks(spec, k, k)) >= 0, f"request {k} blocked"
        check_invariants(state, 320)

    def test_block_after_saturating_input_block_links(self):
        spec = simstar_spec()
        state = FabricState(spec)
        # 20 routes from input 0 exhaust its 20 middle-stage links
        assert [state.claim(*blocks(spec, 0, 16 * b)) for b in range(20)] == list(range(20))
        assert state.claim(*blocks(spec, 0, 400)) == -1

    def test_blocked_leaves_state_unchanged(self):
        spec = simstar_spec()
        state = FabricState(spec)
        for b in range(20):
            state.claim(*blocks(spec, 0, 16 * b))
        before = snapshot(state)
        assert state.claim(*blocks(spec, 0, 401)) == -1
        assert snapshot(state) == before

    def test_unreachable_output_block_always_blocks(self):
        state = FabricState(SMALL_SPEC)
        before = snapshot(state)
        for ib in range(SMALL_SPEC.input.blocks):
            for ob in range(SMALL_SPEC.middle.outputs_per_block, SMALL_SPEC.output.blocks):
                assert state.claim(ib, ob) == -1
        assert snapshot(state) == before

    def test_teardown_restores_identical_state(self):
        spec = simstar_spec()
        state = FabricState(spec)
        state.claim(*blocks(spec, 17, 33))
        before = snapshot(state)
        ib, ob = blocks(spec, 5, 100)
        release(state, ib, ob, state.claim(ib, ob))
        assert snapshot(state) == before

    def test_invariants_under_random_churn(self):
        rng = random.Random(31337)
        spec = simstar_spec()
        state = FabricState(spec)
        routes = []
        for _ in range(500):
            if routes and rng.random() < 0.4:
                release(state, *routes.pop(rng.randrange(len(routes))))
            else:
                ib, ob = blocks(spec, rng.randrange(spec.total_inputs), rng.randrange(spec.total_outputs))
                j = state.claim(ib, ob)
                if j >= 0:
                    routes.append((ib, ob, j))
            check_invariants(state, len(routes))

    def test_conservation(self):
        spec = simstar_spec()
        state = FabricState(spec)
        routed = sum(state.claim(*blocks(spec, k % 320, k)) >= 0 for k in range(40))
        check_invariants(state, routed)


class TestBlockingExperiment:
    def test_zero_load_never_blocks(self):
        result = blocking_experiment(simstar_spec(), load=0, trials=10, seed=1)
        assert result == ExperimentResult(0.0, 0.0)

    def test_single_request_never_blocks(self):
        result = blocking_experiment(simstar_spec(), load=1, trials=20, seed=1)
        assert result.blocked_fraction == 0.0
        assert result.mean_routed == 1.0

    def test_deterministic_for_fixed_seed(self):
        a = blocking_experiment(simstar_spec(), load=200, trials=20, seed=7)
        b = blocking_experiment(simstar_spec(), load=200, trials=20, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = blocking_experiment(simstar_spec(), load=320, trials=20, seed=7)
        b = blocking_experiment(simstar_spec(), load=320, trials=20, seed=8)
        assert a != b

    def test_load_bounds(self):
        with pytest.raises(ValueError):
            blocking_experiment(simstar_spec(), load=513, trials=1, seed=0)


class MatrixFabric:
    """The boolean-matrix occupancy that `FabricState` replaced, kept as a
    reference for the same `claim(ib, ob)` contract: `in_mid[i][j]` /
    `mid_out[j][b]` mark the link from input block i to middle block j /
    from middle block j to output block b.  A specification, not a
    transitional copy: it pins the fabric's random draws against
    `randrange`."""

    def __init__(self, spec):
        spec.check_wirable()
        self.spec = spec
        self.in_mid = [[False] * spec.middle.blocks for _ in range(spec.input.blocks)]
        self.mid_out = [[False] * spec.output.blocks for _ in range(spec.middle.blocks)]

    def claim(self, ib, ob):
        if ob >= self.spec.middle.outputs_per_block:
            return -1
        in_links = self.in_mid[ib]
        for j in range(min(self.spec.middle.blocks, self.spec.input.outputs_per_block)):
            if in_links[j] or self.mid_out[j][ob]:
                continue
            in_links[j] = True
            self.mid_out[j][ob] = True
            return j
        return -1

    def release(self, ib, ob, j):
        self.in_mid[ib][j] = False
        self.mid_out[j][ob] = False


def matrix_blocking_experiment(spec, load, trials, seed):
    """The Monte Carlo loop as it was over `MatrixFabric`, drawing with `randrange`."""
    blocked_trials = 0
    routed_total = 0
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        state = MatrixFabric(spec)
        unused = list(range(spec.total_outputs))
        blocked = False
        for _ in range(load):
            input = rng.randrange(spec.total_inputs)
            k = rng.randrange(len(unused))
            output = unused[k]
            unused[k] = unused[-1]
            unused.pop()
            if state.claim(*blocks(spec, input, output)) < 0:
                blocked = True
            else:
                routed_total += 1
        if blocked:
            blocked_trials += 1
    return ExperimentResult(blocked_trials / trials, routed_total / trials)


# rejection-sampling edge cases of the request draws: one input, so every
# input draw of a 1-bit value 1 is rejected (output blocks 2 and 3 are
# unreachable, so the result depends on the output draws that follow); and
# 16 inputs (a power of two, drawn from 5 bits) beside 12 outputs (not one)
ONE_INPUT_SPEC = FabricSpec(StageSpec(1, 1, 3), StageSpec(3, 1, 2), StageSpec(4, 3, 2))
SIXTEEN_INPUT_SPEC = FabricSpec(StageSpec(4, 4, 3), StageSpec(3, 4, 4), StageSpec(4, 3, 3))


def assert_same_occupancy(state, ref):
    spec = state.spec
    for i in range(spec.input.blocks):
        assert [bool(state.in_busy[i] >> j & 1) for j in range(spec.middle.blocks)] == ref.in_mid[i]
    for b in range(spec.output.blocks):
        assert [bool(state.out_busy[b] >> j & 1) for j in range(spec.middle.blocks)] == [
            ref.mid_out[j][b] for j in range(spec.middle.blocks)
        ]


@st.composite
def wirable_specs(draw):
    """A small wirable spec.  Middle and output blocks may have spare
    inputs, input blocks may reach only some middle blocks, and output
    blocks may lie past the middle stage's reach."""
    size = st.integers(1, 5)
    inputs, middles, outputs = draw(size), draw(size), draw(size)
    spare = st.integers(0, 2)
    return FabricSpec(
        StageSpec(inputs, draw(size), draw(st.integers(1, middles))),
        StageSpec(middles, inputs + draw(spare), draw(st.integers(1, outputs))),
        StageSpec(outputs, middles + draw(spare), draw(size)),
    )


class TestMatchesMatrixOccupancy:
    @pytest.mark.parametrize("spec, seed", [(simstar_spec(), 1), (simstar_spec(), 2), (SMALL_SPEC, 3), (SMALL_SPEC, 4)])
    def test_random_churn(self, spec, seed):
        rng = random.Random(seed)
        state, ref = FabricState(spec), MatrixFabric(spec)
        routes = []
        kinds = set()
        for _ in range(3000):
            if routes and rng.random() < 0.3:
                route = routes.pop(rng.randrange(len(routes)))
                release(state, *route)
                ref.release(*route)
            else:
                ib, ob = rng.randrange(spec.input.blocks), rng.randrange(spec.output.blocks)
                j = ref.claim(ib, ob)
                assert state.claim(ib, ob) == j
                if j >= 0:
                    routes.append((ib, ob, j))
                    kinds.add("routed")
                else:
                    kinds.add("unreachable" if ob >= spec.middle.outputs_per_block else "saturated")
            check_invariants(state, len(routes))
            assert_same_occupancy(state, ref)
        assert {"routed", "saturated"} <= kinds
        assert ("unreachable" in kinds) == (spec is SMALL_SPEC)

    @settings(max_examples=300, deadline=None)
    @given(wirable_specs(), st.lists(st.tuples(st.booleans(), st.integers(0, 99), st.integers(0, 99)), max_size=40))
    def test_claims_and_releases_on_any_wirable_spec(self, spec, steps):
        state, ref = FabricState(spec), MatrixFabric(spec)
        routes = []
        for release_one, a, b in steps:
            if release_one and routes:
                route = routes.pop(a % len(routes))
                release(state, *route)
                ref.release(*route)
            else:
                ib, ob = a % spec.input.blocks, b % spec.output.blocks
                j = ref.claim(ib, ob)
                assert state.claim(ib, ob) == j
                if j >= 0:
                    routes.append((ib, ob, j))
            assert_same_occupancy(state, ref)

    @pytest.mark.parametrize(
        "spec, load, trials, seed",
        [
            (simstar_spec(), 320, 40, 42),
            (simstar_spec(), 260, 40, 5),
            (simstar_spec(), 512, 10, 3),
            (SMALL_SPEC, 3, 200, 1),
            (SMALL_SPEC, 8, 100, 9),
            (ONE_INPUT_SPEC, 4, 100, 6),
            (SIXTEEN_INPUT_SPEC, 9, 100, 7),
            (SIXTEEN_INPUT_SPEC, 12, 100, 8),
        ],
    )
    def test_blocking_experiment(self, spec, load, trials, seed):
        # the reference draws with randrange, so this also guards the
        # experiment's own rejection sampling against a change in CPython
        assert blocking_experiment(spec, load, trials, seed) == matrix_blocking_experiment(spec, load, trials, seed)


def link_count_bound(spec, load, seed):
    """Most requests any router can carry in trial 0 of `blocking_experiment`:
    the sum over input blocks of min(requests, links to the middle stage).
    On simstar no output block can bind (16 outputs, 20 middle links), so
    by König's theorem a rearranging router reaches this bound."""
    rng = random.Random(f"{seed}:0")
    requests = [0] * spec.input.blocks
    for remaining in range(spec.total_outputs, spec.total_outputs - load, -1):
        requests[rng.randrange(spec.total_inputs) // spec.input.inputs_per_block] += 1
        rng.randrange(remaining)  # the output draw: the bound does not need it, the stream does
    return sum(min(n, spec.input.outputs_per_block) for n in requests)


@pytest.mark.parametrize("load", [320, 480, 512])
def test_first_fit_never_beats_the_link_count_bound(load):
    spec = simstar_spec()
    bounds = []
    for seed in range(30):
        bound = link_count_bound(spec, load, seed)
        assert blocking_experiment(spec, load, 1, seed).mean_routed <= bound
        bounds.append(bound)
    assert min(bounds) < load  # the bound is not the request count itself


class TestSizeBound:
    def test_largest_modelled_fabric(self):
        spec = FabricSpec(StageSpec(1, 1, 1), StageSpec(1, 1, 1), StageSpec(1, 1, MAX_PORTS))
        assert blocking_experiment(spec, load=1, trials=2, seed=0) == ExperimentResult(0.0, 1.0)

    @pytest.mark.parametrize(
        "spec",
        [
            FabricSpec(StageSpec(1, MAX_PORTS + 1, 1), StageSpec(1, 1, 1), StageSpec(1, 1, 1)),
            FabricSpec(StageSpec(1, 1, 1), StageSpec(1, 1, 1), StageSpec(1, 1, MAX_PORTS + 1)),
            FabricSpec(StageSpec(1, 1, MAX_PORTS + 1), StageSpec(MAX_PORTS + 1, 1, 1), StageSpec(1, MAX_PORTS + 1, 1)),
        ],
    )
    def test_larger_fabric_refused(self, spec):
        with pytest.raises(ValueError, match=f"at most {MAX_PORTS}"):
            FabricState(spec)
        with pytest.raises(ValueError, match=f"at most {MAX_PORTS}"):
            blocking_experiment(spec, load=1, trials=1, seed=0)

    def test_oversized_output_stage_refused_before_allocation(self):
        # 2,000,000 declared outputs: the refusal must not first build a per-output list
        spec = FabricSpec(StageSpec(20, 16, 20), StageSpec(20, 20, 32), StageSpec(2000, 22, 1000))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"a fabric stage has 2000000 inputs or outputs; at most {MAX_PORTS}"):
                blocking_experiment(spec, load=5, trials=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
