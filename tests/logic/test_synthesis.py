"""Tests for the FSM → netlist synthesis flow."""

import numpy as np
import pytest

from repro.fsm.benchmarks import HAND_WRITTEN, load_benchmark
from repro.fsm.machine import FSM, Transition
from repro.logic.synthesis import synthesize_fsm
from repro.logic.sim import evaluate_batch
from repro.util.bitops import int_to_bits


def spec_check(fsm, synthesis):
    """The netlist must agree with the specification on every specified
    (state, input) pair: next state code and all non-dc output bits."""
    encoding = synthesis.encoding
    for state in fsm.states:
        code = encoding.code(state)
        for input_value in range(1 << fsm.num_inputs):
            input_bits = int_to_bits(input_value, fsm.num_inputs)
            transition = fsm.lookup(state, input_bits)
            if transition is None:
                continue
            pattern = synthesis.pattern(code, input_value)[None, :]
            response = evaluate_batch(synthesis.netlist, pattern)[0]
            next_code, out_word = synthesis.split_response(response)
            assert next_code == encoding.code(transition.dst), (
                f"{fsm.name}: wrong next state in {state} on input {input_value}"
            )
            for bit, char in enumerate(transition.output):
                if char != "-":
                    assert (out_word >> bit) & 1 == int(char), (
                        f"{fsm.name}: wrong output bit {bit} in {state}"
                    )


class TestSpecificationCompliance:
    @pytest.mark.parametrize("name", HAND_WRITTEN)
    def test_hand_written_machines(self, name):
        fsm = load_benchmark(name)
        spec_check(fsm, synthesize_fsm(fsm))

    @pytest.mark.parametrize("encoding", ["binary", "gray", "onehot", "weighted"])
    def test_all_encodings(self, encoding):
        fsm = load_benchmark("traffic")
        spec_check(fsm, synthesize_fsm(fsm, encoding=encoding))

    def test_synthetic_benchmark(self):
        fsm = load_benchmark("s27")
        spec_check(fsm, synthesize_fsm(fsm))

    def test_unminimized_equals_minimized_function(self):
        fsm = load_benchmark("vending")
        minimized = synthesize_fsm(fsm, minimize=True)
        raw = synthesize_fsm(fsm, minimize=False)
        spec_check(fsm, raw)
        assert minimized.stats.cost <= raw.stats.cost


class TestDimensions:
    def test_bit_layout(self, traffic_synthesis):
        syn = traffic_synthesis
        assert syn.num_vars == syn.num_inputs + syn.num_state_bits
        assert syn.num_bits == syn.num_state_bits + syn.num_fsm_outputs
        assert syn.netlist.num_inputs == syn.num_vars
        assert syn.netlist.num_outputs == syn.num_bits

    def test_minterm_packing(self, traffic_synthesis):
        syn = traffic_synthesis
        minterm = syn.minterm(state_code=2, input_value=1)
        assert minterm == 1 | (2 << syn.num_inputs)

    def test_split_response_round_trip(self, traffic_synthesis):
        syn = traffic_synthesis
        bits = np.array(
            int_to_bits(0b1101, syn.num_bits), dtype=np.uint8
        )
        next_code, out_word = syn.split_response(bits)
        s = syn.num_state_bits
        assert next_code == 0b1101 & ((1 << s) - 1)
        assert out_word == 0b1101 >> s

    def test_stats_include_state_registers(self, traffic_synthesis):
        assert traffic_synthesis.stats.cells.get("DFF", 0) == (
            traffic_synthesis.num_state_bits
        )


class TestConflictDetection:
    def test_conflicting_spec_raises(self):
        # Two overlapping rows in one state disagree — caught by the FSM
        # validator already, so build the conflict across encodings instead:
        # same (state, input) minterm mapped to different outputs cannot be
        # constructed through a valid FSM, so check the validator fires.
        with pytest.raises(ValueError, match="nondeterministic"):
            FSM(
                name="bad",
                num_inputs=1,
                num_outputs=1,
                states=["a"],
                transitions=[
                    Transition("-", "a", "a", "0"),
                    Transition("1", "a", "a", "1"),
                ],
            )


class TestDenseArity:
    def test_too_many_variables_fail_before_the_dense_table(self):
        """20 inputs + 3 state bits = 23 variables: one past the dense
        limit.  The arity check must run before the (num_bits, 2**23)
        value table (about 100 MB here) is allocated."""
        import tracemalloc

        states = [f"s{index}" for index in range(5)]
        fsm = FSM(
            name="wide",
            num_inputs=20,
            num_outputs=9,
            states=states,
            transitions=[
                Transition("1" + "-" * 19, src, dst, "1" * 9)
                for src, dst in zip(states, states[1:] + states[:1])
            ],
        )
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dense truth tables"):
                synthesize_fsm(fsm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
