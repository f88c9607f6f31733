"""The shared fault-response block against its slow reference.

Block words must equal the per-fault ``evaluate_batch`` path
(:meth:`StuckAtModel.faulty_responses`) on every code × alphabet cell,
whether a read hits the stored matrix or recomputes past the byte budget;
every consumer's output (tables in both semantics, exhaustive reports) is
then identical with and without stored matrices.  The last test pins the
point of the block: a certification simulates each structural survivor
once per fault selection.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.detectability import (
    TableConfig,
    extract_tables,
    input_alphabet,
    reachable_state_codes,
)
from repro.core.search import SolveConfig
from repro.faults import block as block_module
from repro.faults import collapse
from repro.faults.block import FaultResponseBlock, pack_words
from repro.faults.model import StuckAtModel, stuck_at_universe
from repro.flow import design_ced
from repro.fsm.benchmarks import load_benchmark
from repro.logic.sim import PackedSimulator
from repro.logic.synthesis import synthesize_fsm
from repro.runtime.cache import NullCache
from repro.verification import exhaustive
from tests.strategies import machines, raw_netlists

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_block_matches_reference(synthesis, alphabet) -> None:
    """Every universe fault, stored and recomputed, on every cell."""
    model = StuckAtModel(synthesis)
    for budget in (block_module.RESPONSE_BYTE_BUDGET, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(block_module, "RESPONSE_BYTE_BUDGET", budget)
            block = FaultResponseBlock(synthesis, alphabet)
            shape = (len(block.codes), len(alphabet))
            universe = stuck_at_universe(synthesis.netlist)
            for fault in universe:
                reference = pack_words(
                    model.faulty_responses(fault, block.patterns)
                ).reshape(shape)
                for _ in range(2):  # a stored read, then a repeat read
                    assert np.array_equal(
                        block.faulty_words(fault.payload), reference
                    ), (budget, fault.name)
            assert bool(block._stored) == (budget > 0 and bool(universe))


@SLOW
@given(netlist=raw_netlists(), data=st.data())
def test_block_words_match_reference_on_random_netlists(netlist, data):
    """Raw netlists reach every gate kind; inputs split into r + s."""
    total = netlist.num_inputs
    state_bits = data.draw(st.integers(min_value=0, max_value=total))
    machine = SimpleNamespace(
        netlist=netlist,
        num_inputs=total - state_bits,
        num_state_bits=state_bits,
    )
    alphabet = np.arange(1 << machine.num_inputs, dtype=np.int64)
    assert_block_matches_reference(machine, alphabet)


@SLOW
@given(fsm=machines("blk"), multilevel=st.booleans())
def test_block_words_match_reference_on_random_machines(fsm, multilevel):
    synthesis = synthesize_fsm(fsm, multilevel=multilevel)
    alphabet, _ = input_alphabet(synthesis, TableConfig())
    assert_block_matches_reference(synthesis, alphabet)


def _consumer_outputs(fsm):
    """Tables in both semantics plus one exhaustive report per design."""
    outputs = []
    for semantics in ("trajectory", "checker"):
        synthesis = synthesize_fsm(fsm)
        config = TableConfig(latency=2, semantics=semantics)
        tables = extract_tables(synthesis, StuckAtModel(synthesis), config)
        outputs.append(
            [(t.rows.tobytes(), t.stats) for _, t in sorted(tables.items())]
        )
        design = design_ced(
            fsm, latency=2, semantics=semantics, solve_config=SolveConfig()
        )
        selection = collapse.select_stuck_at_faults(design.synthesis)
        outputs.append(
            exhaustive.exhaustive_check(
                design.synthesis,
                design.hardware,
                selection.checked,
                2,
                block=selection.block,
                multiplicities=selection.multiplicities(),
            )
        )
    return outputs


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fsm=machines("blk"))
def test_consumers_identical_without_stored_matrices(fsm):
    stored = _consumer_outputs(fsm)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(block_module, "RESPONSE_BYTE_BUDGET", 0)
        recomputed = _consumer_outputs(fsm)
    assert stored == recomputed


def test_tables_past_pattern_limit_use_reachable_block(monkeypatch):
    synthesis = synthesize_fsm(load_benchmark("mod5cnt"))  # 5 of 8 codes
    config = TableConfig(latency=2, semantics="trajectory")
    whole = extract_tables(synthesis, StuckAtModel(synthesis), config)
    monkeypatch.setattr(block_module, "PATTERN_LIMIT", 1)
    model = StuckAtModel(synthesis)
    assert model.selection().block is None
    alphabet, _ = input_alphabet(synthesis, config)
    reachable = reachable_state_codes(synthesis, alphabet)
    assert len(reachable) < 1 << synthesis.num_state_bits
    assert model.response_block(alphabet, reachable).codes == reachable
    reached = extract_tables(synthesis, model, config)
    for latency, table in whole.items():
        assert np.array_equal(reached[latency].rows, table.rows)
        assert reached[latency].stats == table.stats


def test_custom_alphabet_gets_its_own_block(vending_synthesis):
    model = StuckAtModel(vending_synthesis)
    default, _ = input_alphabet(vending_synthesis, TableConfig())
    reachable = [vending_synthesis.reset_code]
    assert model.response_block(default, reachable) is model.selection().block
    custom = default[:1]
    block = model.response_block(custom, reachable)
    assert np.array_equal(block.alphabet, custom)
    assert model.response_block(custom, reachable) is block


def test_exhaustive_rejects_a_block_on_another_alphabet(vending_synthesis):
    design = design_ced("vending", latency=1)
    alphabet, _ = input_alphabet(design.synthesis, TableConfig())
    block = FaultResponseBlock(design.synthesis, alphabet[:1])
    with pytest.raises(ValueError, match="every state code"):
        exhaustive.exhaustive_check(
            design.synthesis, design.hardware, [], 1, block=block
        )


def test_certification_simulates_each_survivor_once_per_selection(
    monkeypatch,
):
    """Signature pass, table extraction and the exhaustive engine share
    one block per selection: ``faulty_outputs`` runs at most once per
    structural survivor per ``select_stuck_at_faults`` call."""
    calls = []
    faulty_outputs = PackedSimulator.faulty_outputs

    def counting(self, fault):
        calls.append(fault)
        return faulty_outputs(self, fault)

    survivors = []
    select = collapse.select_stuck_at_faults

    def recording(*args, **kwargs):
        selection = select(*args, **kwargs)
        survivors.append(selection.structural)
        return selection

    monkeypatch.setattr(PackedSimulator, "faulty_outputs", counting)
    monkeypatch.setattr(collapse, "select_stuck_at_faults", recording)
    monkeypatch.setattr(exhaustive, "select_stuck_at_faults", recording)
    certificate = exhaustive.verify_exhaustive(
        "traffic", exhaustive.ExhaustiveConfig(latency=2), cache=NullCache()
    )
    assert certificate["mode"] == "exhaustive"
    assert len(survivors) == 2  # the design's model and the certificate
    assert 0 < len(calls) <= sum(survivors)
