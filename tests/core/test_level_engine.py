"""The level engine against the depth-first reference extractor.

``extend_extraction_state`` fills every fault's suffix antichains level
by level, one packed batch per depth; ``tests/oracles/extraction.py`` is
the per-fault recursion it replaced.  With the three caps patched small
(so the suffix limit, the per-fault cap and the global row cap all
fire), both must agree byte for byte on every fault's rows and
``RowMeta``, on each call's ``ExtendStats`` and on the pooled tables,
for any machine, encoding, collapse setting, semantics and extension
order.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import detectability
from repro.core.detectability import (
    TableConfig,
    extend_extraction_state,
    new_extraction_state,
    tables_from_state,
)
from repro.faults import block as block_module
from repro.faults.model import StuckAtModel, TransitionFaultModel
from repro.fsm.benchmarks import load_benchmark
from repro.fsm.encoding import STRATEGIES
from repro.logic.synthesis import synthesize_fsm
from tests.oracles.extraction import oracle_extend, oracle_state
from tests.strategies import machines

SEMANTICS = ("trajectory", "checker")


@contextmanager
def caps(suffixes: int, per_fault: int, rows: int):
    with mock.patch.object(
        detectability, "MAX_SUFFIXES_PER_STATE", suffixes
    ), mock.patch.object(
        detectability, "MAX_ROWS_PER_FAULT", per_fault
    ), mock.patch.object(detectability, "MAX_ROWS", rows):
        yield


def assert_engine_matches_reference(synthesis, model, semantics, requests):
    config = TableConfig(latency=4, semantics=semantics)
    state = new_extraction_state(synthesis, model, config)
    reference = oracle_state(synthesis, model, config)
    for request in requests:
        stats = extend_extraction_state(state, synthesis, model, config, request)
        assert stats == oracle_extend(reference, synthesis, model, config, request)
    for frontier, expected in zip(state.frontiers, reference.frontiers):
        assert frontier.activations == expected.activations
        assert [tuple(b) for b in frontier.branches.tolist()] == expected.branches
        assert frontier.row_meta == expected.row_meta
        for p, rows in expected.rows.items():
            assert frontier.rows[p].dtype == rows.dtype
            assert frontier.rows[p].shape == rows.shape
            assert frontier.rows[p].tobytes() == rows.tobytes()
    latencies = sorted(state.latencies)
    tables = tables_from_state(state, config, latencies)
    expected_tables = tables_from_state(reference, config, latencies)
    for p in latencies:
        assert tables[p].rows.shape == expected_tables[p].rows.shape
        assert tables[p].rows.tobytes() == expected_tables[p].rows.tobytes()
        assert tables[p].stats == expected_tables[p].stats


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    fsm=machines("engine"),
    encoding=st.sampled_from(STRATEGIES),
    collapse=st.booleans(),
    semantics=st.sampled_from(SEMANTICS),
    requests=st.lists(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ),
    suffixes=st.integers(min_value=2, max_value=40),
    per_fault=st.integers(min_value=1, max_value=12),
    rows=st.integers(min_value=1, max_value=60),
)
def test_level_engine_matches_depth_first_reference(
    fsm, encoding, collapse, semantics, requests, suffixes, per_fault, rows
):
    synthesis = synthesize_fsm(fsm, encoding=encoding)
    model = StuckAtModel(synthesis, collapse=collapse, max_faults=40)
    with caps(suffixes, per_fault, rows):
        assert_engine_matches_reference(synthesis, model, semantics, requests)


@pytest.mark.parametrize("semantics", SEMANTICS)
def test_default_caps_on_benchmarks(semantics):
    for name in ("s27", "dk512", "tav"):
        synthesis = synthesize_fsm(load_benchmark(name))
        model = StuckAtModel(synthesis, max_faults=60)
        assert_engine_matches_reference(
            synthesis, model, semantics, [[2], [1, 4], [3]]
        )


@pytest.mark.parametrize("semantics", SEMANTICS)
def test_word_fallbacks(semantics, monkeypatch):
    """Without an all-codes block the engine reads words through the
    per-code fallback: transition faults (no block at all) and a
    machine past the pattern limit (a reachable-codes block)."""
    synthesis = synthesize_fsm(load_benchmark("traffic"))
    with caps(6, 4, 20):
        assert_engine_matches_reference(
            synthesis, TransitionFaultModel(synthesis), semantics, [[1, 3], [4]]
        )
    monkeypatch.setattr(block_module, "PATTERN_LIMIT", 1)
    synthesis = synthesize_fsm(load_benchmark("mod5cnt"))
    model = StuckAtModel(synthesis)
    with caps(6, 4, 20):
        assert_engine_matches_reference(synthesis, model, semantics, [[2, 4], [1]])
