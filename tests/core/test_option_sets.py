"""Tests for the canonical option-set representation of the table.

The frozenset algebra under test here is the reference in
``tests/oracles/option_sets.py``; ``TestPackedPooling`` holds the packed
pooling of ``tables_from_state`` to it byte for byte.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import detectability
from repro.core.cover import covers_all
from repro.core.detectability import (
    DetectabilityTable,
    ExtractionFrontier,
    ExtractionState,
    RowMeta,
    TableConfig,
    tables_from_state,
)
from repro.runtime.trace import Tracer, use_tracer
from repro.util.rng import rng_for
from tests.oracles.option_sets import (
    minimal_option_sets,
    pack_option_sets,
    pooled_table,
)


def families(max_word=15, max_size=3, max_sets=8):
    option_set = st.frozensets(
        st.integers(min_value=1, max_value=max_word), max_size=max_size
    )
    return st.sets(option_set, max_size=max_sets)


class TestMinimalOptionSets:
    def test_subset_absorbs_superset(self):
        family = {frozenset({1, 2}), frozenset({1})}
        assert minimal_option_sets(family) == {frozenset({1})}

    def test_empty_set_absorbs_everything(self):
        family = {frozenset(), frozenset({1}), frozenset({2, 3})}
        assert minimal_option_sets(family) == {frozenset()}

    def test_incomparable_sets_kept(self):
        family = {frozenset({1, 2}), frozenset({2, 3})}
        assert minimal_option_sets(family) == family

    @settings(max_examples=100, deadline=None)
    @given(families())
    def test_result_is_an_antichain(self, family):
        reduced = minimal_option_sets(family)
        for a in reduced:
            for b in reduced:
                if a != b:
                    assert not a < b and not b < a

    @settings(max_examples=100, deadline=None)
    @given(families())
    def test_every_removed_set_has_kept_subset(self, family):
        reduced = minimal_option_sets(family)
        for options in family:
            assert any(kept <= options for kept in reduced)

    @settings(max_examples=50, deadline=None)
    @given(families(), st.lists(st.integers(min_value=1, max_value=15),
                                min_size=1, max_size=4))
    def test_reduction_preserves_coverage_feasibility(self, family, betas):
        """A β set covers the full family iff it covers the reduced one."""
        family = {s for s in family if s}  # empty sets are never coverable
        if not family:
            return
        reduced = minimal_option_sets(family)

        def parity(word, beta):
            return bin(word & beta).count("1") % 2

        def covers(collection):
            return all(
                any(parity(word, beta) for word in options for beta in betas)
                for options in collection
            )

        assert covers(family) == covers(reduced)


class TestPacking:
    def test_pack_pads_and_sorts(self):
        packed = pack_option_sets([frozenset({1, 5}), frozenset({2})])
        assert packed.shape == (2, 2)
        rows = {tuple(r) for r in packed.tolist()}
        assert rows == {(5, 1), (2, 0)}

    def test_pack_respects_min_width(self):
        packed = pack_option_sets([frozenset({1})], min_width=3)
        assert packed.shape == (1, 3)

    def test_packed_rows_cover_like_sets(self):
        sets = [frozenset({0b01, 0b10}), frozenset({0b11})]
        rows = pack_option_sets(sets)
        # β = 0b01 covers the first set (via word 0b01) and the second
        # (0b11 & 0b01 has odd parity).
        assert covers_all(rows, [0b01])


def _packed(option_sets, width):
    """Ascending, zero-padded packed rows of width ``width``."""
    rows = np.zeros((len(option_sets), width), dtype=np.uint64)
    for index, options in enumerate(option_sets):
        rows[index, : len(options)] = sorted(options)
    return rows


@st.composite
def fault_row_families(draw):
    """Per-fault packed rows at one latency p ∈ 1..4, as a state holds
    them: width p, words ascending, zero-padded, the all-zero (empty
    option set) row allowed.  Small words make subset relations common."""
    p = draw(st.integers(min_value=1, max_value=4))
    option_set = st.frozensets(
        st.integers(min_value=1, max_value=12), max_size=p
    )
    faults = draw(
        st.lists(st.lists(option_set, max_size=12), max_size=5)
    )
    return p, [_packed(sets, p) for sets in faults]


class TestPackedPooling:
    """``tables_from_state`` pools on packed rows; the frozenset path —
    pool, ``minimal_option_sets``, ``pack_option_sets``, row cap — is the
    reference it must match byte for byte."""

    @staticmethod
    def _state(p, fault_rows):
        frontiers = []
        for index, rows in enumerate(fault_rows):
            frontier = ExtractionFrontier(fault_name=f"f{index}")
            frontier.rows[p] = rows
            frontier.row_meta[p] = RowMeta(
                raw=rows.shape[0],
                reduced=rows.shape[0],
                capped=False,
                suffix_truncated=False,
            )
            frontiers.append(frontier)
        return ExtractionState(
            fsm_name="synthetic",
            semantics="trajectory",
            num_bits=4,
            alphabet=np.arange(2, dtype=np.int64),
            input_mode="exhaustive",
            reachable=[0],
            fault_names=tuple(f.fault_name for f in frontiers),
            frontiers=frontiers,
            latencies={p},
        )

    @settings(max_examples=300, deadline=None)
    @given(fault_row_families(), st.integers(min_value=1, max_value=8))
    def test_matches_frozenset_reference(self, family, max_rows):
        p, fault_rows = family
        config = TableConfig(latency=4, seed=11)
        tracer = Tracer()
        with use_tracer(tracer), mock.patch.object(
            detectability, "MAX_ROWS", max_rows
        ):
            table = tables_from_state(self._state(p, fault_rows), config, [p])[p]
        expected, pooled, minimal = pooled_table(
            fault_rows, max_rows, rng_for(11, "row-cap", "synthetic", p)
        )
        assert table.rows.dtype == expected.dtype
        assert table.rows.shape == expected.shape
        assert table.rows.tobytes() == expected.tobytes()
        assert table.stats.truncated == (minimal > max_rows)
        (event,) = [
            r["attrs"] for r in tracer.records if r["name"] == "tables.latency"
        ]
        assert event["pooled_option_sets"] == pooled
        assert event["minimal_option_sets"] == minimal
        assert event["row_capped"] == (minimal > max_rows)

    def test_cap_keeps_the_width_of_the_whole_antichain(self):
        # The one 3-word row is the widest; a cap that drops it must not
        # narrow the stored table.
        rows = _packed(
            [frozenset({1}), frozenset({2}), frozenset({3, 4, 5})], 3
        )
        config = TableConfig(latency=3, seed=0)
        state = self._state(3, [rows])
        with mock.patch.object(detectability, "MAX_ROWS", 1):
            table = tables_from_state(state, config, [3])[3]
        expected, _, _ = pooled_table(
            [rows], 1, rng_for(0, "row-cap", "synthetic", 3)
        )
        assert table.rows.shape == (1, 3)
        assert table.rows.tobytes() == expected.tobytes()

    def test_empty_option_set_is_kept_alone(self):
        rows = _packed([frozenset(), frozenset({3}), frozenset({3, 5})], 2)
        table = tables_from_state(
            self._state(2, [rows]), TableConfig(latency=2), [2]
        )[2]
        assert table.rows.tolist() == [[0]]


class TestTableContainer:
    def test_rejects_wide_rows(self):
        with pytest.raises(ValueError, match="width exceeds"):
            DetectabilityTable(4, 1, np.zeros((2, 3), dtype=np.uint64))

    def test_rejects_too_many_bits(self):
        with pytest.raises(ValueError, match="62"):
            DetectabilityTable(63, 1, np.zeros((1, 1), dtype=np.uint64))

    def test_tensor_round_trip(self):
        rows = np.array([[0b101, 0b010], [0b001, 0]], dtype=np.uint64)
        table = DetectabilityTable(3, 2, rows)
        tensor = table.tensor()
        assert tensor.shape == (2, 3, 2)
        assert tensor[0, 0, 0] and tensor[0, 2, 0] and not tensor[0, 1, 0]
        assert tensor[0, 1, 1]
        assert tensor[1, 0, 0] and not tensor[1, :, 1].any()

    def test_step_matrix(self):
        rows = np.array([[0b11, 0b01]], dtype=np.uint64)
        table = DetectabilityTable(2, 2, rows)
        assert table.step_matrix(1).tolist() == [[True, True]]
        assert table.step_matrix(2).tolist() == [[True, False]]
        with pytest.raises(ValueError):
            table.step_matrix(3)
