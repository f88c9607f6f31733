"""Tests for detectability-table extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cover import covers_all
from repro.core.detectability import (
    TableConfig,
    extract_table,
    extract_tables,
    input_alphabet,
    reachable_state_codes,
)
from repro.faults.model import TransitionFaultModel
from repro.fsm.benchmarks import load_benchmark
from repro.logic.synthesis import synthesize_fsm
from tests.oracles.option_sets import (
    canonical_order,
    cheap_reduce,
    deterministic_subset,
)


class TestConfig:
    def test_latency_validated(self):
        with pytest.raises(ValueError):
            TableConfig(latency=0)

    def test_semantics_validated(self):
        with pytest.raises(ValueError):
            TableConfig(semantics="psychic")


class TestAlphabet:
    def test_exhaustive_for_few_inputs(self, traffic_synthesis):
        alphabet, mode = input_alphabet(traffic_synthesis, TableConfig())
        assert mode == "exhaustive"
        assert alphabet.tolist() == [0, 1, 2, 3]

    def test_cube_mode_for_many_inputs(self):
        synthesis = synthesize_fsm(load_benchmark("keyb"))  # 7 inputs
        config = TableConfig()
        alphabet, mode = input_alphabet(synthesis, config)
        assert mode == "cube"
        assert len(alphabet) <= config.max_alphabet
        assert len(set(alphabet.tolist())) == len(alphabet)

    def test_alphabet_cap(self):
        synthesis = synthesize_fsm(load_benchmark("keyb"))
        capped = TableConfig(max_alphabet=16)
        alphabet, _ = input_alphabet(synthesis, capped)
        assert len(alphabet) == 16


class TestReachability:
    def test_traffic_all_states_reachable(self, traffic_synthesis):
        alphabet, _ = input_alphabet(traffic_synthesis, TableConfig())
        codes = reachable_state_codes(traffic_synthesis, alphabet)
        expected = sorted(
            traffic_synthesis.encoding.codes[s]
            for s in traffic_synthesis.fsm.states
        )
        assert codes == expected

    def test_reset_always_reachable(self, seqdet_synthesis):
        alphabet, _ = input_alphabet(seqdet_synthesis, TableConfig())
        codes = reachable_state_codes(seqdet_synthesis, alphabet)
        assert seqdet_synthesis.reset_code in codes


class TestExtraction:
    def test_rows_are_nonempty_option_sets(self, traffic_tables_checker):
        for table in traffic_tables_checker.values():
            assert (table.rows[:, 0] != 0).all()  # first option always real

    def test_single_bit_cover_is_always_feasible(self, traffic_tables_checker):
        for table in traffic_tables_checker.values():
            identity = [1 << j for j in range(table.num_bits)]
            assert covers_all(table.rows, identity)

    def test_constraints_weaken_with_latency(self, traffic_tables_checker):
        """Any cover of the latency-p table covers the latency-(p+1) table."""
        t1, t2, t3 = (traffic_tables_checker[p] for p in (1, 2, 3))
        # every p+1 row's option set must contain some p row's option set
        for small, big in ((t1, t2), (t2, t3)):
            small_sets = [
                frozenset(w for w in row if w) for row in small.rows.tolist()
            ]
            for row in big.rows.tolist():
                big_set = frozenset(w for w in row if w)
                assert any(s <= big_set for s in small_sets)

    def test_stats_populated(self, traffic_tables_checker):
        stats = traffic_tables_checker[3].stats
        assert stats.fsm_name == "traffic"
        assert stats.num_faults > 0
        assert stats.num_activations > 0
        assert stats.semantics == "checker"
        assert stats.input_mode == "exhaustive"
        assert not stats.truncated

    def test_trajectory_at_least_as_permissive(
        self, traffic_tables_checker, traffic_tables_trajectory
    ):
        """At p=1 the two semantics coincide (no divergence yet)."""
        checker_rows = {tuple(r) for r in traffic_tables_checker[1].rows.tolist()}
        trajectory_rows = {
            tuple(r) for r in traffic_tables_trajectory[1].rows.tolist()
        }
        assert checker_rows == trajectory_rows

    def test_requested_latencies_respected(
        self, traffic_synthesis, traffic_model
    ):
        tables = extract_tables(
            traffic_synthesis,
            traffic_model,
            TableConfig(latency=3, semantics="checker"),
            latencies=[1, 3],
        )
        assert sorted(tables) == [1, 3]
        with pytest.raises(ValueError):
            extract_tables(
                traffic_synthesis,
                traffic_model,
                TableConfig(latency=2),
                latencies=[4],
            )

    def test_single_table_wrapper(self, traffic_synthesis, traffic_model):
        table = extract_table(
            traffic_synthesis, traffic_model, TableConfig(latency=2)
        )
        assert table.latency == 2

    def test_transition_fault_model_extraction(self, vending_synthesis):
        model = TransitionFaultModel(vending_synthesis, alternatives=1)
        table = extract_table(
            vending_synthesis, model, TableConfig(latency=2, semantics="checker")
        )
        assert table.num_rows > 0
        identity = [1 << j for j in range(table.num_bits)]
        assert covers_all(table.rows, identity)

    def test_deterministic_extraction(self, traffic_synthesis, traffic_model):
        config = TableConfig(latency=2, semantics="checker")
        first = extract_table(traffic_synthesis, traffic_model, config)
        second = extract_table(traffic_synthesis, traffic_model, config)
        assert np.array_equal(first.rows, second.rows)


class TestDeterministicSubset:
    """Regression for the subsample-size bug: ``int(idx * step)`` strides
    can collide, and a collision used to silently shrink the sample."""

    @staticmethod
    def _family(count):
        return {frozenset({index, count + index}) for index in range(count)}

    def test_exact_size_across_sweep(self):
        for total in (1, 2, 3, 7, 10, 97, 256, 1000):
            family = self._family(total)
            for size in (1, 2, 3, total // 2, total - 1, total, total + 5):
                if size <= 0:
                    continue
                subset = deterministic_subset(family, size)
                assert len(subset) == min(size, total)
                assert subset <= family

    def test_deterministic_and_order_insensitive(self):
        family = self._family(50)
        first = deterministic_subset(set(family), 13)
        second = deterministic_subset(set(sorted(family, key=sorted)), 13)
        assert first == second


class TestPackedRowTwins:
    """The packed-row hot path must be an exact transcription of the
    frozenset reference algebra (``tests/oracles/option_sets.py``): same
    family, same canonical order."""

    WORDS = st.integers(min_value=1, max_value=2**63 - 1)

    @staticmethod
    def _pack(family):
        ordered = canonical_order(family)
        width = max((len(s) for s in ordered), default=0) or 1
        rows = np.zeros((len(ordered), width), dtype=np.uint64)
        for index, options in enumerate(ordered):
            rows[index, : len(options)] = sorted(options)
        return rows

    @staticmethod
    def _unpack(rows):
        return [
            frozenset(int(w) for w in row if w) for row in rows.tolist()
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.frozensets(WORDS, min_size=1, max_size=3),
            min_size=1,
            max_size=30,
        )
    )
    def test_unique_rows_is_canonical_order(self, sets):
        from repro.core.detectability import _unique_rows

        width = max(len(s) for s in sets)
        rows = np.zeros((len(sets), width), dtype=np.uint64)
        for index, options in enumerate(sets):
            rows[index, : len(options)] = sorted(options)
        unique = _unique_rows(rows)
        assert self._unpack(unique) == canonical_order(set(sets))

    @settings(max_examples=200, deadline=None)
    @given(
        st.sets(
            st.frozensets(WORDS, min_size=1, max_size=3),
            min_size=1,
            max_size=30,
        )
    )
    def test_reduce_rows_matches_cheap_reduce(self, family):
        from repro.core.detectability import _reduce_rows

        reduced = self._unpack(_reduce_rows(self._pack(family)))
        assert set(reduced) == cheap_reduce(family)
        assert len(reduced) == len(set(reduced))

    @settings(max_examples=200, deadline=None)
    @given(
        st.sets(
            st.frozensets(WORDS, min_size=1, max_size=3),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=1, max_value=45),
    )
    def test_subset_rows_matches_deterministic_subset(self, family, size):
        from repro.core.detectability import _subset_rows

        subset = self._unpack(_subset_rows(self._pack(family), size))
        assert set(subset) == deterministic_subset(family, size)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.frozensets(WORDS, min_size=0, max_size=2),
            min_size=1,
            max_size=20,
        ),
        WORDS,
    )
    def test_insert_word_is_rowwise_union(self, sets, word):
        from tests.oracles.extraction import _insert_word

        width = max(len(s) for s in sets) + 1
        rows = np.zeros((len(sets), width - 1), dtype=np.uint64)
        for index, options in enumerate(sets):
            rows[index, : len(options)] = sorted(options)
        out = _insert_word(rows, word)
        assert out.shape == (len(sets), width)
        assert self._unpack(out) == [s | {word} for s in sets]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**63 - 1),
                st.lists(
                    st.frozensets(WORDS, min_size=0, max_size=2),
                    min_size=0,
                    max_size=6,
                ),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_merge_small_matches_batch_pipeline(self, branches):
        """The reference's pure-Python small-merge twin must equal its
        vectorized merge → unique → reduce pipeline, zero diffs and
        empties included."""
        from repro.core.detectability import _reduce_rows, _unique_rows
        from tests.oracles.extraction import _merge_branches, _merge_small

        depth = 3
        steps = [(diff, 0, 0) for diff, _ in branches]
        children = []
        for _, sets in branches:
            child = np.zeros((len(sets), depth - 1), dtype=np.uint64)
            for index, options in enumerate(sets):
                child[index, : len(options)] = sorted(options)
            children.append(child)
        batch = _reduce_rows(
            _unique_rows(_merge_branches(steps, children, depth))
        )
        small = _merge_small(steps, children, depth)
        assert np.array_equal(batch, small)

    def test_reduce_rows_empty_set_absorbs(self):
        from repro.core.detectability import _reduce_rows

        rows = np.array(
            [[0, 0], [3, 0], [3, 5]], dtype=np.uint64
        )
        reduced = _reduce_rows(rows)
        assert reduced.tolist() == [[0, 0]]
        assert cheap_reduce({frozenset(), frozenset({3}), frozenset({3, 5})}) == {
            frozenset()
        }

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sets(
                st.frozensets(WORDS, min_size=0, max_size=3),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_reduce_mask_is_per_segment_cheap_reduce(self, segments):
        """The segmented reduction keeps, per segment, exactly what the
        one-family reduction keeps: segments never absorb each other."""
        from repro.core.detectability import _reduce_mask

        width = max(len(s) for family in segments for s in family) or 1
        blocks, owners = [], []
        for owner, family in enumerate(segments):
            ordered = canonical_order(family)
            block = np.zeros((len(ordered), width), dtype=np.uint64)
            for index, options in enumerate(ordered):
                block[index, : len(options)] = sorted(options)
            blocks.append(block)
            owners.append(np.full(len(ordered), owner, dtype=np.int64))
        rows, owner = np.concatenate(blocks), np.concatenate(owners)
        keep = _reduce_mask(rows, owner)
        for index, family in enumerate(segments):
            kept = self._unpack(rows[keep & (owner == index)])
            assert kept == canonical_order(cheap_reduce(set(family)))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=2),
                st.sampled_from([0, 3, 5, 9]),
            ),
            min_size=0,
            max_size=10,
        ).map(sorted)
    )
    def test_extend_rows_is_segmented_union(self, steps):
        """Each step inserts its word into every row of its child key; an
        owner's rows are the deduplicated union in canonical order, and a
        zero word only pads."""
        from repro.core.detectability import SuffixLevel, _extend_rows

        families = [
            [frozenset()],
            [frozenset({3}), frozenset({5, 7})],
            [frozenset({9}), frozenset({1, 3})],
        ]
        rows, offsets = [], [0]
        for family in families:
            for options in family:
                row = np.zeros(2, dtype=np.uint64)
                row[: len(options)] = sorted(options)
                rows.append(row)
            offsets.append(len(rows))
        offsets = np.array(offsets, dtype=np.int64)
        child = SuffixLevel(
            keys=np.zeros((3, 3), dtype=np.int64),
            offsets=offsets,
            rows=np.array(rows, dtype=np.uint64),
            truncated=np.zeros(3, dtype=bool),
        )
        owner = np.array([s[0] for s in steps], dtype=np.int64)
        index = np.array([s[1] for s in steps], dtype=np.int64)
        words = np.array([s[2] for s in steps], dtype=np.int64)
        out, out_owner = _extend_rows(
            owner,
            words,
            child,
            offsets[index],
            offsets[index + 1] - offsets[index],
            3,
        )
        assert out.shape[1] == 3
        assert np.all(np.diff(out_owner) >= 0)
        for segment in range(4):
            expected = {
                options | ({word} if word else set())
                for key, child_index, word in steps
                if key == segment
                for options in families[child_index]
            }
            got = self._unpack(out[out_owner == segment])
            assert got == canonical_order(expected)
