"""The exact subspace floor on q and the probes it lets Algorithm 1 skip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.exact as exact_module
import repro.core.search as search_module
from repro.core.detectability import DetectabilityTable
from repro.core.exact import (
    FLOOR_WORK_LIMIT,
    exact_minimum_parity,
    parity_floor,
)
from repro.core.search import (
    PROVED_INFEASIBLE,
    SolveConfig,
    minimize_parity_bits,
    solve_for_latencies,
)

#: dk512 (Table-1 synthetic, generator seed 10000), trajectory semantics,
#: p = 1: one word per row.  Its floor is 4 while greedy needs 5, and the
#: branch and bound needs more than 100 000 nodes to prove 4 on its own.
DK512_P1_WORDS = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 20, 21, 25,
    32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 45, 47, 48, 49, 50, 52, 55,
    64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 79, 89, 92, 96, 97,
    98, 99, 100, 101, 103, 104, 106, 108, 109, 111, 116, 117, 119, 120, 122,
    126,
]


def table_from(rows, num_bits):
    rows = np.array(rows, dtype=np.uint64)
    return DetectabilityTable(num_bits=num_bits, latency=rows.shape[1], rows=rows)


@st.composite
def small_tables(draw, max_bits=8):
    num_bits = draw(st.integers(min_value=1, max_value=max_bits))
    width = draw(st.integers(min_value=1, max_value=3))
    word = st.integers(min_value=0, max_value=(1 << num_bits) - 1)
    first = st.integers(min_value=1, max_value=(1 << num_bits) - 1)
    row = st.tuples(first, *([word] * (width - 1))).map(list)
    rows = draw(st.lists(row, min_size=1, max_size=14))
    return table_from(rows, num_bits)


def _no_floor(table, upper=None):
    return None


class TestParityFloor:
    @settings(max_examples=60, deadline=None)
    @given(small_tables())
    def test_equals_exact_minimum(self, table):
        minimum = len(exact_minimum_parity(table))
        # Default upper: every dimension below n is searched.
        floor = parity_floor(table)
        if table.num_bits <= 7:
            assert floor == minimum
        else:
            assert floor in (None, minimum)
        # With a known cover one larger than the minimum, the bound must
        # both rule out every smaller size and find the minimum itself.
        bounded = parity_floor(table, upper=min(table.num_bits, minimum + 1))
        assert bounded in (None, minimum)
        if table.num_bits <= 7:
            assert bounded == minimum

    def test_capped_at_upper(self):
        table = table_from([[w] for w in DK512_P1_WORDS], 7)
        assert parity_floor(table) == 4
        assert parity_floor(table, upper=5) == 4
        assert parity_floor(table, upper=4) == 4  # no 3-subspace covers
        assert parity_floor(table, upper=3) == 3  # trusts the known cover

    def test_empty_table(self):
        assert parity_floor(table_from(np.zeros((0, 1)), 5)) == 0

    def test_uncoverable_row_rejected(self):
        with pytest.raises(ValueError):
            parity_floor(table_from([[0b01, 0], [0, 0]], 2))

    def test_over_gate_returns_none_without_coverage(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("packed_coverage called past the gate")

        monkeypatch.setattr(exact_module, "packed_coverage", forbidden)
        rng = np.random.default_rng(0)
        # Coverage pass over the gate: 2^13 vectors x 300 rows x 2 words.
        wide = table_from(rng.integers(1, 1 << 13, size=(300, 2)), 13)
        assert (1 << 13) * 300 * 2 > FLOOR_WORK_LIMIT
        assert parity_floor(wide) is None
        # Cheap coverage, but far too many subspaces of GF(2)^10.
        tall = table_from([[1], [2], [4]], 10)
        assert parity_floor(tall) is None
        # Under both gates the same table needs the coverage pass.
        with pytest.raises(AssertionError, match="past the gate"):
            parity_floor(table_from([[1], [2]], 3))


class TestExactStopsAtFloor:
    @settings(max_examples=40, deadline=None)
    @given(small_tables(max_bits=7))
    def test_same_answer_as_unstopped_search(self, table):
        stopped = exact_minimum_parity(table)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exact_module, "_subspace_floor", lambda *a: 0)
            unstopped = exact_minimum_parity(table)
        assert stopped == unstopped

    def test_floor_ends_the_branch_and_bound(self, monkeypatch):
        table = table_from([[w] for w in DK512_P1_WORDS], 7)
        betas = exact_minimum_parity(table, node_budget=20_000)
        assert len(betas) == 4
        monkeypatch.setattr(exact_module, "_subspace_floor", lambda *a: 0)
        with pytest.raises(RuntimeError, match="node budget"):
            exact_minimum_parity(table, node_budget=20_000)


def _solve_signature(result):
    return (
        result.q,
        result.betas,
        result.incumbent_source,
        result.incumbent_accepted,
    )


class TestSearchSkipsProvedProbes:
    def test_traffic_p1_runs_fewer_lps(
        self, traffic_tables_trajectory, monkeypatch
    ):
        table = traffic_tables_trajectory[1]
        skipped = minimize_parity_bits(table)
        assert PROVED_INFEASIBLE in skipped.per_q_outcome.values()
        monkeypatch.setattr(search_module, "parity_floor", _no_floor)
        full = minimize_parity_bits(table)
        assert PROVED_INFEASIBLE not in full.per_q_outcome.values()
        assert skipped.lp_solves < full.lp_solves
        assert skipped.rounding_attempts < full.rounding_attempts
        assert _solve_signature(skipped) == _solve_signature(full)
        # Same probes, same order; only the proved ones changed outcome.
        assert list(skipped.per_q_outcome) == list(full.per_q_outcome)
        for q, outcome in skipped.per_q_outcome.items():
            if outcome != PROVED_INFEASIBLE:
                assert outcome == full.per_q_outcome[q]

    def test_identical_with_bound_off_on_dk512(self, monkeypatch):
        table = table_from([[w] for w in DK512_P1_WORDS], 7)
        skipped = minimize_parity_bits(table)
        monkeypatch.setattr(search_module, "parity_floor", _no_floor)
        assert _solve_signature(skipped) == _solve_signature(
            minimize_parity_bits(table)
        )

    def test_identical_with_bound_off_across_latencies(
        self, traffic_tables_checker, seqdet_tables_checker, monkeypatch
    ):
        config = SolveConfig(iterations=200)
        cases = [traffic_tables_checker, seqdet_tables_checker]
        with_floor = [solve_for_latencies(t, config) for t in cases]
        monkeypatch.setattr(search_module, "parity_floor", _no_floor)
        without = [solve_for_latencies(t, config) for t in cases]
        for on, off in zip(with_floor, without):
            assert {p: _solve_signature(r) for p, r in on.items()} == {
                p: _solve_signature(r) for p, r in off.items()
            }

    @settings(max_examples=25, deadline=None)
    @given(small_tables(max_bits=6))
    def test_identical_with_bound_off_on_random_tables(self, table):
        config = SolveConfig(iterations=100)
        skipped = minimize_parity_bits(table, config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search_module, "parity_floor", _no_floor)
            full = minimize_parity_bits(table, config)
        assert _solve_signature(skipped) == _solve_signature(full)
        assert skipped.lp_solves <= full.lp_solves
