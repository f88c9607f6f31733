"""Tests for the benchmark's own helpers: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder, covered, self_times  # noqa: E402
from stats import nearest_rank, tail_percentile, uncovered_rows  # noqa: E402
from workloads import op_list, serve_queries  # noqa: E402


# -- percentiles -------------------------------------------------------
def test_nearest_rank_small_n():
    assert nearest_rank([7.0], 0.5) == 7.0
    assert nearest_rank([1.0, 2.0], 0.5) == 1.0  # ceil(1) - 1 = 0, not the max
    assert nearest_rank([1.0, 2.0], 0.51) == 2.0
    assert nearest_rank([1.0, 2.0, 3.0], 0.5) == 2.0
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.99) == 4.0
    assert nearest_rank(list(range(1, 11)), 0.9) == 9


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)


def test_tail_percentile_leaves_ten_beyond():
    assert tail_percentile(20) == 50  # index 9, ten samples above
    assert tail_percentile(21) == 52  # index 10, ten samples above
    assert tail_percentile(60) == 83  # index 49, ten samples above
    assert tail_percentile(1000) == 99  # index 989, ten samples above
    for n in (21, 30, 60, 200, 990):
        percent = tail_percentile(n)
        index = -(-percent * n // 100) - 1
        assert n - 1 - index >= 10
        above = -(-(percent + 1) * n // 100) - 1
        assert percent == 99 or n - 1 - above < 10
    with pytest.raises(ValueError):
        tail_percentile(19)


# -- self time ---------------------------------------------------------
def _spans(*entries):
    return [(name, float(start), float(end), parent)
            for name, start, end, parent in entries]


def test_self_time_nested_spans():
    spans = _spans(
        ("op", 0, 10, -1),
        ("core.search", 1, 9, 0),
        ("core.lp", 2, 4, 1),
        ("core.rounding", 5, 8, 1),
        ("core.greedy", 6, 7, 3),
    )
    times = self_times(spans)
    assert times["op"] == pytest.approx(2.0)
    assert times["core.search"] == pytest.approx(3.0)
    assert times["core.lp"] == pytest.approx(2.0)
    assert times["core.rounding"] == pytest.approx(2.0)
    assert times["core.greedy"] == pytest.approx(1.0)
    assert sum(times.values()) == pytest.approx(10.0)


def test_self_time_back_to_back_children():
    spans = _spans(
        ("op", 0, 6, -1),
        ("runtime.cache.get", 1, 2, 0),
        ("core.tables", 2, 4, 0),
        ("runtime.cache.put", 4, 5, 0),
    )
    times = self_times(spans)
    assert times["op"] == pytest.approx(2.0)
    assert times["core.tables"] == pytest.approx(2.0)


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert covered([(0, 4), (1, 2)]) == pytest.approx(4.0)
    assert covered([]) == 0.0


def test_recorder_nests_and_rejects_misordered_close():
    recorder = SpanRecorder()
    outer = recorder.begin("op")
    inner = recorder.begin("core.lp")
    recorder.end(inner)
    recorder.end(outer)
    assert [span[3] for span in recorder.spans] == [-1, 0]
    outer = recorder.begin("op")
    recorder.begin("core.lp")
    with pytest.raises(RuntimeError):
        recorder.end(outer)


# -- workload generation -----------------------------------------------
@pytest.mark.parametrize("workload", ["design-certify-cold", "serve-warm"])
def test_op_list_deterministic_per_seed(workload):
    assert op_list(workload, 20, 7) == op_list(workload, 20, 7)
    assert op_list(workload, 20, 7) != op_list(workload, 20, 8)
    # Another seed reorders the same work, so every count repeats exactly.
    assert sorted(op_list(workload, 20, 7)) == sorted(op_list(workload, 20, 8))


def test_cold_ops_are_distinct_machines_and_skip_warmup():
    ops = op_list("design-certify-cold", 20, 1)
    assert len(set(ops)) == len(ops) == 30
    assert ("s27", 9_999) not in ops


def test_serve_sequence_repeats_every_query_equally():
    ops = op_list("serve-warm", 20, 1)
    queries = serve_queries()
    assert len(queries) == 30
    assert {ops.count(query) for query in queries} == {len(ops) // len(queries)}


# -- coverage check ----------------------------------------------------
def test_uncovered_rows_hand_built_table():
    # Two observable bits, latency 2.  Row 0 differs on bit 0 at step 1;
    # row 1 differs on both bits at step 1 and nowhere at step 2.
    rows = [[0b01, 0b00], [0b11, 0b00]]
    assert uncovered_rows(rows, [0b01]) == 0  # β = bit 0 sees both rows
    # β = bits 0 and 1: row 0 has odd overlap, row 1 even — row 1 escapes.
    assert uncovered_rows(rows, [0b11]) == 1
    assert uncovered_rows(rows, []) == 2
