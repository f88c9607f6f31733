"""The shared reachability walk against its parent-pointer reference.

:func:`~repro.faults.block.reach_levels` must reach exactly the codes the
reference BFS reaches, and :func:`~repro.faults.block.back_walk` must
rebuild, from the levels alone, the parent chain the reference recorded
for every reached code: escape witnesses are built from those chains, so
any difference changes certificate bytes.  The numpy fixpoint
:func:`~repro.faults.block._closure` must reach the reference's set over
unblocked matrices.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.block import _closure, back_walk, reach_levels
from tests.oracles.reachability import parent_chain, restricted_reachable


@st.composite
def walk_cases(draw):
    """(next-state matrix, blocked mask, start codes) with self-loops and
    repeated start codes."""
    num_codes = draw(st.integers(1, 200))
    num_inputs = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    next_state = rng.integers(0, num_codes, size=(num_codes, num_inputs))
    loops = rng.random(next_state.shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    next_state[loops] = np.nonzero(loops)[0]
    blocked = rng.random(next_state.shape) < draw(
        st.sampled_from([0.0, 0.2, 0.6, 1.0])
    )
    start = draw(
        st.lists(st.integers(0, num_codes - 1), min_size=1, max_size=6)
    )
    if draw(st.booleans()):
        start = start + start[:1]
    return next_state.astype(np.int64), blocked, start


@settings(max_examples=300, deadline=None)
@given(walk_cases())
def test_back_walk_rebuilds_reference_parent_chains(case):
    next_state, blocked, start = case
    reach, parents = restricted_reachable(next_state, blocked, start)
    rows = np.where(blocked, -1, next_state).tolist()
    levels = reach_levels(lambda frontier: [rows[c] for c in frontier], start)

    reached = [code for level in levels for code in level]
    assert len(reached) == len(set(reached))
    assert sorted(reached) == np.flatnonzero(reach).tolist()
    for depth, level in enumerate(levels):
        for code in level:
            assert back_walk(
                levels[: depth + 1], next_state, ~blocked, code
            ) == parent_chain(parents, code)


@settings(max_examples=200, deadline=None)
@given(walk_cases())
def test_closure_matches_reference_set(case):
    next_state, _, start = case
    unblocked = np.zeros(next_state.shape, dtype=bool)
    reach, _ = restricted_reachable(next_state, unblocked, start)
    assert _closure(next_state, start).tolist() == np.flatnonzero(reach).tolist()


def test_closure_counts_a_repeated_start_once():
    # Two copies of code 0 once made the first level look like no growth.
    next_state = np.array([[1], [2], [2]], dtype=np.int64)
    assert _closure(next_state, [0, 0]).tolist() == [0, 1, 2]
