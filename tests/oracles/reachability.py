"""Parent-pointer BFS reference for the shared reachability walk.

``repro.faults.block`` keeps breadth-first *levels* and rebuilds paths by
walking them backwards.  This is the formulation it replaced: one BFS
from ``start`` that records, for every newly reached code, the
``(code, column)`` edge that reached it first.  Iteration order (states
in discovery order, inputs ascending) is deterministic, so the parent
chains — and every escape witness built from them — are stable.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def restricted_reachable(
    next_state: np.ndarray, blocked: np.ndarray, start: Sequence[int]
) -> tuple[np.ndarray, dict[int, tuple[int, int] | None]]:
    """BFS from ``start`` over non-blocked edges; mask + parent pointers."""
    reach = np.zeros(next_state.shape[0], dtype=bool)
    parents: dict[int, tuple[int, int] | None] = {}
    frontier: list[int] = []
    for code in start:
        if not reach[code]:
            reach[code] = True
            parents[int(code)] = None
            frontier.append(int(code))
    while frontier:
        upcoming: list[int] = []
        for code in frontier:
            allowed = np.nonzero(~blocked[code])[0]
            for column in allowed.tolist():
                successor = int(next_state[code, column])
                if not reach[successor]:
                    reach[successor] = True
                    parents[successor] = (code, column)
                    upcoming.append(successor)
        frontier = upcoming
    return reach, parents


def parent_chain(
    parents: dict[int, tuple[int, int] | None], code: int
) -> tuple[int, list[int]]:
    """(start code, input columns) of the recorded path to ``code``."""
    columns: list[int] = []
    while parents[code] is not None:
        code, column = parents[code]  # type: ignore[misc]
        columns.append(column)
    columns.reverse()
    return code, columns
