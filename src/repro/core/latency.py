"""Maximum useful latency (paper §2).

"Overhead reduction due to latency reaches a saturation point … Given a
fault model, we can find the maximum latency of interest by finding the
length of the shortest loop on each faulty FSM and selecting the largest
value."

For each fault we build the faulty machine's state-transition graph over
the part of its code space reachable from the error-activation states, find
the shortest directed cycle in that region, and report the maximum over
faults — exactly the paper's recipe.

Reproduction note: this is a *heuristic*, not a sound saturation bound.  A
short loop only terminates enumeration along paths that actually traverse
it; paths that avoid the shortest loop can keep adding detection choices
at larger latencies, and our dk512 sweep (q = 5 → 4 → 3 over p = 1..3 with
a predicted bound of 1) demonstrates the under-estimate.  A sound bound
would need the longest simple path in the per-fault pair graph, which is
NP-hard in general.  EXPERIMENTS.md records this finding.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.core.detectability import (
    TableConfig,
    _StateEvaluator,
    input_alphabet,
    reachable_state_codes,
)
from repro.faults.block import reach_levels
from repro.faults.model import Fault, FaultModel
from repro.fsm.analysis import shortest_cycle_through
from repro.logic.synthesis import SynthesisResult


def max_useful_latency(
    synthesis: SynthesisResult,
    fault_model: FaultModel,
    config: TableConfig = TableConfig(),
) -> int:
    """Largest latency bound that can still add detection flexibility."""
    alphabet, _ = input_alphabet(synthesis, config)
    good = _StateEvaluator(synthesis, alphabet)
    reachable = reachable_state_codes(synthesis, alphabet)
    good.ensure(reachable)

    overall = 1
    for fault in fault_model.faults():
        cycle = _shortest_faulty_cycle(
            synthesis, fault_model, fault, alphabet, good, reachable
        )
        if cycle is not None:
            overall = max(overall, cycle)
    return overall


def _shortest_faulty_cycle(
    synthesis: SynthesisResult,
    fault_model: FaultModel,
    fault: Fault,
    alphabet: np.ndarray,
    good: _StateEvaluator,
    reachable: list[int],
) -> int | None:
    """Shortest cycle of the faulty machine reachable from an activation."""
    bad = _StateEvaluator(synthesis, alphabet, fault_model=fault_model, fault=fault)

    # Activation states: faulty next-states of erroneous reachable transitions.
    bad.ensure(reachable)
    activations: set[int] = set()
    for code in reachable:
        good_packed, _ = good.info(code)
        bad_packed, next_codes = bad.info(code)
        diffs = good_packed ^ bad_packed
        activations.update(
            int(nxt) for nxt, diff in zip(next_codes, diffs) if int(diff)
        )
    if not activations:
        return None

    # Close the faulty machine's transition relation from the activations.
    levels = reach_levels(bad.successors, sorted(activations))
    graph = nx.DiGraph(
        (code, successor)
        for level in levels
        for code in level
        for successor in set(bad.info(code)[1].tolist())
    )
    if nx.number_of_selfloops(graph):
        return 1
    lengths = (shortest_cycle_through(graph, node) for node in graph.nodes)
    return min((length for length in lengths if length is not None), default=None)
