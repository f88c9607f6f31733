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
from repro.faults.model import FaultModel
from repro.fsm.analysis import shortest_cycle_through
from repro.logic.synthesis import SynthesisResult


def max_useful_latency(
    synthesis: SynthesisResult,
    fault_model: FaultModel,
    config: TableConfig = TableConfig(),
) -> int:
    """Largest latency bound that can still add detection flexibility."""
    alphabet, _ = input_alphabet(synthesis, config)
    reachable = reachable_state_codes(synthesis, alphabet)
    block_for = getattr(fault_model, "response_block", None)
    block = block_for(alphabet, reachable) if block_for is not None else None
    good_words = _StateEvaluator(synthesis, alphabet, block).words(reachable)

    overall = 1
    for fault in fault_model.faults():
        bad = _StateEvaluator(synthesis, alphabet, block, fault_model, fault)
        cycle = _shortest_faulty_cycle(bad, good_words, reachable)
        if cycle is not None:
            overall = max(overall, cycle)
    return overall


def _shortest_faulty_cycle(
    bad: _StateEvaluator, good_words: np.ndarray, reachable: list[int]
) -> int | None:
    """Shortest cycle of the faulty machine reachable from an activation."""
    # Activation states: faulty next-states of erroneous reachable transitions.
    bad_words = bad.words(reachable)
    erroneous = (good_words ^ bad_words) != 0
    activations = sorted(set((bad_words[erroneous] & bad.mask).tolist()))
    if not activations:
        return None

    # Close the faulty machine's transition relation from the activations.
    levels = reach_levels(bad.successors, activations)
    codes = [code for level in levels for code in level]
    graph = nx.DiGraph(
        (code, successor)
        for code, row in zip(codes, bad.successors(codes))
        for successor in set(row)
    )
    if nx.number_of_selfloops(graph):
        return 1
    lengths = (shortest_cycle_through(graph, node) for node in graph.nodes)
    return min((length for length in lengths if length is not None), default=None)
