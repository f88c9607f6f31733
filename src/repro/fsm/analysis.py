"""Structural analysis of symbolic FSMs.

Reachability, completeness statistics, the state transition graph, and the
cycle-length analysis behind the paper's §2 observation that the benefit of
added latency saturates: once every faulty machine contains a short loop,
enumeration along paths terminates and extra latency adds no freedom.  The
symbolic variant here (shortest cycle through each state of the *good*
machine) upper-bounds the useful latency cheaply; the exact per-fault value
is computed by :mod:`repro.core.latency` on the synthesized netlist.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.fsm.machine import FSM


def transition_graph(fsm: FSM) -> nx.MultiDiGraph:
    """State transition graph; parallel edges keep their transition objects."""
    graph = nx.MultiDiGraph(name=fsm.name)
    graph.add_nodes_from(fsm.states)
    for transition in fsm.transitions:
        graph.add_edge(transition.src, transition.dst, transition=transition)
    return graph


def reachable_states(fsm: FSM, source: str | None = None) -> set[str]:
    """States reachable from ``source`` (default: reset) via specified rows."""
    graph = transition_graph(fsm)
    start = source or fsm.reset_state
    return {start} | nx.descendants(graph, start)


def shortest_cycle_through(graph: nx.DiGraph, node) -> int | None:
    """Length of the shortest directed cycle through ``node`` (None if none)."""
    back = dict(nx.single_target_shortest_path_length(graph, node))
    lengths = (1 + back[succ] for succ in graph.successors(node) if succ in back)
    return min(lengths, default=None)


def shortest_cycle_lengths(fsm: FSM) -> dict[str, int | None]:
    """Per state: length of the shortest cycle through it (None if acyclic)."""
    graph = nx.DiGraph(transition_graph(fsm))
    return {state: shortest_cycle_through(graph, state) for state in fsm.states}


def self_loop_fraction(fsm: FSM) -> float:
    """Fraction of the specified input space that self-loops.

    Small MCNC controllers (donfile, s27, s386 in the paper) are self-loop
    heavy, which caps the benefit of extra detection latency.
    """
    total = 0
    loops = 0
    for transition in fsm.transitions:
        size = transition.cube().size
        total += size
        if transition.src == transition.dst:
            loops += size
    return loops / total if total else 0.0


@dataclass(frozen=True)
class FsmReport:
    """Summary statistics for a symbolic FSM."""

    name: str
    num_inputs: int
    num_outputs: int
    num_states: int
    num_transitions: int
    num_reachable: int
    completely_specified: bool
    mean_specified_fraction: float
    self_loop_fraction: float
    shortest_cycle: int | None
    longest_shortest_cycle: int | None

    def __str__(self) -> str:  # pragma: no cover - human-facing text
        return (
            f"{self.name}: {self.num_inputs} in / {self.num_states} states / "
            f"{self.num_outputs} out, {self.num_transitions} rows, "
            f"{self.num_reachable} reachable, "
            f"spec={self.mean_specified_fraction:.0%}, "
            f"self-loops={self.self_loop_fraction:.0%}"
        )


def analyze(fsm: FSM) -> FsmReport:
    """Compute an :class:`FsmReport` for a machine."""
    cycles = [
        length
        for state, length in shortest_cycle_lengths(fsm).items()
        if length is not None and state in reachable_states(fsm)
    ]
    fractions = [fsm.specified_fraction(state) for state in fsm.states]
    return FsmReport(
        name=fsm.name,
        num_inputs=fsm.num_inputs,
        num_outputs=fsm.num_outputs,
        num_states=fsm.num_states,
        num_transitions=len(fsm.transitions),
        num_reachable=len(reachable_states(fsm)),
        completely_specified=fsm.is_completely_specified(),
        mean_specified_fraction=sum(fractions) / len(fractions),
        self_loop_fraction=self_loop_fraction(fsm),
        shortest_cycle=min(cycles) if cycles else None,
        longest_shortest_cycle=max(cycles) if cycles else None,
    )
