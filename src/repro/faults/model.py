"""Fault models.

The CED flow needs exactly one thing from a fault model: a way to evaluate
the *faulty* combinational response for a batch of (input, present-state)
patterns.  :class:`FaultModel` captures that contract (plus an optional
shared :class:`~repro.faults.block.FaultResponseBlock`); two concrete
models are provided:

* :class:`StuckAtModel` — single stuck-at faults on every netlist node
  (gate outputs and primary inputs), the model used in the paper's
  experiments;
* :class:`TransitionFaultModel` — a specification-level restricted model
  where a fault redirects one FSM transition to a wrong destination state,
  included to demonstrate (and test) the paper's claim that the method
  applies to any restricted error model.

A fault must persist for at least ``p`` cycles after activation (paper §2);
both models are static circuit modifications, so they trivially satisfy it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol, Sequence

import numpy as np

from repro.faults.block import FaultResponseBlock, all_codes_fit
from repro.fsm.machine import FSM, Transition
from repro.logic.netlist import GateKind, Netlist
from repro.logic.sim import evaluate_batch
from repro.logic.synthesis import SynthesisResult, synthesize_fsm
from repro.util.rng import rng_for


@dataclass(frozen=True)
class Fault:
    """A named fault with an opaque payload understood by its model."""

    name: str
    payload: object


class FaultModel(Protocol):
    """What the detectability extractor needs from a fault model.

    A model may also define ``response_block(alphabet, reachable)``,
    returning a :class:`~repro.faults.block.FaultResponseBlock` on
    ``alphabet`` whose :meth:`~repro.faults.block.FaultResponseBlock.faulty_words`
    serve its netlist stuck-at faults: the extractor then reads each
    fault's words for every code the block holds instead of simulating
    again.  When every state code on ``alphabet`` fits
    :data:`~repro.faults.block.PATTERN_LIMIT` the block holds every code
    and ``reachable`` is not read: extraction asks for it before it knows
    the reachable set, to read the good machine's words from it too.
    Models without it (re-synthesized faults such as
    :class:`TransitionFaultModel`), non-netlist faults and codes outside
    the block are served through :meth:`faulty_responses`.
    """

    def faults(self) -> list[Fault]:
        """The fault universe."""
        ...

    def faulty_responses(self, fault: Fault, patterns: np.ndarray) -> np.ndarray:
        """(P, n) responses of the faulty machine on (input, state) patterns."""
        ...


# ----------------------------------------------------------------------
# Stuck-at faults on the synthesized netlist
# ----------------------------------------------------------------------
def stuck_at_universe(netlist: Netlist, include_inputs: bool = True) -> list[Fault]:
    """All single stuck-at faults on gate outputs (and optionally inputs)."""
    faults: list[Fault] = []
    nodes = list(netlist.logic_nodes())
    if include_inputs:
        nodes = list(netlist.input_ids) + nodes
    for node in nodes:
        label = _node_label(netlist, node)
        for value in (0, 1):
            faults.append(Fault(f"{label}/sa{value}", (node, value)))
    return faults


def _node_label(netlist: Netlist, node: int) -> str:
    gate = netlist.gates[node]
    if gate.kind is GateKind.INPUT:
        return gate.name
    return f"n{node}:{gate.kind.value}"


@dataclass
class StuckAtModel:
    """Single stuck-at faults on a synthesized FSM's netlist.

    Selection is delegated to
    :func:`repro.faults.collapse.select_stuck_at_faults` — the one shared
    recipe (universe → structural collapse → signature classes → seeded
    subsample) the exhaustive verifier uses too.  ``faults()`` returns one
    representative per behavior-equivalence class;
    :meth:`fault_multiplicities` gives the aligned class sizes that expand
    per-representative results back to the full universe.  ``max_faults``
    (optional) deterministically subsamples the collapsed classes —
    necessary on the largest benchmarks where the full universe is several
    thousand faults.  The sample is seeded and recorded.
    """

    synthesis: SynthesisResult
    include_inputs: bool = True
    collapse: bool = True
    max_faults: int | None = None
    seed: int = 2004
    #: Apply the functional signature-class pass on top of the structural
    #: rules (only meaningful when ``collapse`` is on).
    signature_collapse: bool = True

    def selection(self):
        """The full :class:`repro.faults.collapse.FaultSelection` (cached).

        Selection involves a whole-universe packed simulation sweep, so it
        is computed once per model instance and reused by every
        ``faults()`` call (table extraction and verification both call
        repeatedly).
        """
        cached = self.__dict__.get("_selection")
        if cached is None:
            from repro.faults.collapse import select_stuck_at_faults

            cached = select_stuck_at_faults(
                self.synthesis,
                include_inputs=self.include_inputs,
                collapse=self.collapse,
                signature=self.collapse and self.signature_collapse,
                max_faults=self.max_faults,
                seed=self.seed,
            )
            self.__dict__["_selection"] = cached
        return cached

    def faults(self) -> list[Fault]:
        return list(self.selection().checked)

    def fault_classes(self):
        """Checked :class:`~repro.faults.collapse.FaultClass` list (aligned
        with :meth:`faults`)."""
        return list(self.selection().checked_classes)

    def fault_multiplicities(self) -> list[int]:
        """Class multiplicity per checked fault (aligned with
        :meth:`faults`); sums to the universe share the list stands for."""
        return [cls.multiplicity for cls in self.selection().checked_classes]

    def faulty_responses(self, fault: Fault, patterns: np.ndarray) -> np.ndarray:
        node, value = fault.payload  # type: ignore[misc]
        return evaluate_batch(self.synthesis.netlist, patterns, fault=(node, value))

    def response_block(
        self, alphabet: np.ndarray, reachable: Sequence[int]
    ) -> FaultResponseBlock:
        """The selection's block when it was built on ``alphabet`` (its
        representatives' words are already simulated), else one of this
        model's own (cached): over every state code when they fit
        :data:`repro.faults.block.PATTERN_LIMIT`, else the ``reachable``
        ones."""
        for block in (self.selection().block, self.__dict__.get("_block")):
            if block is not None and np.array_equal(block.alphabet, alphabet):
                return block
        codes = None if all_codes_fit(self.synthesis, alphabet) else reachable
        block = FaultResponseBlock(self.synthesis, alphabet, codes)
        self.__dict__["_block"] = block
        return block


# ----------------------------------------------------------------------
# Specification-level transition faults
# ----------------------------------------------------------------------
@dataclass
class TransitionFaultModel:
    """Faults that corrupt one transition's destination state.

    For every specified transition and every wrong destination drawn from a
    seeded sample (``alternatives`` per transition), the faulty machine is
    re-synthesized with that single row redirected.  This is a restricted
    error model in the paper's sense: the erroneous responses form a small
    subset of all possible responses.
    """

    synthesis: SynthesisResult
    alternatives: int = 1
    seed: int = 2004
    _cache: dict[str, SynthesisResult] | None = None

    def faults(self) -> list[Fault]:
        fsm = self.synthesis.fsm
        rng = rng_for(self.seed, "transition-faults", fsm.name)
        faults: list[Fault] = []
        for index, transition in enumerate(fsm.transitions):
            others = [s for s in fsm.states if s != transition.dst]
            count = min(self.alternatives, len(others))
            picks = rng.choice(len(others), size=count, replace=False)
            for pick in sorted(picks.tolist()):
                wrong = others[pick]
                name = f"t{index}:{transition.src}->{wrong}"
                faults.append(Fault(name, (index, wrong)))
        return faults

    def faulty_responses(self, fault: Fault, patterns: np.ndarray) -> np.ndarray:
        synthesis = self._faulty_synthesis(fault)
        return evaluate_batch(synthesis.netlist, patterns)

    def _faulty_synthesis(self, fault: Fault) -> SynthesisResult:
        if self._cache is None:
            self._cache = {}
        cached = self._cache.get(fault.name)
        if cached is not None:
            return cached
        index, wrong = fault.payload  # type: ignore[misc]
        fsm = self.synthesis.fsm
        rows: list[Transition] = list(fsm.transitions)
        rows[index] = replace(rows[index], dst=wrong)
        faulty_fsm = FSM(
            name=f"{fsm.name}!{fault.name}",
            num_inputs=fsm.num_inputs,
            num_outputs=fsm.num_outputs,
            states=list(fsm.states),
            transitions=rows,
            reset_state=fsm.reset_state,
        )
        # Reuse the fault-free machine's encoding so state codes line up.
        synthesis = synthesize_fsm(
            faulty_fsm,
            encoding=self.synthesis.encoding,
            library=self.synthesis.library,
        )
        self._cache[fault.name] = synthesis
        return synthesis


def is_netlist_fault(fault: Fault) -> bool:
    """True iff the payload is a ``(node, value)`` netlist stuck-at pair.

    Fault-injection drivers (:mod:`repro.ced.verify`, the verification
    fuzzer) can only force faults of this shape directly; other kinds
    (e.g. :class:`TransitionFaultModel` payloads) need their own faulty
    synthesis.
    """
    payload = fault.payload
    return (
        isinstance(payload, tuple)
        and len(payload) == 2
        and all(isinstance(part, (int, np.integer)) for part in payload)
    )


def sample_faults(
    faults: Sequence[Fault], max_count: int, seed: int = 2004
) -> list[Fault]:
    """Deterministic subsample of a fault list (order-preserving)."""
    if len(faults) <= max_count:
        return list(faults)
    rng = rng_for(seed, "fault-sample", len(faults), max_count)
    chosen = rng.choice(len(faults), size=max_count, replace=False)
    return [faults[idx] for idx in sorted(chosen.tolist())]
