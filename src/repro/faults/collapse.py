"""Sound, behavior-exact fault collapsing.

Two passes shrink the stuck-at universe without losing any distinguishable
faulty behaviour:

**Structural equivalence** (classic gate-local rules):

* through an inverter, output-sa0 ≡ input-sa1 and output-sa1 ≡ input-sa0
  (when the input net has no other observer);
* through a buffer, faults map polarity-preserving;
* for an AND/NAND gate, output-sa0 (resp. NAND output-sa1) is equivalent to
  any single input-sa0 — we keep the gate-output fault and drop the
  observer-free input faults it subsumes; dually for OR/NOR with sa1.

A net is *observer-free* only when exactly one gate reads it **and** it is
not itself an output/next-state tap (``Netlist.output_ids``).  The second
condition is the soundness fix: ``Netlist.fanout_map`` counts only gate
readers, so a net that feeds one gate *and* a primary output used to look
fanout-free — its faults were dropped even though they corrupt an observed
output directly and are not equivalent to the kept downstream gate fault.
XOR/XNOR inputs are never equivalent to output faults: keep all.

**Functional signature classes** (behavior-exact, much stronger): every
structurally-kept fault's faulty output+next-state response is read from
the full ``2**s × alphabet`` :class:`~repro.faults.block.FaultResponseBlock`
(simulated once, with the packed uint64 kernel), and faults with
byte-identical packed signatures — hash first, exact byte compare to
confirm — are grouped into one :class:`FaultClass`.  The signature is the
response restricted to the fault's *observable closure*: the state codes
reachable from the good machine's reachable set under the faulty
transition function.  Every downstream consumer — table extraction, the
exhaustive product search, the alphabet-restricted fuzzer, witness replay
— starts inside the good-reachable set and walks faulty transitions from
there, so it can only ever evaluate a fault on closure × alphabet cells:
two faults with equal closures and byte-identical responses there produce
identical table rows, identical exhaustive verdicts (status, exact
worst-case latency, activation counts, witnesses) and identical fuzzer
runs, for **every** latency.  Checking one representative per class and
weighting its verdict by the class multiplicity therefore reproduces the
full universe's latency histograms and fault counts exactly.  The one
documented caveat: class membership is exact with respect to the
analysis input alphabet (the default-knob
:func:`repro.core.detectability.input_alphabet`); driving members with
off-alphabet inputs (``restrict_to_alphabet=False`` fuzzing) may
distinguish them in that unanalyzed space.  Machines whose block exceeds
:data:`repro.faults.block.PATTERN_LIMIT` skip the functional pass and fall
back to structural classes only.

:func:`select_stuck_at_faults` is the one shared selection recipe
(universe → collapse → seeded subsample) used by both
:meth:`repro.faults.model.StuckAtModel.faults` and the exhaustive
verifier, so the two can never drift apart on the same seed.  The
selection carries the signature pass's block, so the representatives'
faulty words are simulated once and read by every later stage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.faults.block import FaultResponseBlock, all_codes_fit
from repro.logic.netlist import GateKind, Netlist
from repro.runtime.trace import current_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.model import Fault
    from repro.logic.synthesis import SynthesisResult


@dataclass(frozen=True)
class FaultClass:
    """One behavior-equivalence class of stuck-at faults.

    ``members`` always lists the representative first, then the remaining
    members in universe order.  The representative is the member every
    downstream stage (tables, exhaustive engine) actually simulates; the
    multiplicity is the weight that expands its verdict back to the full
    universe.
    """

    representative: "Fault"
    members: tuple["Fault", ...]

    @property
    def multiplicity(self) -> int:
        return len(self.members)

    @property
    def member_names(self) -> tuple[str, ...]:
        return tuple(fault.name for fault in self.members)


@dataclass(frozen=True)
class CollapseReport:
    """What one :func:`collapse_classes` run established."""

    universe: int
    #: Faults surviving the structural equivalence pass.
    structural: int
    classes: tuple[FaultClass, ...]
    #: Patterns simulated by the functional pass (0 = pass skipped).
    signature_patterns: int
    #: The signature pass's block (``None`` = pass skipped).
    block: FaultResponseBlock | None = field(default=None, compare=False)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def representatives(self) -> list["Fault"]:
        return [cls.representative for cls in self.classes]


# ----------------------------------------------------------------------
# Structural pass
# ----------------------------------------------------------------------
def _structural_targets(netlist: Netlist) -> dict[tuple[int, int], tuple[int, int]]:
    """Map each structurally-droppable fault to its gate-output equivalent.

    Only *observer-free* source nets participate: exactly one reading gate
    and not an output/next-state tap.  Because gate fanins always reference
    earlier node ids, every mapping strictly increases the node id, so
    chains (an AND output feeding only an inverter, ...) terminate.
    """
    fanout = netlist.fanout_map()
    observed = set(netlist.output_ids)
    targets: dict[tuple[int, int], tuple[int, int]] = {}
    for node, gate in enumerate(netlist.gates):
        kind = gate.kind
        if kind in (GateKind.NOT, GateKind.BUF):
            source = gate.fanin[0]
            if len(fanout[source]) == 1 and source not in observed:
                invert = kind is GateKind.NOT
                targets[(source, 0)] = (node, 1 if invert else 0)
                targets[(source, 1)] = (node, 0 if invert else 1)
        elif kind in (GateKind.AND, GateKind.NAND):
            # An input sa0 forces the AND to 0 (the NAND to 1).
            target = (node, 1 if kind is GateKind.NAND else 0)
            for source in gate.fanin:
                if len(fanout[source]) == 1 and source not in observed:
                    targets[(source, 0)] = target
        elif kind in (GateKind.OR, GateKind.NOR):
            # An input sa1 forces the OR to 1 (the NOR to 0).
            target = (node, 0 if kind is GateKind.NOR else 1)
            for source in gate.fanin:
                if len(fanout[source]) == 1 and source not in observed:
                    targets[(source, 1)] = target
    return targets


def _structural_representative(
    payload: tuple[int, int],
    targets: dict[tuple[int, int], tuple[int, int]],
    available: set[tuple[int, int]],
) -> tuple[int, int]:
    """Chase a fault's equivalence chain to the kept terminal payload.

    A fault is only folded into a representative that is itself present in
    the caller's fault list — a dropped fault must never lose its stand-in.
    """
    current = payload
    while True:
        target = targets.get(current)
        if target is None or target not in available:
            return current
        current = target


def collapse_faults(netlist: Netlist, faults: list["Fault"]) -> list["Fault"]:
    """Structurally-collapsed fault list (order-preserving).

    Sound by construction: a fault is dropped only when its gate-output
    equivalent is in ``faults``, and nets observed at ``output_ids`` are
    never treated as fanout-free.
    """
    targets = _structural_targets(netlist)
    available = {_payload(fault) for fault in faults}
    return [
        fault
        for fault in faults
        if _structural_representative(_payload(fault), targets, available)
        == _payload(fault)
    ]


def _payload(fault: "Fault") -> tuple[int, int]:
    node, value = fault.payload  # type: ignore[misc]
    return (int(node), int(value))


# ----------------------------------------------------------------------
# Functional signature classes
# ----------------------------------------------------------------------
class SignatureEngine:
    """Observable-closure response signatures over an all-codes block.

    The block is ``2**s × alphabet`` (every state code crossed with the
    default-knob :func:`repro.core.detectability.input_alphabet`) — the
    exact cell space table extraction, the exhaustive product search and
    the alphabet-restricted fuzzer evaluate faults on.
    ``signature(payload)`` returns the byte-exact observable behaviour of
    the faulty machine: the closure of state codes reachable from the
    good machine's reachable set under the faulty transition function,
    followed by the packed output+next-state words at every closure ×
    alphabet cell.  Two faults with byte-identical signatures are driven
    through identical trajectories and emit identical words at every cell
    any downstream consumer can reach, so their table rows, exhaustive
    verdicts (status, exact worst-case latency, activation counts,
    witnesses) and fuzzer runs coincide for every latency.
    """

    def __init__(self, block: FaultResponseBlock) -> None:
        self.block = block
        self.state_mask = np.int64(len(block.codes) - 1)
        self.good_reachable = _closure(
            block.good_words & self.state_mask, [block.synthesis.reset_code]
        )

    def signature(self, payload: tuple[int, int]) -> bytes:
        """Byte-exact observable behaviour of the fault. See class doc."""
        words = self.block.faulty_words(payload)
        closure = _closure(words & self.state_mask, self.good_reachable)
        return closure.tobytes() + words[closure].tobytes()


def _closure(next_state: np.ndarray, start) -> np.ndarray:
    """Sorted state codes reachable from ``start`` under ``next_state``."""
    seen = np.zeros(next_state.shape[0], dtype=bool)
    seen[start] = True
    count = len(start)
    while True:
        seen[next_state[seen]] = True
        grown = np.count_nonzero(seen)
        if grown == count:
            return np.flatnonzero(seen)
        count = grown


def signature_block(synthesis: "SynthesisResult") -> FaultResponseBlock | None:
    """The all-codes block on the default analysis alphabet, or ``None``
    when the machine has no observed outputs or the block exceeds
    :data:`repro.faults.block.PATTERN_LIMIT`."""
    from repro.core.detectability import TableConfig, input_alphabet

    alphabet, _ = input_alphabet(synthesis, TableConfig())
    if not synthesis.netlist.output_ids or not all_codes_fit(synthesis, alphabet):
        return None
    return FaultResponseBlock(synthesis, alphabet)


def collapse_classes(
    synthesis: "SynthesisResult",
    faults: list["Fault"],
    signature: bool = True,
) -> CollapseReport:
    """Group ``faults`` into behavior-equivalence classes.

    The structural pass folds gate-local equivalences; the signature pass
    (when :func:`signature_block` has a block) then merges every pair of
    survivors with byte-identical :class:`SignatureEngine` signatures and
    hands the block — holding each representative's faulty words — on in
    the report.  Class order follows the representative's position in
    ``faults``; member order within a class is deterministic (the
    representative always first).
    """
    netlist = synthesis.netlist
    universe = list(faults)
    targets = _structural_targets(netlist)
    available = {_payload(fault) for fault in universe}

    # Structural classes: kept payload -> members (kept fault first).
    grouped: dict[tuple[int, int], list["Fault"]] = {}
    order: list[tuple[int, int]] = []
    deferred: dict[tuple[int, int], list["Fault"]] = {}
    for fault in universe:
        payload = _payload(fault)
        keeper = _structural_representative(payload, targets, available)
        if keeper == payload:
            if payload not in grouped:
                grouped[payload] = [fault]
                order.append(payload)
            grouped[payload].extend(deferred.pop(payload, ()))
        elif keeper in grouped:
            grouped[keeper].append(fault)
        else:
            # Universe order lists inputs before the gates that read them,
            # so a dropped fault can precede its representative.
            deferred.setdefault(keeper, []).append(fault)
    for keeper, members in deferred.items():  # pragma: no cover - defensive
        grouped.setdefault(keeper, []).extend(members)
        if keeper not in order:
            order.append(keeper)
    structural = len(order)

    block = signature_block(synthesis) if signature else None
    if block is not None:
        order = _merge_by_signature(SignatureEngine(block), grouped, order)

    classes = tuple(
        FaultClass(
            representative=grouped[payload][0],
            members=tuple(grouped[payload]),
        )
        for payload in order
    )
    return CollapseReport(
        universe=len(universe),
        structural=structural,
        classes=classes,
        signature_patterns=block.num_patterns if block is not None else 0,
        block=block,
    )


def _merge_by_signature(
    engine: SignatureEngine,
    grouped: dict[tuple[int, int], list["Fault"]],
    order: list[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Merge structural classes with byte-identical response signatures.

    Hash-then-exact-confirm: classes are bucketed by SHA-256 digest and a
    full byte comparison settles every bucket collision, so a hash clash
    can never merge distinguishable faults.  Mutates ``grouped`` (members
    of merged classes are appended to the surviving representative's list)
    and returns the surviving class order.
    """
    buckets: dict[bytes, list[tuple[bytes, tuple[int, int]]]] = {}
    kept: list[tuple[int, int]] = []
    for payload in order:
        signature = engine.signature(payload)
        digest = hashlib.sha256(signature).digest()
        bucket = buckets.setdefault(digest, [])
        for candidate_signature, keeper in bucket:
            if candidate_signature == signature:  # exact confirm
                grouped[keeper].extend(grouped.pop(payload))
                break
        else:
            bucket.append((signature, payload))
            kept.append(payload)
    return kept


# ----------------------------------------------------------------------
# The one shared fault-selection recipe
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSelection:
    """A complete, certifiable stuck-at fault selection for one machine.

    ``classes`` covers the whole universe; ``checked`` is the (possibly
    seeded-subsampled) list of class representatives downstream stages
    actually simulate, and ``checked_classes`` the aligned classes whose
    multiplicities expand per-representative verdicts back to universe
    counts.  ``block`` is the signature pass's
    :class:`~repro.faults.block.FaultResponseBlock` (``None`` when the pass
    was skipped): table extraction and the exhaustive engine read the
    representatives' faulty words from it instead of simulating again.
    """

    universe: int
    structural: int
    signature_patterns: int
    classes: tuple[FaultClass, ...]
    checked: tuple["Fault", ...]
    checked_classes: tuple[FaultClass, ...]
    block: FaultResponseBlock | None = field(default=None, compare=False)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def checked_universe(self) -> int:
        """Universe faults the checked representatives stand for."""
        return sum(cls.multiplicity for cls in self.checked_classes)

    def multiplicities(self) -> dict[str, int]:
        """Checked representative name → class multiplicity."""
        return {
            cls.representative.name: cls.multiplicity
            for cls in self.checked_classes
        }


def select_stuck_at_faults(
    synthesis: "SynthesisResult",
    include_inputs: bool = True,
    collapse: bool = True,
    signature: bool = True,
    max_faults: int | None = None,
    seed: int = 2004,
) -> FaultSelection:
    """Universe → collapse → seeded subsample, with class bookkeeping.

    This is the single selection recipe shared by the fault model and the
    exhaustive verifier: identical arguments always yield the identical
    checked list (the subsample uses the historical
    ``rng_for(seed, "stuck-at-sample", fsm.name)`` stream over the
    collapsed list).
    """
    from repro.faults.model import stuck_at_universe
    from repro.util.rng import rng_for

    netlist = synthesis.netlist
    universe = stuck_at_universe(netlist, include_inputs)
    block = None
    if collapse:
        report = collapse_classes(synthesis, universe, signature=signature)
        classes = report.classes
        structural = report.structural
        block = report.block
    else:
        classes = tuple(
            FaultClass(representative=fault, members=(fault,))
            for fault in universe
        )
        structural = len(universe)
    patterns_used = block.num_patterns if block is not None else 0

    tracer = current_tracer()
    if tracer.enabled and collapse:
        tracer.event(
            "collapse.structural",
            fsm=synthesis.fsm.name,
            universe=len(universe),
            kept=structural,
            dropped=len(universe) - structural,
            ratio=round(structural / len(universe), 4) if universe else 1.0,
        )
        tracer.event(
            "collapse.classes",
            fsm=synthesis.fsm.name,
            structural=structural,
            classes=len(classes),
            patterns=patterns_used,
            skipped=patterns_used == 0,
            ratio=round(len(classes) / structural, 4) if structural else 1.0,
        )

    checked_classes = list(classes)
    if max_faults is not None and len(checked_classes) > max_faults:
        rng = rng_for(seed, "stuck-at-sample", synthesis.fsm.name)
        chosen = rng.choice(
            len(checked_classes), size=max_faults, replace=False
        )
        checked_classes = [
            checked_classes[idx] for idx in sorted(chosen.tolist())
        ]
        if tracer.enabled and collapse:
            tracer.event(
                "collapse.select",
                fsm=synthesis.fsm.name,
                classes=len(classes),
                checked=len(checked_classes),
                sampled=True,
            )
    return FaultSelection(
        universe=len(universe),
        structural=structural,
        signature_patterns=patterns_used,
        classes=classes,
        checked=tuple(cls.representative for cls in checked_classes),
        checked_classes=tuple(checked_classes),
        block=block,
    )
