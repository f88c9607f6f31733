"""Error detectability table extraction (the paper's Fig. 2).

For every fault ``f`` of a restricted model, every good-machine-reachable
activation state ``c`` and every input ``a_1`` for which the faulty circuit's
next-state/output word differs from the fault-free one, an *erroneous case*
is one length-``p`` input path from that activation; the paper's table
records, per step ``k``, the set of observable bits on which the faulty
response differs from the reference (``V(i, j, k)``).

Two reference **semantics** are provided (DESIGN.md §2 discusses the
difference at length; it is a genuine subtlety of the paper):

* ``"trajectory"`` (paper-faithful, the default for the Table-1
  reproduction): step-``k`` difference between the good machine's response
  along the *good* trajectory from ``c`` and the faulty machine's response
  along the *faulty* trajectory — the quantity ``GM(A,c) ⊕ BM_f(A,c)`` the
  paper defines.  Once the state diverges these differences are rich, which
  is what gives added latency its leverage.
* ``"checker"`` (hardware-accurate): step-``k`` difference between the
  faulty circuit's response and the fault-free combinational function
  evaluated **at the faulty circuit's own present state** — exactly the
  mismatch a non-intrusive predictor + parity-tree checker (Fig. 3, shared
  state register) can observe.  The :mod:`repro.ced.verify` fault-injection
  campaign validates built hardware against this semantics.

Canonical row representation
----------------------------
A parity set covers a path iff some step's difference word has odd overlap
with some parity vector — a predicate that depends only on the *set* of
distinct non-zero difference words along the path, not on their order or
multiplicity.  Rows are therefore canonicalized to **detection option
sets** and reduced to the ⊆-minimal antichain (a path offering a superset
of another path's options is implied by it).  This is an exact,
optimum-preserving reduction of the paper's table, and it is what keeps
the path enumeration tractable: suffix antichains are memoized per
(reference state, faulty state, remaining depth), so loops and input
vectors with identical behaviour collapse, and one extraction emits the
tables for *all* latencies up to the configured bound.

Option sets are never materialized as Python sets: enumeration, pooling
and minimisation all work on packed ``uint64`` rows (a set's words
ascending, zero-padded at the tail), whose row-lexicographic order is the
canonical order of the family.  Per latency, the per-fault rows are
concatenated, deduplicated, ⊆-minimised by probing each row's proper
sub-rows against the sorted row keys, and row-capped in that order.

The stored ``rows`` array is ``(m, width)`` uint64 with each row's option
words sorted descending and zero-padded; ``width ≤ latency``.  The paper's
``V`` tensor is recovered by :meth:`DetectabilityTable.tensor` (with the
per-row step permutation implied by canonicalization, which the Statement
4/5 programs are insensitive to).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.faults.block import (
    FaultResponseBlock,
    all_codes_fit,
    block_patterns,
    pack_words,
    reach_levels,
)
from repro.faults.model import Fault, FaultModel, is_netlist_fault
from repro.logic.sim import evaluate_batch
from repro.logic.synthesis import SynthesisResult
from repro.runtime.trace import current_tracer

SEMANTICS = ("trajectory", "checker")


@dataclass(frozen=True)
class TableConfig:
    """Knobs of the detectability-table extraction."""

    latency: int = 1
    #: "trajectory" = the paper's GM-vs-BM difference; "checker" = the
    #: difference observable by the Fig. 3 hardware.  See module docstring.
    semantics: str = "trajectory"
    #: Use the full 2**r input alphabet when r <= this; otherwise one
    #: representative minterm per distinct specification input cube plus
    #: ``extra_random_inputs`` random vectors.
    exhaustive_input_limit: int = 6
    extra_random_inputs: int = 8
    #: Hard cap on the alphabet in cube mode (deterministic subsample).
    max_alphabet: int = 64
    #: Safety valve on the memoized per-pair suffix antichains.  Hitting it
    #: sets ``TableStats.truncated`` (the bounded-latency guarantee then
    #: only holds for the enumerated paths; consult the verifier).
    max_suffixes_per_state: int = 4096
    #: Per-fault and global caps on erroneous cases per latency.  The
    #: largest trajectory-semantics machines otherwise produce millions of
    #: distinct option sets; exceeding a cap subsamples deterministically
    #: and sets ``TableStats.truncated``.
    max_rows_per_fault: int = 4000
    max_rows: int = 200_000
    seed: int = 2004

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise ValueError("latency must be at least 1")
        if self.semantics not in SEMANTICS:
            raise ValueError(f"semantics must be one of {SEMANTICS}")


@dataclass(frozen=True)
class TableStats:
    """Provenance of a detectability table."""

    fsm_name: str
    num_faults: int
    num_activations: int
    num_rows: int
    alphabet_size: int
    input_mode: str
    semantics: str
    num_reachable_states: int
    truncated: bool
    #: Universe faults the extracted fault list stands for (sum of the
    #: fault model's behavior-equivalence class multiplicities; equals
    #: ``num_faults`` for models without class collapsing).
    num_universe_faults: int = 0


@dataclass
class DetectabilityTable:
    """The paper's m × n × p table in canonical option-set form."""

    num_bits: int
    latency: int
    rows: np.ndarray  # (m, width) uint64, width <= latency
    stats: TableStats | None = field(default=None)

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.uint64)
        if self.rows.ndim != 2:
            raise ValueError("rows must be 2-dimensional")
        if self.rows.shape[1] > max(1, self.latency):
            raise ValueError("row width exceeds the latency bound")
        if self.num_bits > 62:
            raise ValueError("bitmask row encoding supports at most 62 bits")

    @property
    def num_rows(self) -> int:
        return int(self.rows.shape[0])

    @property
    def width(self) -> int:
        """Number of stored option columns (≤ latency)."""
        return int(self.rows.shape[1])

    def option_sets(self) -> set[frozenset[int]]:
        """The rows as canonical detection option sets (zero padding dropped).

        Two tables describe the same detectability structure iff their
        option-set families are equal — the representation the differential
        oracle and the relabeling-invariance property compare on.
        """
        return {
            frozenset(int(word) for word in row if int(word) != 0)
            for row in self.rows
        }

    def tensor(self) -> np.ndarray:
        """Dense boolean V with shape (m, n, width)."""
        bits = np.arange(self.num_bits, dtype=np.uint64)
        return ((self.rows[:, None, :] >> bits[None, :, None]) & 1).astype(bool)

    def step_matrix(self, step: int) -> np.ndarray:
        """V(:, :, k) as an (m, n) boolean matrix (k counted from 1)."""
        if not 1 <= step <= self.width:
            raise ValueError("step out of range")
        bits = np.arange(self.num_bits, dtype=np.uint64)
        return ((self.rows[:, step - 1][:, None] >> bits[None, :]) & 1).astype(bool)


# ----------------------------------------------------------------------
# Input alphabet and reachability
# ----------------------------------------------------------------------
def input_alphabet(
    synthesis: SynthesisResult, config: TableConfig
) -> tuple[np.ndarray, str]:
    """Input vectors used at every path step, plus the mode name."""
    r = synthesis.num_inputs
    if r <= config.exhaustive_input_limit:
        return np.arange(1 << r, dtype=np.int64), "exhaustive"
    from repro.util.rng import rng_for

    representatives: set[int] = set()
    for transition in synthesis.fsm.transitions:
        cube = transition.cube()
        representatives.add(cube.value)  # the cube's all-free-bits-0 minterm
    rng = rng_for(config.seed, "alphabet", synthesis.fsm.name)
    for _ in range(config.extra_random_inputs):
        representatives.add(int(rng.integers(1 << r)))
    ordered = sorted(representatives)
    if len(ordered) > config.max_alphabet:
        chosen = rng.choice(len(ordered), size=config.max_alphabet, replace=False)
        ordered = [ordered[idx] for idx in sorted(chosen.tolist())]
    return np.array(ordered, dtype=np.int64), "cube"


def reachable_state_codes(
    synthesis: SynthesisResult,
    alphabet: np.ndarray,
    block: FaultResponseBlock | None = None,
) -> list[int]:
    """State codes reachable from reset in the synthesized good machine.

    Good words of codes ``block`` holds are sliced from it; the rest of
    each frontier is simulated.
    """
    evaluator = _StateEvaluator(synthesis, alphabet, block)
    levels = reach_levels(evaluator.successors, [synthesis.reset_code])
    return sorted(code for level in levels for code in level)


# ----------------------------------------------------------------------
# Incremental extraction state
#
# Table extraction is split into three pure steps so cross-latency work
# can be *reused* instead of re-enumerated:
#
# 1. :func:`new_extraction_state` — the latency-independent setup (input
#    alphabet, good-machine reachability, the fault universe) plus one
#    empty :class:`ExtractionFrontier` per fault;
# 2. :func:`extend_extraction_state` — per fault, discover the activation
#    branches (once) and compute the reduced packed rows for every newly
#    requested latency, growing the memoized suffix antichains in place.
#    A latency-``p+1`` request extends the ``p`` enumeration's frontier:
#    every ``(pair, depth)`` suffix antichain computed for ``p`` is
#    reused verbatim, only the genuinely new keys are merged;
# 3. :func:`tables_from_state` — pool the per-fault rows of the requested
#    latencies into canonical tables.
#
# Every memo entry is a pure function of its ``(pair, depth)`` key, and
# per-entry *subtree* truncation flags record exactly which enumerations
# hit ``max_suffixes_per_state`` — so a table derived from a state that
# was grown over several requests is byte-identical to one extracted
# from scratch for the same latency set.  The state is picklable: the
# runtime persists it in a derived artifact-cache stage so warm sweeps
# chain ``p=1 → 2 → 4`` across processes without recompute.
# ----------------------------------------------------------------------

#: Bump when the pickled state layout changes (the cache salt already
#: covers released schema changes; this guards same-version skew).
#: Revision 2: states record the fault model's class multiplicities.
STATE_SCHEMA = 2


@dataclass(frozen=True)
class RowMeta:
    """Bookkeeping of one fault's reduced rows at one latency."""

    raw: int  # deduplicated branch-extension rows before reduction
    reduced: int  # rows after the cheap antichain reduction
    capped: bool  # hit max_rows_per_fault (deterministic subsample)
    suffix_truncated: bool  # any suffix merge in this latency's subtree
    # hit max_suffixes_per_state


@dataclass
class ExtractionFrontier:
    """One fault's reusable enumeration frontier.

    ``branches`` (the distinct activation ``(diff, good next, bad next)``
    triples) and ``activations`` are latency-independent and discovered
    once.  ``suffix_memo`` maps ``(reference, faulty, depth)`` to the
    minimal antichain of packed option-set rows over depth-``depth``
    paths from the pair — the quantity a deeper extraction extends
    instead of recomputing.  ``truncated_keys`` holds every memo key
    whose *subtree* hit ``max_suffixes_per_state``, so truncation flags
    can be reproduced exactly for any latency subset.
    """

    fault_name: str
    activations: int = 0
    branches: list[tuple[int, int, int]] | None = None
    step_memo: dict[tuple[int, int], list[tuple[int, int, int]]] = field(
        default_factory=dict
    )
    suffix_memo: dict[tuple[int, int, int], np.ndarray] = field(
        default_factory=dict
    )
    truncated_keys: set[tuple[int, int, int]] = field(default_factory=set)
    rows: dict[int, np.ndarray] = field(default_factory=dict)
    row_meta: dict[int, RowMeta] = field(default_factory=dict)

    def approx_nbytes(self) -> int:
        total = sum(arr.nbytes for arr in self.suffix_memo.values())
        total += sum(arr.nbytes for arr in self.rows.values())
        total += 96 * (len(self.suffix_memo) + len(self.step_memo))
        total += 48 * sum(len(steps) for steps in self.step_memo.values())
        return total


@dataclass
class ExtractionState:
    """Everything needed to derive (and extend) detectability tables."""

    fsm_name: str
    semantics: str
    num_bits: int
    alphabet: np.ndarray
    input_mode: str
    reachable: list[int]
    fault_names: tuple[str, ...]
    frontiers: list[ExtractionFrontier]
    #: Behavior-equivalence class size per fault (aligned with
    #: ``fault_names``); all ones for models without class collapsing.
    fault_multiplicities: tuple[int, ...] = ()
    latencies: set[int] = field(default_factory=set)
    schema: int = STATE_SCHEMA

    def approx_nbytes(self) -> int:
        """Rough pickled size, used to bound what the cache persists."""
        return self.alphabet.nbytes + sum(
            frontier.approx_nbytes() for frontier in self.frontiers
        )

    def suffix_entries(self) -> int:
        return sum(len(frontier.suffix_memo) for frontier in self.frontiers)


@dataclass(frozen=True)
class ExtendStats:
    """What one :func:`extend_extraction_state` call did."""

    new_latencies: tuple[int, ...]
    reused_suffix_entries: int
    new_suffix_entries: int

    @property
    def reuse_ratio(self) -> float:
        total = self.reused_suffix_entries + self.new_suffix_entries
        return self.reused_suffix_entries / total if total else 0.0


def _normalize_latencies(
    config: TableConfig, latencies: Sequence[int] | None
) -> list[int]:
    if latencies is None:
        latencies = list(range(1, config.latency + 1))
    latencies = sorted(set(int(p) for p in latencies))
    if not latencies or latencies[0] < 1 or latencies[-1] > config.latency:
        raise ValueError("latencies must lie in [1, config.latency]")
    return latencies


def new_extraction_state(
    synthesis: SynthesisResult,
    fault_model: FaultModel,
    config: TableConfig,
) -> ExtractionState:
    """Latency-independent setup: alphabet, reachability, fault universe."""
    alphabet, input_mode = input_alphabet(synthesis, config)
    faults = fault_model.faults()
    block = None
    if hasattr(fault_model, "response_block") and all_codes_fit(synthesis, alphabet):
        # Every code fits, so the reachable-codes fallback is never read.
        block = fault_model.response_block(alphabet, ())
    reachable = reachable_state_codes(synthesis, alphabet, block)
    return ExtractionState(
        fsm_name=synthesis.fsm.name,
        semantics=config.semantics,
        num_bits=synthesis.num_bits,
        alphabet=alphabet,
        input_mode=input_mode,
        reachable=reachable,
        fault_names=tuple(fault.name for fault in faults),
        frontiers=[
            ExtractionFrontier(fault_name=fault.name) for fault in faults
        ],
        fault_multiplicities=_fault_multiplicities(fault_model, len(faults)),
    )


def _fault_multiplicities(fault_model: FaultModel, count: int) -> tuple[int, ...]:
    """Per-fault class sizes from the model, or all ones if it has none."""
    getter = getattr(fault_model, "fault_multiplicities", None)
    if getter is None:
        return (1,) * count
    multiplicities = tuple(int(m) for m in getter())
    if len(multiplicities) != count:  # pragma: no cover - defensive
        raise ValueError(
            "fault model returned multiplicities misaligned with its faults"
        )
    return multiplicities


def extend_extraction_state(
    state: ExtractionState,
    synthesis: SynthesisResult,
    fault_model: FaultModel,
    config: TableConfig,
    latencies: Sequence[int] | None = None,
) -> ExtendStats:
    """Grow the state to cover ``latencies``, reusing every memoized suffix.

    Already-covered latencies cost nothing; new ones enumerate only the
    suffix keys the previous extractions never needed.  Mutates ``state``
    in place and returns reuse statistics.
    """
    latencies = _normalize_latencies(config, latencies)
    if config.semantics != state.semantics:
        raise ValueError("semantics does not match the extraction state")
    needed = [p for p in latencies if p not in state.latencies]
    reused = state.suffix_entries()
    if not needed:
        return ExtendStats((), reused, 0)
    faults = fault_model.faults()
    if tuple(fault.name for fault in faults) != state.fault_names:
        raise ValueError("fault universe does not match the extraction state")
    block_for = getattr(fault_model, "response_block", None)
    block = (
        block_for(state.alphabet, state.reachable)
        if block_for is not None
        else None
    )
    good = _StateEvaluator(synthesis, state.alphabet, block)
    good.ensure(state.reachable)
    for fault, frontier in zip(faults, state.frontiers):
        extractor = _FaultExtractor(
            synthesis,
            fault_model,
            fault,
            state.alphabet,
            good,
            config,
            block=block,
            frontier=frontier,
        )
        extractor.discover(state.reachable)
        for p in needed:
            if p not in frontier.rows:
                extractor.rows_for(p)
    state.latencies.update(needed)
    return ExtendStats(
        tuple(needed), reused, state.suffix_entries() - reused
    )


def tables_from_state(
    state: ExtractionState,
    config: TableConfig,
    latencies: Sequence[int] | None = None,
) -> dict[int, DetectabilityTable]:
    """Pool a state's per-fault rows into canonical tables.

    Byte-identical to a from-scratch :func:`extract_tables` call for the
    same latency set, regardless of the order in which the state was
    grown: rows, stats and truncation flags are all derived from exact
    per-``(fault, latency)`` bookkeeping.
    """
    latencies = _normalize_latencies(config, latencies)
    missing = [p for p in latencies if p not in state.latencies]
    if missing:
        raise ValueError(
            f"state has no rows for latencies {missing}; extend it first"
        )
    tracer = current_tracer()
    per_latency: dict[int, list[np.ndarray]] = {p: [] for p in latencies}
    raw_rows = {p: 0 for p in latencies}
    reduced_rows = {p: 0 for p in latencies}
    capped_faults = {p: 0 for p in latencies}
    truncated = False
    for frontier in state.frontiers:
        for p in latencies:
            meta = frontier.row_meta[p]
            raw_rows[p] += meta.raw
            reduced_rows[p] += meta.reduced
            if meta.capped:
                capped_faults[p] += 1
            truncated = truncated or meta.capped or meta.suffix_truncated
            per_latency[p].append(frontier.rows[p])
    num_activations = sum(f.activations for f in state.frontiers)
    num_universe_faults = (
        sum(state.fault_multiplicities)
        if state.fault_multiplicities
        else len(state.frontiers)
    )

    tables: dict[int, DetectabilityTable] = {}
    for p in latencies:
        pooled = (
            _unique_rows(np.concatenate(per_latency[p]))
            if per_latency[p]
            else np.zeros((0, p), dtype=np.uint64)
        )
        rows = _minimal_rows(pooled)
        minimal = int(rows.shape[0])
        # Stored form: words descending, zero-padded to the longest row
        # of the whole antichain (before any row cap).
        width = max(1, int((rows != np.uint64(0)).sum(axis=1).max(initial=0)))
        table_truncated = truncated
        row_capped = False
        if rows.shape[0] > config.max_rows:
            from repro.util.rng import rng_for

            rng = rng_for(config.seed, "row-cap", state.fsm_name, p)
            chosen = rng.choice(
                rows.shape[0], size=config.max_rows, replace=False
            )
            rows = rows[np.sort(chosen)]
            table_truncated = True
            row_capped = True
        rows = np.ascontiguousarray(np.sort(rows, axis=1)[:, ::-1][:, :width])
        stats = TableStats(
            fsm_name=state.fsm_name,
            num_faults=len(state.frontiers),
            num_activations=num_activations,
            num_rows=int(rows.shape[0]),
            alphabet_size=int(state.alphabet.shape[0]),
            input_mode=state.input_mode,
            semantics=config.semantics,
            num_reachable_states=len(state.reachable),
            truncated=table_truncated,
            num_universe_faults=num_universe_faults,
        )
        tables[p] = DetectabilityTable(
            num_bits=state.num_bits, latency=p, rows=rows, stats=stats
        )
        if tracer.enabled:
            tracer.event(
                "tables.latency",
                fsm=state.fsm_name,
                latency=p,
                rows=int(rows.shape[0]),
                bits=state.num_bits,
                width=int(rows.shape[1]),
                raw_fault_rows=raw_rows[p],
                deduped_fault_rows=reduced_rows[p],
                pooled_option_sets=int(pooled.shape[0]),
                minimal_option_sets=minimal,
                capped_faults=capped_faults[p],
                row_capped=row_capped,
                truncated=table_truncated,
            )
    if tracer.enabled:
        tracer.event(
            "tables.extract",
            fsm=state.fsm_name,
            semantics=config.semantics,
            faults=len(state.frontiers),
            universe_faults=num_universe_faults,
            activations=num_activations,
            reachable_states=len(state.reachable),
            alphabet=int(state.alphabet.shape[0]),
            input_mode=state.input_mode,
            latencies=list(latencies),
            truncated=truncated,
        )
    return tables


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def extract_tables(
    synthesis: SynthesisResult,
    fault_model: FaultModel,
    config: TableConfig,
    latencies: Sequence[int] | None = None,
) -> dict[int, DetectabilityTable]:
    """Build tables for every requested latency in one enumeration pass.

    ``latencies`` defaults to ``1 .. config.latency``; all values must be
    within the configured bound.  This is the one-shot composition of the
    incremental API (:func:`new_extraction_state` →
    :func:`extend_extraction_state` → :func:`tables_from_state`); the
    runtime flow persists the intermediate state so later calls extend it
    instead of starting here.
    """
    latencies = _normalize_latencies(config, latencies)
    state = new_extraction_state(synthesis, fault_model, config)
    extend_extraction_state(state, synthesis, fault_model, config, latencies)
    return tables_from_state(state, config, latencies)


def _subset_positions(total: int, size: int) -> list[int]:
    """Evenly-spaced *unique* positions, topped up after stride collisions.

    ``int(idx * step)`` collides when ``total`` barely exceeds ``size``;
    the deduplicated positions are refilled with the smallest unused
    indices so the sample size never silently shrinks.
    """
    step = total / size
    positions = sorted({int(idx * step) for idx in range(size)})
    if len(positions) < size:
        taken = set(positions)
        fill = (idx for idx in range(total) if idx not in taken)
        for _ in range(size - len(positions)):
            positions.append(next(fill))
    return positions


# ----------------------------------------------------------------------
# Packed-row option-set algebra
#
# An option-set family is a uint64 array of shape (k, width): each row
# holds the set's words ascending with zero padding at the tail.  Words
# are response differences and therefore never zero, so (a) the padding
# is unambiguous and (b) row-wise lexicographic order with column 0
# primary is the family's canonical order (a set sorts before its
# extensions, since the pad sorts before every real word).  Per-fault
# enumeration, pooling and minimisation all run on this one form.
# ----------------------------------------------------------------------
def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """Deduplicated rows in canonical (column-0-primary lexicographic)
    order — ``np.unique(rows, axis=0)`` without its void-view overhead."""
    if rows.shape[0] <= 1:
        return rows
    order = np.lexsort(tuple(rows.T[::-1]))
    ordered = rows[order]
    keep = np.empty(ordered.shape[0], dtype=bool)
    keep[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=keep[1:])
    return ordered[keep]


def _insert_word(block: np.ndarray, word: int) -> np.ndarray:
    """Row-wise ``set | {word}`` on packed rows, one column wider.

    The ``-1 / sort / +1`` dance exploits uint64 wraparound to sort the
    zero padding *after* the real words: ``0`` wraps to the maximum,
    every nonzero word keeps its relative order.
    """
    count, width = block.shape
    out = np.empty((count, width + 1), dtype=np.uint64)
    out[:, :width] = block
    out[:, width] = word
    present = (block == np.uint64(word)).any(axis=1)
    if present.any():
        out[present, width] = 0  # already a member: pad, don't duplicate
    tmp = out - np.uint64(1)
    tmp.sort(axis=1)
    return tmp + np.uint64(1)


def _reduce_rows(rows: np.ndarray) -> np.ndarray:
    """Partial antichain reduction of canonically ordered packed rows.

    Handles the two dominant cases exactly and keeps the order: the
    all-zero row (the empty option set, which canonical order sorts
    first) absorbs the entire family, and singleton rows absorb every
    row containing their word.  :func:`_minimal_rows` finishes the
    reduction once per latency on the pooled table.
    """
    if rows.shape[0] and not rows[0].any():
        return rows[:1]
    lengths = (rows != np.uint64(0)).sum(axis=1)
    singles = rows[lengths == 1, 0]
    if singles.size == 0:
        return rows
    hit = np.isin(rows, singles).any(axis=1)
    return rows[(lengths == 1) | ~hit]


def _minimal_rows(rows: np.ndarray) -> np.ndarray:
    """⊆-minimal antichain of unique, canonically ordered packed rows.

    A row is dropped when one of its proper non-empty subsets is also a
    row (covering the subset's options necessarily covers the row's):
    every length-``L`` row probes its ``2**L - 2`` sub-rows against the
    sorted row keys; ``L ≤ latency``, so the probes are few.  The
    all-zero row is unsatisfiable and absorbs everything; it is kept
    alone so callers notice.
    """
    if not rows.shape[0] or not rows[0].any():
        return rows[:1]
    keys = np.sort(_row_keys(rows))
    lengths = (rows != np.uint64(0)).sum(axis=1)
    dominated = np.zeros(rows.shape[0], dtype=bool)
    for length in range(2, rows.shape[1] + 1):
        members = np.flatnonzero(lengths == length)
        if not members.size:
            continue
        block = rows[members]
        for mask in range(1, (1 << length) - 1):
            columns = [col for col in range(length) if mask >> col & 1]
            probes = np.zeros_like(block)
            probes[:, : len(columns)] = block[:, columns]
            probe_keys = _row_keys(probes)
            found = np.searchsorted(keys, probe_keys)
            found[found == keys.shape[0]] = 0
            dominated[members[keys[found] == probe_keys]] = True
    return rows[~dominated]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque, comparable key per packed row (equal iff rows equal)."""
    return (
        np.ascontiguousarray(rows, dtype=">u8")
        .view(f"V{8 * rows.shape[1]}")
        .ravel()
    )


def _subset_rows(rows: np.ndarray, size: int) -> np.ndarray:
    """Evenly-spaced deterministic subsample of canonically ordered rows.

    Always returns exactly ``min(size, len(rows))`` rows, in order: the
    evenly-spaced positions are deduplicated and topped up with the
    smallest unused ones (:func:`_subset_positions`).
    """
    if size >= rows.shape[0]:
        return rows
    positions = _subset_positions(rows.shape[0], size)
    subset = rows[np.asarray(positions)]
    assert subset.shape[0] == size, "deterministic subsample size mismatch"
    return subset


def extract_table(
    synthesis: SynthesisResult,
    fault_model: FaultModel,
    config: TableConfig,
) -> DetectabilityTable:
    """Single-latency convenience wrapper around :func:`extract_tables`."""
    return extract_tables(synthesis, fault_model, config, [config.latency])[
        config.latency
    ]


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
class _StateEvaluator:
    """Packed responses of the good machine (or of one fault), per code.

    Codes ``block`` holds are sliced out of its good (or the fault's)
    word matrix, read once; other codes, non-netlist faults and calls
    without a block simulate the good netlist (or go through
    :meth:`FaultModel.faulty_responses`).
    """

    def __init__(
        self,
        synthesis: SynthesisResult,
        alphabet: np.ndarray,
        block: FaultResponseBlock | None = None,
        fault_model: FaultModel | None = None,
        fault: Fault | None = None,
    ) -> None:
        self.synthesis = synthesis
        self.alphabet = alphabet
        self.fault_model = fault_model
        self.fault = fault
        self.block = block if fault is None or is_netlist_fault(fault) else None
        self._words: np.ndarray | None = None
        self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def ensure(self, codes: list[int]) -> None:
        missing = [code for code in codes if code not in self._cache]
        mask = (1 << self.synthesis.num_state_bits) - 1
        if missing and self.block is not None:
            rest: list[int] = []
            for code in missing:
                row = self.block.index.get(code)
                if row is None:
                    rest.append(code)
                    continue
                if self._words is None:
                    self._words = (
                        self.block.good_words
                        if self.fault is None
                        else self.block.faulty_words(self.fault.payload)
                    )
                words = self._words[row]
                self._cache[code] = (words, words & mask)
            missing = rest
        if not missing:
            return
        patterns = block_patterns(self.synthesis, missing, self.alphabet)
        if self.fault is None:
            responses = evaluate_batch(self.synthesis.netlist, patterns)
        else:
            responses = self.fault_model.faulty_responses(self.fault, patterns)
        packed = pack_words(responses).reshape(len(missing), -1)
        for idx, code in enumerate(missing):
            self._cache[code] = (packed[idx], packed[idx] & mask)

    def info(self, code: int) -> tuple[np.ndarray, np.ndarray]:
        """(packed responses, next-state codes), one entry per alphabet input."""
        if code not in self._cache:
            self.ensure([code])
        return self._cache[code]

    def successors(self, codes: list[int]) -> list[list[int]]:
        """Next-state codes per code, one per alphabet input (the
        :func:`~repro.faults.block.reach_levels` step)."""
        self.ensure(codes)
        return [self._cache[code][1].tolist() for code in codes]


class _FaultExtractor:
    """Per-fault path enumeration with memoized suffix antichains.

    A path position is a *pair* ``(reference state, faulty state)``.  Under
    trajectory semantics the reference evolves through the good machine;
    under checker semantics the reference is the faulty machine's own state
    (the pair stays diagonal).

    All enumeration state (step/suffix memos, truncation flags, reduced
    rows) lives on an :class:`ExtractionFrontier` so a later, deeper
    extraction — possibly in a different process, via the artifact cache —
    resumes exactly where this one stopped.  Every memo entry is a pure
    function of its key, so resumed results are byte-identical to
    from-scratch ones.
    """

    def __init__(
        self,
        synthesis: SynthesisResult,
        fault_model: FaultModel,
        fault: Fault,
        alphabet: np.ndarray,
        good: _StateEvaluator,
        config: TableConfig,
        block: FaultResponseBlock | None = None,
        frontier: ExtractionFrontier | None = None,
    ) -> None:
        self.synthesis = synthesis
        self.alphabet = alphabet
        self.good = good
        self.bad = _StateEvaluator(
            synthesis, alphabet, block, fault_model, fault
        )
        self.config = config
        self.trajectory = config.semantics == "trajectory"
        self.frontier = (
            frontier
            if frontier is not None
            else ExtractionFrontier(fault_name=fault.name)
        )
        self._packed_memo = self.frontier.suffix_memo
        self._step_memo = self.frontier.step_memo
        self._truncated_keys = self.frontier.truncated_keys

    def discover(self, reachable: list[int]) -> None:
        """Find this fault's distinct activation branches (once per fault).

        Many present states activate the same (diff, next-pair) branch,
        and each branch contributes the same option sets at every latency
        — so only the deduplicated branch set and the activation count
        are kept; both are latency-independent.
        """
        frontier = self.frontier
        if frontier.branches is not None:
            return
        self.bad.ensure(reachable)
        activations = 0
        seen: set[tuple[int, int, int]] = set()
        for code in reachable:
            good_packed, good_next = self.good.info(code)
            bad_packed, bad_next = self.bad.info(code)
            diffs = good_packed ^ bad_packed
            nonzero = np.flatnonzero(diffs)
            activations += int(nonzero.shape[0])
            if not nonzero.shape[0]:
                continue
            seen |= set(
                zip(
                    diffs[nonzero].tolist(),
                    good_next[nonzero].tolist(),
                    bad_next[nonzero].tolist(),
                )
            )
        frontier.activations = activations
        frontier.branches = sorted(seen)

    def rows_for(self, p: int) -> np.ndarray:
        """This fault's reduced option-set rows at latency ``p``.

        Extends the memoized suffix antichains only as deep as ``p - 1``
        requires; shallower entries computed by earlier calls (or earlier
        runs, via a persisted frontier) are reused verbatim.  The rows are
        canonically ordered, antichain-reduced and per-fault capped —
        exactly the per-fault contribution the table pooling consumes.
        """
        frontier = self.frontier
        cached = frontier.rows.get(p)
        if cached is not None:
            return cached
        branches = frontier.branches
        if branches is None:
            raise RuntimeError("discover() must run before rows_for()")
        suffix_truncated = False
        if p == 1:
            if branches:
                rows = _unique_rows(
                    np.array([diff for diff, _, _ in branches], dtype=np.uint64)[
                        :, None
                    ]
                )
            else:
                rows = np.zeros((0, 1), dtype=np.uint64)
        elif branches:
            blocks: list[np.ndarray] = []
            for diff, good_code, bad_code in branches:
                reference = good_code if self.trajectory else bad_code
                suffixes = self._packed_suffixes(reference, bad_code, p - 1)
                blocks.append(_insert_word(suffixes, diff))
                if (reference, bad_code, p - 1) in self._truncated_keys:
                    suffix_truncated = True
            rows = _unique_rows(np.concatenate(blocks))
        else:
            rows = np.zeros((0, p), dtype=np.uint64)
        raw = int(rows.shape[0])
        rows = _reduce_rows(rows)
        reduced = int(rows.shape[0])
        capped = False
        if rows.shape[0] > self.config.max_rows_per_fault:
            rows = _subset_rows(rows, self.config.max_rows_per_fault)
            capped = True
        frontier.rows[p] = rows
        frontier.row_meta[p] = RowMeta(
            raw=raw,
            reduced=reduced,
            capped=capped,
            suffix_truncated=suffix_truncated,
        )
        return rows

    def _packed_suffixes(
        self, reference: int, faulty: int, depth: int
    ) -> np.ndarray:
        """Minimal antichain of packed option-set rows over depth-``depth``
        paths from the pair, memoized per ``(pair, depth)``.

        Rows are canonically ordered and partially antichain-reduced
        (:func:`_reduce_rows`) per memo entry.  A key lands in
        ``truncated_keys`` iff its *subtree* hit the suffix limit, so any
        latency subset derived later reproduces the exact truncation flag
        a fresh enumeration of that subset would report.
        """
        if depth == 0:
            return _EMPTY_SUFFIX
        key = (reference, faulty, depth)
        cached = self._packed_memo.get(key)
        if cached is not None:
            return cached
        steps = self._pair_step(reference, faulty)
        children = [
            self._packed_suffixes(next_reference, next_faulty, depth - 1)
            for _, next_reference, next_faulty in steps
        ]
        limit = self.config.max_suffixes_per_state
        raw_total = sum(child.shape[0] for child in children)
        truncated_here = False
        if raw_total >= limit:
            rows, truncated_here = self._merge_limited(
                steps, children, depth, limit
            )
            result = _reduce_rows(_unique_rows(rows))
        elif raw_total <= _SMALL_MERGE:
            result = _merge_small(steps, children, depth)
        else:
            # The deduplicated running count can never reach the limit, so
            # the per-branch truncation check is a no-op: merge every
            # branch extension in one vectorized batch.
            rows = _unique_rows(_merge_branches(steps, children, depth))
            result = _reduce_rows(rows)
        self._packed_memo[key] = result
        if truncated_here or (
            depth > 1
            and any(
                (next_reference, next_faulty, depth - 1)
                in self._truncated_keys
                for _, next_reference, next_faulty in steps
            )
        ):
            self._truncated_keys.add(key)
        return result

    def _merge_limited(
        self,
        steps: list[tuple[int, int, int]],
        children: list[np.ndarray],
        depth: int,
        limit: int,
    ) -> tuple[np.ndarray, bool]:
        """Branch merge with the exact per-branch truncation semantics.

        Mirrors the reference implementation: branches are taken in
        ``_pair_step`` order, the *deduplicated* running count is checked
        after each branch, and the first branch to reach the limit stops
        the enumeration and reports truncation.
        """
        seen: set[bytes] = set()
        kept: list[np.ndarray] = []
        row_bytes = depth * 8
        truncated = False
        for (diff, _, _), child in zip(steps, children):
            if diff == 0:
                extended = np.zeros((child.shape[0], depth), dtype=np.uint64)
                extended[:, : depth - 1] = child
            else:
                extended = _insert_word(child, diff)
            data = extended.tobytes()
            fresh = []
            for index in range(extended.shape[0]):
                row = data[index * row_bytes : (index + 1) * row_bytes]
                if row not in seen:
                    seen.add(row)
                    fresh.append(index)
            if fresh:
                kept.append(
                    extended
                    if len(fresh) == extended.shape[0]
                    else extended[np.asarray(fresh)]
                )
            if len(seen) >= limit:
                truncated = True
                break
        if not kept:
            return np.zeros((0, depth), dtype=np.uint64), truncated
        return (
            np.concatenate(kept) if len(kept) > 1 else kept[0]
        ), truncated

    def _pair_step(
        self, reference: int, faulty: int
    ) -> list[tuple[int, int, int]]:
        """Distinct (diff, next reference, next faulty) branches of a pair."""
        key = (reference, faulty)
        cached = self._step_memo.get(key)
        if cached is not None:
            return cached
        ref_packed, ref_next = self.good.info(reference)
        bad_packed, bad_next = self.bad.info(faulty)
        diffs = (ref_packed ^ bad_packed).tolist()
        if self.trajectory:
            branches = set(zip(diffs, ref_next.tolist(), bad_next.tolist()))
        else:
            faulty_next = bad_next.tolist()
            branches = set(zip(diffs, faulty_next, faulty_next))
        result = sorted(branches)
        self._step_memo[key] = result
        return result

_EMPTY_SUFFIX = np.zeros((1, 0), dtype=np.uint64)

#: Below this many raw branch rows the pure-Python merge wins: the numpy
#: batch path costs ~100µs of fixed per-call overhead, which dominates
#: exactly the small memo entries that tiny FSMs produce in bulk.
_SMALL_MERGE = 64


def _merge_small(
    steps: list[tuple[int, int, int]],
    children: list[np.ndarray],
    depth: int,
) -> np.ndarray:
    """Pure-Python twin of merge + unique + reduce for tiny branch totals.

    Produces exactly ``_reduce_rows(_unique_rows(_merge_branches(...)))``:
    tuple comparison is row-lexicographic comparison, so ``sorted`` over
    the deduplicated tuples is the same canonical order.
    """
    rows: set[tuple[int, ...]] = set()
    for (diff, _, _), child in zip(steps, children):
        for row in child.tolist():
            if diff == 0 or diff in row:
                rows.add((*row, 0))
            else:
                words = [word for word in row if word]
                words.append(diff)
                words.sort()
                words.extend([0] * (depth - len(words)))
                rows.add(tuple(words))
    if (0,) * depth in rows:  # empty option set absorbs the family
        return np.zeros((1, depth), dtype=np.uint64)
    ordered = sorted(rows)
    singles = {t[0] for t in ordered if depth == 1 or t[1] == 0}
    if singles:
        ordered = [
            t
            for t in ordered
            if (depth == 1 or t[1] == 0) or singles.isdisjoint(t)
        ]
    return np.array(ordered, dtype=np.uint64).reshape(len(ordered), depth)


def _merge_branches(
    steps: list[tuple[int, int, int]],
    children: list[np.ndarray],
    depth: int,
) -> np.ndarray:
    """Union of every branch's extended suffix rows, in one batch.

    Zero-difference branches pass their child rows through (padded one
    column wider); every other branch inserts its difference word into
    each child row.  The insertions for all branches run as a single
    vectorized sort — valid only when the caller has ruled out the
    per-branch truncation limit.
    """
    plain: list[np.ndarray] = []
    extended: list[np.ndarray] = []
    words: list[int] = []
    counts: list[int] = []
    for (diff, _, _), child in zip(steps, children):
        if not child.shape[0]:
            continue
        if diff == 0:
            plain.append(child)
        else:
            extended.append(child)
            words.append(diff)
            counts.append(child.shape[0])
    parts: list[np.ndarray] = []
    if plain:
        stacked = np.concatenate(plain) if len(plain) > 1 else plain[0]
        padded = np.zeros((stacked.shape[0], depth), dtype=np.uint64)
        padded[:, : depth - 1] = stacked
        parts.append(padded)
    if extended:
        stacked = (
            np.concatenate(extended) if len(extended) > 1 else extended[0]
        )
        column = np.repeat(np.array(words, dtype=np.uint64), counts)
        out = np.empty((stacked.shape[0], depth), dtype=np.uint64)
        out[:, : depth - 1] = stacked
        out[:, depth - 1] = column
        present = (stacked == column[:, None]).any(axis=1)
        if present.any():
            out[present, depth - 1] = 0  # member already: pad, don't dup
        tmp = out - np.uint64(1)
        tmp.sort(axis=1)
        parts.append(tmp + np.uint64(1))
    if not parts:
        return np.zeros((0, depth), dtype=np.uint64)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]
