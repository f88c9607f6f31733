"""Depth-first reference for per-fault table extraction.

``repro.core.detectability`` fills every fault's suffix antichains level
by level, one packed batch per depth.  This is the formulation it
replaced: one extractor per fault that recurses from each activation
branch, memoises each ``(reference, faulty, depth)`` suffix antichain in
a dict, and merges one memo key at a time through three merge paths (a
pure-Python twin for tiny keys, one numpy batch per key, and the
per-branch limited merge), with its own per-code word cache.  The caps
are read from the engine's module constants at call time, so a test that
patches them small patches both.

:func:`oracle_state` / :func:`oracle_extend` mirror
``new_extraction_state`` / ``extend_extraction_state``; the state they
grow pools through the engine's own ``tables_from_state`` (pooling is not
under test here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core import detectability
from repro.core.detectability import (
    ExtendStats,
    ExtractionState,
    RowMeta,
    TableConfig,
    _normalize_latencies,
    _reduce_rows,
    _subset_rows,
    _unique_rows,
    new_extraction_state,
)
from repro.faults.block import FaultResponseBlock, block_patterns, pack_words
from repro.faults.model import Fault, FaultModel, is_netlist_fault
from repro.logic.sim import evaluate_batch
from repro.logic.synthesis import SynthesisResult


@dataclass
class OracleFrontier:
    """One fault's enumeration frontier with its dict memos."""

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


def oracle_state(
    synthesis: SynthesisResult, fault_model: FaultModel, config: TableConfig
) -> ExtractionState:
    """A fresh state whose frontiers are :class:`OracleFrontier` ones."""
    state = new_extraction_state(synthesis, fault_model, config)
    state.frontiers = [
        OracleFrontier(fault_name=name) for name in state.fault_names
    ]
    return state


def oracle_extend(
    state: ExtractionState,
    synthesis: SynthesisResult,
    fault_model: FaultModel,
    config: TableConfig,
    latencies: Sequence[int] | None = None,
) -> ExtendStats:
    """``extend_extraction_state`` driven by one :class:`_FaultExtractor`
    per fault."""
    latencies = _normalize_latencies(config, latencies)
    needed = [p for p in latencies if p not in state.latencies]
    reused = _suffix_entries(state)
    if not needed:
        return ExtendStats((), reused, 0)
    faults = fault_model.faults()
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
    return ExtendStats(tuple(needed), reused, _suffix_entries(state) - reused)


def _suffix_entries(state: ExtractionState) -> int:
    return sum(len(frontier.suffix_memo) for frontier in state.frontiers)


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


class _FaultExtractor:
    """Per-fault path enumeration with memoized suffix antichains.

    A path position is a *pair* ``(reference state, faulty state)``.  Under
    trajectory semantics the reference evolves through the good machine;
    under checker semantics the reference is the faulty machine's own state
    (the pair stays diagonal).
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
        frontier: OracleFrontier | None = None,
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
            else OracleFrontier(fault_name=fault.name)
        )
        self._packed_memo = self.frontier.suffix_memo
        self._step_memo = self.frontier.step_memo
        self._truncated_keys = self.frontier.truncated_keys

    def discover(self, reachable: list[int]) -> None:
        """Find this fault's distinct activation branches (once per fault)."""
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
        """This fault's reduced option-set rows at latency ``p``."""
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
        if rows.shape[0] > detectability.MAX_ROWS_PER_FAULT:
            rows = _subset_rows(rows, detectability.MAX_ROWS_PER_FAULT)
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
        paths from the pair, memoized per ``(pair, depth)``."""
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
        limit = detectability.MAX_SUFFIXES_PER_STATE
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
        """Branch merge with the exact per-branch truncation semantics:
        branches in ``_pair_step`` order, the *deduplicated* running count
        checked after each, the first to reach the limit stops."""
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

#: Below this many raw branch rows the pure-Python merge is used.
_SMALL_MERGE = 64


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
    """Union of every branch's extended suffix rows, in one batch."""
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
