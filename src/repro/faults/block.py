"""Faulty responses, simulated once per (synthesis, alphabet).

Fault collapsing (signature classes), table extraction and the exhaustive
engine all compare faulty next-state/output words with good ones on the
same (state code, input) cells, so one :class:`FaultResponseBlock` owns
the pattern layout (row ``index(code) * |A| + input``), the packing (one
int64 word per cell, bit ``j`` = netlist output ``j``), the good words and
one faulty-word matrix per fault — a cone-restricted re-sweep of one
shared :class:`~repro.logic.sim.PackedSimulator`, stored while the stored
matrices total at most :data:`RESPONSE_BYTE_BUDGET` bytes and recomputed
past it.  Faulty words are a pure function of (netlist, fault, pattern),
so a stored read and a recomputed one never differ.

Reachability over that layout lives here too, one walk for every layer:
:func:`reach_levels`, :func:`back_walk` and the set-only :func:`_closure`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.logic.netlist import Netlist
from repro.logic.sim import PackedSimulator, evaluate_batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.logic.synthesis import SynthesisResult

#: Largest all-codes block (``2**s × |alphabet|`` patterns).  Every bundled
#: benchmark fits (max 4096); above it the signature pass is skipped and
#: table extraction simulates the reachable codes only.
PATTERN_LIMIT = 1 << 16

#: Stored faulty-word matrices per block, in bytes (s1488's 1875 structural
#: survivors × 4096 cells × 8 B ≈ 61 MB fit).  Reads past it recompute.
RESPONSE_BYTE_BUDGET = 64 << 20


def block_patterns(
    synthesis: "SynthesisResult", codes: Sequence[int], alphabet: np.ndarray
) -> np.ndarray:
    """(len(codes) * len(alphabet), r + s) pattern matrix, code-major order."""
    r = synthesis.num_inputs
    s = synthesis.num_state_bits
    input_bits = ((alphabet[:, None] >> np.arange(r)) & 1).astype(np.uint8)
    code_array = np.asarray(codes, dtype=np.int64)
    state_bits = ((code_array[:, None] >> np.arange(s)) & 1).astype(np.uint8)
    tiled_inputs = np.tile(input_bits, (len(codes), 1))
    repeated_states = np.repeat(state_bits, alphabet.shape[0], axis=0)
    return np.concatenate([tiled_inputs, repeated_states], axis=1)


def pack_words(responses: np.ndarray) -> np.ndarray:
    """Pack (P, n) 0/1 responses into int64 words (bit j = column j)."""
    weights = (1 << np.arange(responses.shape[1], dtype=np.int64)).astype(np.int64)
    return responses.astype(np.int64) @ weights


def all_codes_fit(synthesis: "SynthesisResult", alphabet: np.ndarray) -> bool:
    """True iff every state code × ``alphabet`` fits :data:`PATTERN_LIMIT`."""
    return (1 << synthesis.num_state_bits) * len(alphabet) <= PATTERN_LIMIT


class FaultResponseBlock:
    """Good and per-fault packed words on ``codes × alphabet`` cells.

    ``codes=None`` enumerates every ``2**s`` state code, so row ``code``
    of a word matrix is that code's row (:attr:`all_codes`).  Word
    matrices are ``(len(codes), len(alphabet))`` int64 and read-only.
    """

    def __init__(
        self,
        synthesis: "SynthesisResult",
        alphabet: np.ndarray,
        codes: Sequence[int] | None = None,
    ) -> None:
        num_states = 1 << synthesis.num_state_bits
        self.synthesis = synthesis
        self.alphabet = np.asarray(alphabet, dtype=np.int64)
        self.codes = list(range(num_states)) if codes is None else [
            int(code) for code in codes
        ]
        self.all_codes = self.codes == list(range(num_states))
        self.index = {code: row for row, code in enumerate(self.codes)}
        self.patterns = block_patterns(synthesis, self.codes, self.alphabet)
        self.num_patterns = int(self.patterns.shape[0])
        self._simulator = PackedSimulator(synthesis.netlist, self.patterns)
        self.good_words = self._words(self._simulator.good_outputs())
        self._stored: dict[tuple[int, int], np.ndarray] = {}
        self._stored_bytes = 0

    def faulty_words(self, payload: tuple[int, int]) -> np.ndarray:
        """Packed words under the stuck-at fault ``(node, value)``."""
        key = (int(payload[0]), int(payload[1]))
        words = self._stored.get(key)
        if words is None:
            words = self._words(self._simulator.faulty_outputs(key))
            if self._stored_bytes + words.nbytes <= RESPONSE_BYTE_BUDGET:
                self._stored[key] = words
                self._stored_bytes += words.nbytes
        return words

    def words_of(self, netlist: Netlist) -> np.ndarray:
        """Fault-free packed words of another netlist on the same patterns
        (the CED predictor reads the machine's own inputs)."""
        return self._words(evaluate_batch(netlist, self.patterns))

    def _words(self, responses: np.ndarray) -> np.ndarray:
        words = pack_words(responses).reshape(len(self.codes), len(self.alphabet))
        words.flags.writeable = False
        return words


def reach_levels(
    step: Callable[[list[int]], Iterable[Sequence[int]]], start: Iterable[int]
) -> list[list[int]]:
    """Breadth-first levels of the codes reachable from ``start``.

    ``step(frontier)`` returns one row of successor codes per frontier
    code, in frontier order; ``-1`` marks a blocked edge.  Level 0 is
    ``start`` without repeats, and each later level lists the codes first
    reached from the one before in discovery order: frontier order first,
    then row (input) order.  :func:`back_walk` relies on that order.
    """
    level = list(dict.fromkeys(int(code) for code in start))
    seen = set(level)
    levels: list[list[int]] = []
    while level:
        levels.append(level)
        upcoming: list[int] = []
        for row in step(level):
            for successor in row:
                if successor >= 0 and successor not in seen:
                    seen.add(successor)
                    upcoming.append(successor)
        level = upcoming
    return levels


def back_walk(
    levels: Sequence[Sequence[int]],
    next_state: np.ndarray,
    allowed: np.ndarray,
    code: int,
) -> tuple[int, list[int]]:
    """A path from ``levels[0]`` to ``code`` (a member of ``levels[-1]``).

    Each step back takes the first code of the previous level, in that
    level's stored order, with an ``allowed`` edge into the current code,
    then that code's smallest such input column.  On :func:`reach_levels`
    levels this is exactly the edge that discovered the current code, so
    the path is the walk's own parent chain.  Returns the start code and
    the input columns, first step first.
    """
    columns: list[int] = []
    for level in reversed(levels[:-1]):
        for source in level:
            hits = np.flatnonzero(allowed[source] & (next_state[source] == code))
            if hits.size:
                break
        columns.append(int(hits[0]))  # IndexError: no edge into ``code``
        code = int(source)
    columns.reverse()
    return code, columns


def _closure(next_state: np.ndarray, start: Sequence[int]) -> np.ndarray:
    """Sorted codes reachable from ``start`` under ``next_state`` (every
    column an edge): a numpy fixpoint for callers that need only the set."""
    seen = np.zeros(next_state.shape[0], dtype=bool)
    seen[start] = True
    count = np.count_nonzero(seen)
    while True:
        seen[next_state[seen]] = True
        grown = np.count_nonzero(seen)
        if grown == count:
            return np.flatnonzero(seen)
        count = grown
