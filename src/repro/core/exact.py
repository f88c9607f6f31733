"""Exact minimum parity-function count for small instances.

Two exact tools, both exponential in ``n``:

* :func:`parity_floor` proves the minimum number of parity vectors by
  enumerating subspaces of GF(2)ⁿ under a work gate
  (:data:`FLOOR_WORK_LIMIT`), returning ``None`` past it.  Algorithm 1
  uses it to skip binary-search probes that cannot succeed.
* :func:`exact_minimum_parity` finds a minimum β set: it computes every
  one of the ``2^n − 1`` candidates' coverage and runs branch and bound,
  stopping as soon as its incumbent reaches the floor.  Gated at
  :data:`MAX_EXACT_BITS`; within that range it is the ground truth the
  tests hold LP + randomized rounding and the greedy heuristic against
  (``exact ≤ heuristic`` always).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from repro.core.cover import packed_coverage
from repro.core.detectability import DetectabilityTable
from repro.util.bitops import lane_count, lane_mask

MAX_EXACT_BITS = 14
_DEFAULT_NODE_BUDGET = 500_000

#: Work cap of :func:`parity_floor`, in word operations, checked against
#: the coverage pass (``2^n · rows · width``) and against the subspace
#: enumeration (subspaces × span size × row lanes) before either runs.
#: At the cap each costs about one Algorithm-1 probe (20–40 ms on a
#: 2-vCPU Xeon).
FLOOR_WORK_LIMIT = 2_000_000
#: Subspaces whose coverage is folded per numpy call.
_FLOOR_CHUNK = 1024


def parity_floor(table: DetectabilityTable, upper: int | None = None) -> int | None:
    """The minimum number of parity vectors covering the table, or None.

    A β set misses row ``r`` iff every β has even overlap with every word
    of ``r``, and that property is closed under XOR.  So a set covers
    exactly when its span does, and the minimum is the least dimension of
    a subspace of GF(2)ⁿ that holds, for every row, an element covering
    it.  Subspaces are enumerated once each, by reduced echelon basis:
    GF(2)⁷ has 11 811 four-dimensional subspaces against C(127, 4) ≈ 10⁷
    four-element subsets.

    ``upper`` is the size of a known cover (default ``num_bits``, the
    single-bit vectors); dimensions from ``upper`` on are not searched and
    the answer never exceeds it.  Returns None, without touching the
    table's rows, when the estimated work exceeds :data:`FLOOR_WORK_LIMIT`.
    """
    n, m = table.num_bits, table.num_rows
    if m == 0:
        return 0
    upper = n if upper is None else min(upper, n)
    if upper <= 1:
        return upper
    if (1 << n) * m * table.rows.shape[1] > FLOOR_WORK_LIMIT:
        return None
    if _subspace_work(n, m, upper) > FLOOR_WORK_LIMIT:
        return None
    if not table.rows.any(axis=1).all():
        raise ValueError("a row without a nonzero word cannot be covered")
    return _subspace_floor(packed_coverage(table.rows, range(1 << n)), n, m, upper)


def exact_minimum_parity(
    table: DetectabilityTable,
    node_budget: int = _DEFAULT_NODE_BUDGET,
) -> list[int]:
    """A provably minimum set of parity vectors covering the table.

    Raises :class:`ValueError` when ``n`` exceeds :data:`MAX_EXACT_BITS`,
    and :class:`RuntimeError` if the branch-and-bound node budget is
    exhausted before optimality is proven (never observed on the in-repo
    instances; the budget guards pathological inputs).
    """
    n, m = table.num_bits, table.num_rows
    if n > MAX_EXACT_BITS:
        raise ValueError(
            f"exact solver limited to {MAX_EXACT_BITS} bits, got {n}"
        )
    if m == 0:
        return []

    # Row v is parity vector v's coverage; as an int, bit i is row i.
    coverage = packed_coverage(table.rows, range(1 << n))
    cover_ints = [
        int.from_bytes(lanes.tobytes(), "little")
        for lanes in coverage.astype("<u8", copy=False)
    ]
    full_mask = (1 << m) - 1

    # Deduplicate identical coverage sets, preferring lighter masks
    # (fewer XOR inputs) as representatives.
    by_coverage: dict[int, int] = {}
    for beta in sorted(range(1, 1 << n), key=lambda b: (bin(b).count("1"), b)):
        cov = cover_ints[beta]
        if cov and cov not in by_coverage:
            by_coverage[cov] = beta
    entries = [(beta, cov) for cov, beta in by_coverage.items()]

    # Greedy upper bound.
    best = _greedy(entries, full_mask)
    floor = 0
    if len(best) > 1 and _subspace_work(n, m, len(best)) <= FLOOR_WORK_LIMIT:
        floor = _subspace_floor(coverage, n, m, len(best))
    if len(best) <= floor:
        return sorted(best)
    nodes = 0

    def recurse(covered: int, picked: list[int], pool: list[tuple[int, int]]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise RuntimeError("exact solver node budget exhausted")
        if covered == full_mask:
            if len(picked) < len(best):
                best = list(picked)
                if len(best) <= floor:
                    raise _FloorReached
            return
        if len(picked) + 1 >= len(best):
            return
        uncovered = full_mask & ~covered
        lowest = uncovered & (-uncovered)
        holders = [entry for entry in pool if entry[1] & lowest]
        holders.sort(key=lambda e: -bin(e[1] & uncovered).count("1"))
        for beta, cov in holders:
            rest = [e for e in pool if e[0] != beta]
            picked.append(beta)
            recurse(covered | cov, picked, rest)
            picked.pop()

    try:
        recurse(0, [], entries)
    except _FloorReached:  # no strictly smaller cover exists
        pass
    return sorted(best)


class _FloorReached(Exception):
    """The branch and bound found a cover as small as the proven floor."""


def _subspace_work(n: int, m: int, upper: int) -> int:
    """Gathered lane words to search every dimension below ``upper``."""
    elements = sum(
        _gaussian_binomial(n, dim) * ((1 << dim) - 1) for dim in range(1, upper)
    )
    return elements * lane_count(m)


def _gaussian_binomial(n: int, k: int) -> int:
    """Number of ``k``-dimensional subspaces of GF(2)ⁿ."""
    numerator = denominator = 1
    for i in range(k):
        numerator *= (1 << (n - i)) - 1
        denominator *= (1 << (i + 1)) - 1
    return numerator // denominator


def _subspace_floor(coverage: np.ndarray, n: int, m: int, upper: int) -> int:
    """Least dimension below ``upper`` whose subspace covers all, else ``upper``.

    ``coverage`` is the lane-packed coverage of every vector ``0 … 2^n − 1``.
    """
    full = lane_mask(m)
    for dim in range(1, upper):
        spans = _subspace_spans(n, dim)
        for start in range(0, spans.shape[0], _FLOOR_CHUNK):
            union = np.bitwise_or.reduce(
                coverage[spans[start : start + _FLOOR_CHUNK]], axis=1
            )
            if (union == full).all(axis=1).any():
                return dim
    return upper


@functools.lru_cache(maxsize=32)
def _subspace_spans(n: int, dim: int) -> np.ndarray:
    """Nonzero elements of every ``dim``-dimensional subspace of GF(2)ⁿ.

    One row of ``2^dim − 1`` elements per subspace, each subspace listed
    once through its reduced echelon basis: basis vector ``i`` has leading
    bit ``p_i``, zeros at the other pivots and free bits at the remaining
    positions below ``p_i``.  Depends on ``(n, dim)`` only, hence cached.
    """
    combos = np.arange(1, 1 << dim)
    blocks = []
    for pivots in itertools.combinations(range(n), dim):
        vectors = []
        for pivot in pivots:
            free = [bit for bit in range(pivot) if bit not in pivots]
            choice = np.arange(1 << len(free))
            vector = np.full(choice.shape, 1 << pivot)
            for j, bit in enumerate(free):
                vector |= ((choice >> j) & 1) << bit
            vectors.append(vector)
        grids = np.meshgrid(*vectors, indexing="ij")
        spans = np.zeros((grids[0].size, combos.size), dtype=np.int32)
        for i, grid in enumerate(grids):  # element c XORs the bases set in c
            spans[:, (combos >> i) & 1 == 1] ^= grid.reshape(-1, 1)
        blocks.append(spans)
    spans = np.concatenate(blocks)
    spans.flags.writeable = False
    return spans


def _greedy(entries: list[tuple[int, int]], full_mask: int) -> list[int]:
    covered = 0
    picked: list[int] = []
    pool = list(entries)
    while covered != full_mask:
        beta, cov = max(pool, key=lambda e: bin(e[1] & ~covered).count("1"))
        if not cov & ~covered:
            raise ValueError("candidates cannot cover all cases")
        picked.append(beta)
        covered |= cov
        pool.remove((beta, cov))
    return picked
