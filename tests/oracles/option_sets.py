"""Frozenset reference algebra for detection option sets.

``repro.core.detectability`` enumerates, pools and minimises option sets
as canonically ordered packed ``uint64`` rows.  This module is the
straightforward set-of-frozensets formulation of the same operations —
slow, but obviously correct — so the tests can hold the packed rows to
it byte for byte.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.detectability import _subset_positions


def minimal_option_sets(
    option_sets: Iterable[frozenset[int]],
) -> set[frozenset[int]]:
    """⊆-minimal antichain of a family of option sets.

    A set is dropped when one of its proper subsets is also present
    (covering the subset's options necessarily covers the superset's).
    The empty set absorbs everything and is kept alone: it is
    unsatisfiable, and callers must notice it.
    """
    family = set(option_sets)
    if frozenset() in family:
        return {frozenset()}
    return {
        options
        for options in family
        if not _has_proper_subset_in(options, family)
    }


def _has_proper_subset_in(
    options: frozenset[int], family: set[frozenset[int]]
) -> bool:
    if len(options) <= 1:
        return False
    elements = sorted(options)
    # Enumerate proper non-empty subsets; |options| ≤ latency, so tiny.
    for mask in range(1, (1 << len(elements)) - 1):
        subset = frozenset(
            elements[idx] for idx in range(len(elements)) if (mask >> idx) & 1
        )
        if subset in family:
            return True
    return False


def cheap_reduce(family: set[frozenset[int]]) -> set[frozenset[int]]:
    """Partial antichain reduction: the empty set absorbs everything, and
    singleton sets absorb all their supersets."""
    if frozenset() in family:
        return {frozenset()}
    singles = {next(iter(s)) for s in family if len(s) == 1}
    if not singles:
        return family
    return {s for s in family if len(s) == 1 or singles.isdisjoint(s)}


def canonical_order(
    option_sets: Iterable[frozenset[int]],
) -> list[frozenset[int]]:
    """The family's canonical order: list-lexicographic on ascending
    elements, a prefix before its extensions."""
    return sorted(option_sets, key=sorted)


def deterministic_subset(
    family: set[frozenset[int]], size: int
) -> set[frozenset[int]]:
    """Evenly-spaced deterministic subsample of an option-set family.

    Always returns exactly ``min(size, len(family))`` option sets.
    """
    if size >= len(family):
        return set(family)
    ordered = canonical_order(family)
    subset = {ordered[idx] for idx in _subset_positions(len(ordered), size)}
    assert len(subset) == size, "deterministic subsample size mismatch"
    return subset


def pack_option_sets(
    option_sets: Sequence[frozenset[int]], min_width: int = 1
) -> np.ndarray:
    """(m, width) uint64 array of zero-padded, descending-sorted sets, in
    canonical order."""
    width = max([min_width] + [len(s) for s in option_sets])
    packed = np.zeros((len(option_sets), width), dtype=np.uint64)
    for row_index, options in enumerate(canonical_order(option_sets)):
        for col_index, word in enumerate(sorted(options, reverse=True)):
            packed[row_index, col_index] = word
    return packed


def pooled_table(
    fault_rows: Iterable[np.ndarray],
    max_rows: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int, int]:
    """One latency's stored table from per-fault packed rows.

    Pool the rows as option sets, ⊆-minimise, pack, then keep a seeded
    ``max_rows`` choice of the packed rows when there are more.  Returns
    the rows with the pooled and minimal family sizes.
    """
    family = {
        frozenset(int(word) for word in row if word)
        for rows in fault_rows
        for row in rows.tolist()
    }
    minimal = minimal_option_sets(family)
    rows = (
        pack_option_sets(list(minimal))
        if minimal
        else np.zeros((0, 1), dtype=np.uint64)
    )
    if rows.shape[0] > max_rows:
        chosen = rng.choice(rows.shape[0], size=max_rows, replace=False)
        rows = rows[np.sort(chosen)]
    return rows, len(family), len(minimal)
