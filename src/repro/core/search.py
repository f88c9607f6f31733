"""Algorithm 1: binary search for the minimum number of parity functions.

For each candidate ``q`` the Statement-5 LP is solved and randomized
rounding attempts to extract an integer-feasible β set; success shrinks the
search interval from above, failure (or LP infeasibility) from below.  A
candidate set is always verified against the *full* erroneous-case table,
so the returned β's carry the bounded-latency guarantee unconditionally.

Engineering refinements over the bare paper algorithm (each is switchable
and exercised by the solver ablation benchmark):

* ``use_greedy_bound`` seeds the upper end of the search with the greedy
  cover, which both tightens the interval and guarantees a feasible
  incumbent even when rounding is unlucky;
* ``repair`` completes the best failed rounding attempt with greedy
  vectors over the still-uncovered cases and prunes redundant vectors — a
  rescue that frequently turns a near-miss into a success within ``q``;
* big tables are row-subsampled *for the LP only* (``lp_max_rows``;
  verification always uses all rows);
* :func:`solve_for_latencies` chains each latency's solution into the next
  as a feasible incumbent (a β set valid at latency p is valid at p+1, so
  the reported q is monotone non-increasing by construction, matching the
  paper's Table 1 shape);
* the trivial upper bound ``q = n`` (single-bit functions) is installed
  first, mirroring the paper's observation that the search space is
  ``q ∈ [1, n]``;
* probes below the exact subspace floor (:func:`~repro.core.exact.parity_floor`,
  when its work gate admits the table) are recorded as
  ``proved-infeasible`` without an LP or rounding.  Rounding is seeded per
  ``q`` and the probe sequence does not change, so q and β do not either.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cover import covered_rows, covers_all
from repro.core.detectability import DetectabilityTable
from repro.core.exact import exact_minimum_parity, parity_floor
from repro.core.greedy import greedy_parity_cover
from repro.core.lp import solve_lp_relaxation, subsample_table
from repro.core.rounding import randomized_rounding
from repro.runtime.trace import current_tracer
from repro.util.rng import rng_for


#: ``per_q_outcome`` of a probe below the proven floor: no LP, no rounding.
PROVED_INFEASIBLE = "proved-infeasible"


@dataclass(frozen=True)
class SolveConfig:
    """Parameters of the Algorithm-1 search."""

    iterations: int = 1000  # the paper's ITER
    seed: int = 2004
    objective: str = "max-r"
    jitter: float = 0.02
    lp_max_rows: int = 1500
    use_greedy_bound: bool = True
    greedy_pool: str = "pairs"
    repair: bool = True
    #: Replace the search with the exact branch-and-bound solver when the
    #: table is small enough (≤ exact_max_bits bits, ≤ exact_max_rows
    #: cases).  Off by default: LP+RR is the paper's algorithm and lands
    #: within one function of the certified optimum on our instances, but
    #: the exact mode closes even that gap when affordable.
    use_exact_small: bool = False
    exact_max_bits: int = 12
    exact_max_rows: int = 4000


@dataclass
class SolveResult:
    """Outcome of the minimum-parity search."""

    q: int
    betas: list[int]
    lp_solves: int = 0
    rounding_attempts: int = 0
    per_q_outcome: dict[int, str] = field(default_factory=dict)
    incumbent_source: str = "lp+rr"
    #: None when no incumbent was offered; otherwise whether the offered β
    #: set survived verification (``_prune``) against the full table.
    incumbent_accepted: bool | None = None

    def parity_masks(self) -> list[int]:
        return list(self.betas)


def minimize_parity_bits(
    table: DetectabilityTable,
    config: SolveConfig = SolveConfig(),
    incumbent: list[int] | None = None,
) -> SolveResult:
    """Run Algorithm 1 on a detectability table.

    ``incumbent`` may supply an externally-known feasible β set (e.g. the
    solution at a smaller latency bound); it is verified before use.
    """
    if table.num_rows == 0:
        return SolveResult(q=0, betas=[], incumbent_source="empty-table")

    if (
        config.use_exact_small
        and table.num_bits <= config.exact_max_bits
        and table.num_rows <= config.exact_max_rows
    ):
        exact = _try_exact(table)
        if exact is not None:
            return SolveResult(
                q=len(exact), betas=sorted(exact), incumbent_source="exact"
            )

    result = SolveResult(q=table.num_bits, betas=[], incumbent_source="identity")

    # Trivial feasible point: one single-bit function per observable bit.
    identity = [1 << j for j in range(table.num_bits)]
    if not covers_all(table.rows, identity):
        raise AssertionError(
            "single-bit parity functions fail to cover — the table is corrupt"
        )
    best = identity

    if incumbent is not None:
        pruned = _prune(table.rows, list(incumbent))
        result.incumbent_accepted = pruned is not None
        if pruned is not None and len(pruned) < len(best):
            best = pruned
            result.incumbent_source = "incumbent"

    if config.use_greedy_bound:
        greedy = greedy_parity_cover(table, pool=config.greedy_pool)
        if len(greedy) < len(best):
            best = greedy
            result.incumbent_source = "greedy"

    lp_table = subsample_table(table, config.lp_max_rows, config.seed)
    tracer = current_tracer()

    low = 0  # largest q known (or assumed) infeasible
    high = len(best)  # smallest q with a known-feasible β set
    floor = parity_floor(table, upper=high)  # None: no proof, probe them all
    while high - low > 1:
        mid = (low + high) // 2
        with tracer.span("search.q", q=mid, low=low, high=high) as span:
            if floor is not None and mid < floor:
                outcome, betas = PROVED_INFEASIBLE, None
            else:
                outcome, betas = _try_q(table, lp_table, mid, config, result)
            span.set(outcome=outcome, feasible=betas is not None)
        result.per_q_outcome[mid] = outcome
        if betas is not None:
            best = betas
            high = len(betas)  # rounding may return fewer than q vectors
            result.incumbent_source = outcome
        else:
            low = mid

    result.q = len(best)
    result.betas = sorted(best)
    assert covers_all(table.rows, result.betas)
    if tracer.enabled:
        tracer.event(
            "search.done",
            latency=table.latency,
            q=result.q,
            source=result.incumbent_source,
            lp_solves=result.lp_solves,
            rounding_attempts=result.rounding_attempts,
            floor=floor,
            proved=sum(
                outcome == PROVED_INFEASIBLE
                for outcome in result.per_q_outcome.values()
            ),
            rows=table.num_rows,
            bits=table.num_bits,
        )
    return result


def solve_for_latencies(
    tables: dict[int, DetectabilityTable],
    config: SolveConfig = SolveConfig(),
    incumbent: list[int] | None = None,
) -> dict[int, SolveResult]:
    """Solve a family of same-machine tables, chaining incumbents upward.

    A β set covering the latency-p table covers every latency-(p+1) case
    (each longer path's option set contains a shorter path's), so passing
    solutions up the latency chain is sound and makes q monotone.

    ``incumbent`` seeds the *lowest* latency's search with an external β
    set (e.g. a knowledge-base neighbor); it is verified before use, so a
    stale or foreign set degrades to the cold path.
    """
    results: dict[int, SolveResult] = {}
    for latency in sorted(tables):
        result = minimize_parity_bits(tables[latency], config, incumbent=incumbent)
        results[latency] = result
        incumbent = result.betas
    return results


def solve_greedy_for_latencies(
    tables: dict[int, DetectabilityTable],
    config: SolveConfig = SolveConfig(),
) -> dict[int, SolveResult]:
    """Greedy-only variant of :func:`solve_for_latencies`.

    No LP relaxation and no randomized rounding — just the greedy cover
    (plus incumbent chaining and redundancy pruning).  Results still carry
    the full bounded-latency guarantee (every β set is verified against
    all rows); only minimality suffers.  The campaign executor uses this
    as the degraded fallback when the LP path repeatedly fails or exceeds
    its time budget.
    """
    results: dict[int, SolveResult] = {}
    incumbent: list[int] | None = None
    for latency in sorted(tables):
        table = tables[latency]
        if table.num_rows == 0:
            results[latency] = SolveResult(
                q=0, betas=[], incumbent_source="empty-table"
            )
            incumbent = []
            continue
        best = greedy_parity_cover(table, pool=config.greedy_pool)
        source = "greedy-degraded"
        if incumbent:
            pruned = _prune(table.rows, list(incumbent))
            if pruned is not None and len(pruned) < len(best):
                best = pruned
                source = "incumbent"
        results[latency] = SolveResult(
            q=len(best), betas=sorted(best), incumbent_source=source
        )
        incumbent = results[latency].betas
    return results


def _try_q(
    table: DetectabilityTable,
    lp_table: DetectabilityTable,
    q: int,
    config: SolveConfig,
    result: SolveResult,
) -> tuple[str, list[int] | None]:
    """Attempt to find a feasible β set of size ≤ q."""
    solution = solve_lp_relaxation(lp_table, q, objective=config.objective)
    result.lp_solves += 1
    if not solution.feasible:
        return f"lp-{solution.status}", None
    rng = rng_for(config.seed, "rounding", table.stats and table.stats.fsm_name,
                  table.latency, q)
    rounding = randomized_rounding(
        table.rows,
        solution.beta_fractional,
        iterations=config.iterations,
        rng=rng,
        jitter=config.jitter,
        quick_rows=lp_table.rows,
    )
    result.rounding_attempts += rounding.attempts
    if rounding.success:
        return "lp+rr", rounding.betas
    if config.repair and rounding.best_betas:
        repaired = _repair(table, rounding.best_betas, q, config)
        if repaired is not None:
            return "lp+rr+repair", repaired
    return "rounding-exhausted", None


def _repair(
    table: DetectabilityTable,
    partial: list[int],
    q: int,
    config: SolveConfig,
) -> list[int] | None:
    """Complete a near-miss β set greedily, then prune; None if > q."""
    uncovered = ~covered_rows(table.rows, partial)
    if uncovered.any():
        remainder = DetectabilityTable(
            table.num_bits, table.latency, table.rows[uncovered], table.stats
        )
        extras = greedy_parity_cover(remainder, pool=config.greedy_pool)
    else:
        extras = []
    combined = _prune(table.rows, list(dict.fromkeys(partial + extras)))
    repaired = combined if combined is not None and len(combined) <= q else None
    tracer = current_tracer()
    if tracer.enabled:
        tracer.event(
            "search.repair",
            q=q,
            partial=len(partial),
            uncovered=int(uncovered.sum()),
            extras=len(extras),
            final=len(combined) if combined is not None else None,
            success=repaired is not None,
        )
    return repaired


def _try_exact(table: DetectabilityTable) -> list[int] | None:
    """Budget-bounded exact solve; None if the budget is exhausted."""
    try:
        return exact_minimum_parity(table)
    except RuntimeError:  # node budget exhausted — fall back to LP+RR
        return None


def _prune(rows: np.ndarray, betas: list[int]) -> list[int] | None:
    """Drop redundant vectors; None if the set does not cover at all."""
    if not covers_all(rows, betas):
        return None
    kept = list(betas)
    for beta in sorted(betas, key=lambda b: bin(b).count("1"), reverse=True):
        trial = [b for b in kept if b != beta]
        if trial and covers_all(rows, trial):
            kept = trial
    return kept
