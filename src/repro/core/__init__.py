"""The paper's core contribution.

Pipeline: :mod:`repro.core.detectability` turns a synthesized FSM plus a
restricted fault model into the error detectability table of the paper's
Fig. 2 (canonical option-set form of the 3-dimensional 0/1 array ``V``);
:mod:`repro.core.ilp` states the Statement-4 integer program over it;
:mod:`repro.core.lp` solves the Statement-5 LP relaxation;
:mod:`repro.core.rounding` recovers integer parity vectors by
Raghavan–Thompson randomized rounding; and :mod:`repro.core.search` wraps
everything in the paper's Algorithm 1 binary search for the minimum number
of parity functions ``q``.

Baselines and extensions: :mod:`repro.core.exact` (ground-truth minimum for
small bit counts), :mod:`repro.core.greedy` (greedy set cover),
:mod:`repro.core.weighted` (area-aware selection — the paper's future-work
direction), and :mod:`repro.core.latency` (maximum useful latency via the
shortest-loop analysis of §2).
"""

from repro.core.cover import batch_coverage, coverage_mask, covered_rows, covers_all
from repro.core.detectability import (
    DetectabilityTable,
    TableConfig,
    TableStats,
    extract_table,
    extract_tables,
    input_alphabet,
    reachable_state_codes,
)
from repro.core.exact import exact_minimum_parity
from repro.core.greedy import candidate_pool, greedy_parity_cover
from repro.core.ilp import IntegerProgram
from repro.core.latency import max_useful_latency
from repro.core.lp import LpSolution, solve_lp_relaxation
from repro.core.rounding import RoundingResult, randomized_rounding, round_once
from repro.core.search import (
    SolveConfig,
    SolveResult,
    minimize_parity_bits,
    solve_for_latencies,
)
from repro.core.weighted import area_aware_parity_cover, parity_weight, solution_weight

__all__ = [
    "DetectabilityTable",
    "IntegerProgram",
    "LpSolution",
    "RoundingResult",
    "SolveConfig",
    "SolveResult",
    "TableConfig",
    "TableStats",
    "area_aware_parity_cover",
    "batch_coverage",
    "candidate_pool",
    "coverage_mask",
    "covered_rows",
    "covers_all",
    "exact_minimum_parity",
    "extract_table",
    "extract_tables",
    "greedy_parity_cover",
    "input_alphabet",
    "max_useful_latency",
    "minimize_parity_bits",
    "parity_weight",
    "randomized_rounding",
    "reachable_state_codes",
    "round_once",
    "solution_weight",
    "solve_for_latencies",
    "solve_lp_relaxation",
]
