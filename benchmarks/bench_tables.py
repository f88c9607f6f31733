"""Extend ``BENCH_sim.json`` with the incremental table-extraction series.

Measures, per benchmark circuit:

- **tables stage** — from-scratch ``extract_tables`` over p ∈ {1, 2, 4}
  against (a) the chained cold path a sweep campaign drives (grow one
  state p=1 → 1,2 → 1,2,4, deriving tables at each step, vs rebuilding
  every prefix from scratch) and (b) the warm-derive path (state already
  grown, extension is a no-op, derivation only pools frontier rows).
- **end to end** — ``design_ced_sweep`` on a cold artifact cache vs the
  same sweep re-run warm against the cache the cold run populated.  Each
  of ``END_TO_END_ROUNDS`` rounds runs one cold sweep on a fresh cache,
  then one warm sweep on it; the figures are medians with their
  quartiles under ``*_iqr``, and the speedup is the median per-round
  ratio, so host drift between rounds moves both sides alike.

- **collapse** — the behavior-exact fault-collapsing funnel (universe →
  structural equivalence → signature classes) per circuit, and the cold
  tables-stage time checking one representative per class vs the
  uncollapsed universe and the structural-only list.  The three tiers
  run in turn, ``COLLAPSE_ROUNDS`` times, and each speedup is the median
  of the per-round ratios: on a shared host the speed drifts between
  rounds, and best-of-3 per tier read s386 0.95× and 1.08× in two runs
  of the same code.

Results are merged into ``BENCH_sim.json`` next to the fault-simulation
series (``bench_sim.py`` owns the top-level ``results`` list; this script
owns the ``tables``, ``end_to_end`` and ``collapse`` sections and leaves
the rest of the file untouched).

Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_tables.py
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from pathlib import Path

from repro.core.detectability import (
    TableConfig,
    extend_extraction_state,
    extract_tables,
    new_extraction_state,
    tables_from_state,
)
from repro.faults.collapse import select_stuck_at_faults
from repro.faults.model import StuckAtModel
from repro.flow import design_ced_sweep
from repro.fsm.benchmarks import load_benchmark
from repro.logic.synthesis import synthesize_fsm
from repro.runtime.cache import ArtifactCache

CIRCUITS = ("s27", "dk512", "s386")
LATENCIES = (1, 2, 4)
MAX_FAULTS = 800
REPEATS = 3
#: Interleaved rounds of the collapse tiers (one timing of each per round).
COLLAPSE_ROUNDS = 15
#: Interleaved cold/warm rounds of the end-to-end sweep.
END_TO_END_ROUNDS = 7

#: Ratio sweep for the collapse funnel (timing only on CIRCUITS).
COLLAPSE_CIRCUITS = ("s27", "dk512", "s386", "keyb", "styr", "s1488")
COLLAPSE_LATENCIES = (1, 2)


def _best_of(function, repeats: int = REPEATS) -> float:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        timings.append(time.perf_counter() - start)
    return min(timings)


def _median_iqr(samples: list[float], scale: float = 1.0):
    """Median and [lower, upper] quartile of ``samples`` times ``scale``."""
    low, _, high = statistics.quantiles(samples, n=4)
    return (
        round(statistics.median(samples) * scale, 2),
        [round(low * scale, 2), round(high * scale, 2)],
    )


def bench_tables_stage(name: str) -> dict:
    synthesis = synthesize_fsm(load_benchmark(name))
    model = StuckAtModel(synthesis, max_faults=MAX_FAULTS)
    config = TableConfig(latency=max(LATENCIES), semantics="checker")
    prefixes = [list(LATENCIES[: stop + 1]) for stop in range(len(LATENCIES))]

    def fresh_full():
        extract_tables(synthesis, model, config, list(LATENCIES))

    def rebuild_chain():
        for prefix in prefixes:
            extract_tables(synthesis, model, config, prefix)

    def chained_cold():
        state = new_extraction_state(synthesis, model, config)
        for prefix in prefixes:
            extend_extraction_state(state, synthesis, model, config, prefix)
            tables_from_state(state, config, prefix)

    warm_state = new_extraction_state(synthesis, model, config)
    extend_extraction_state(
        warm_state, synthesis, model, config, list(LATENCIES)
    )

    def warm_derive():
        extend_extraction_state(
            warm_state, synthesis, model, config, list(LATENCIES)
        )
        tables_from_state(warm_state, config, list(LATENCIES))

    fresh_time = _best_of(fresh_full)
    rebuild_time = _best_of(rebuild_chain)
    chained_time = _best_of(chained_cold)
    warm_time = _best_of(warm_derive)
    return {
        "circuit": name,
        "latencies": list(LATENCIES),
        "num_faults": len(model.faults()),
        "fresh_ms": round(fresh_time * 1e3, 2),
        "rebuild_chain_ms": round(rebuild_time * 1e3, 2),
        "chained_cold_ms": round(chained_time * 1e3, 2),
        "warm_derive_ms": round(warm_time * 1e3, 2),
        "chained_speedup": round(rebuild_time / chained_time, 2),
        "warm_speedup": round(fresh_time / warm_time, 2),
    }


def bench_collapse(name: str) -> dict:
    """The collapsing funnel, plus cold tables time per fault-list tier."""
    synthesis = synthesize_fsm(load_benchmark(name))
    start = time.perf_counter()
    selection = select_stuck_at_faults(synthesis)
    collapse_time = time.perf_counter() - start
    result = {
        "circuit": name,
        "universe": selection.universe,
        "structural": selection.structural,
        "classes": selection.num_classes,
        "signature_patterns": selection.signature_patterns,
        "collapse_ms": round(collapse_time * 1e3, 2),
        "reduction_vs_universe": round(
            1 - selection.num_classes / selection.universe, 4
        ),
        "reduction_vs_structural": round(
            1 - selection.num_classes / selection.structural, 4
        ),
    }
    if name not in CIRCUITS:
        return result
    config = TableConfig(latency=max(COLLAPSE_LATENCIES), semantics="checker")
    latencies = list(COLLAPSE_LATENCIES)
    tiers = {
        "universe": {"collapse": False},
        "structural": {"signature_collapse": False},
        "classes": {},
    }
    timings: dict[str, list[float]] = {tier: [] for tier in tiers}
    for _ in range(COLLAPSE_ROUNDS):
        for tier, knobs in tiers.items():
            # Fresh model per run: the cold path includes the collapse itself.
            start = time.perf_counter()
            extract_tables(
                synthesis,
                StuckAtModel(synthesis, max_faults=None, **knobs),
                config,
                latencies,
            )
            timings[tier].append(time.perf_counter() - start)
    for tier, samples in timings.items():
        result[f"tables_cold_{tier}_ms"] = round(
            statistics.median(samples) * 1e3, 2
        )
    for tier in ("universe", "structural"):
        ratios = [
            base / classes
            for base, classes in zip(timings[tier], timings["classes"])
        ]
        (
            result[f"tables_speedup_vs_{tier}"],
            result[f"tables_speedup_vs_{tier}_iqr"],
        ) = _median_iqr(ratios)
    return result


def bench_end_to_end(name: str) -> dict:
    def sweep(cache: ArtifactCache) -> float:
        start = time.perf_counter()
        design_ced_sweep(
            name, list(LATENCIES), max_faults=MAX_FAULTS, cache=cache
        )
        return time.perf_counter() - start

    cold: list[float] = []
    warm: list[float] = []
    with tempfile.TemporaryDirectory() as scratch:
        for index in range(END_TO_END_ROUNDS):
            cache = ArtifactCache(Path(scratch) / f"bench-cache-{index}")
            cold.append(sweep(cache))
            warm.append(sweep(cache))
    result = {"circuit": name, "latencies": list(LATENCIES)}
    result["cold_ms"], result["cold_ms_iqr"] = _median_iqr(cold, 1e3)
    result["warm_ms"], result["warm_ms_iqr"] = _median_iqr(warm, 1e3)
    result["speedup"], result["speedup_iqr"] = _median_iqr(
        [c / w for c, w in zip(cold, warm)]
    )
    return result


def main() -> None:
    out = Path(__file__).parent / "BENCH_sim.json"
    payload = json.loads(out.read_text()) if out.exists() else {}
    payload["tables"] = {
        "description": (
            "Detectability-table extraction over p in {1,2,4}: from-scratch "
            "enumeration vs the incremental frontier path — chained cold "
            "(grow one state p=1 -> 1,2 -> 1,2,4 vs rebuilding every "
            "prefix) and warm derive (state already grown; derivation "
            "pools frontier rows without re-enumerating suffixes)."
        ),
        "results": [bench_tables_stage(name) for name in CIRCUITS],
    }
    payload["collapse"] = {
        "description": (
            "Behavior-exact fault collapsing: universe -> structural "
            "equivalence -> functional signature classes (one simulated "
            "representative per class, multiplicity-expanded downstream). "
            "tables_cold_*_ms is the median cold tables stage (including "
            "the collapse itself) checking each fault-list tier, over "
            f"{COLLAPSE_ROUNDS} rounds that time the three tiers in turn; "
            "speedups are the median per-round ratio of the universe and "
            "structural-only lists against the class list, with the "
            "ratios' quartiles under *_iqr."
        ),
        "results": [bench_collapse(name) for name in COLLAPSE_CIRCUITS],
    }
    payload["end_to_end"] = {
        "description": (
            "design_ced_sweep on a cold artifact cache vs re-running warm "
            "against the cache the cold run populated (tables served from "
            "the persisted extraction state and cached artifacts). "
            f"{END_TO_END_ROUNDS} rounds, each a cold sweep on a fresh "
            "cache then a warm one on it; cold_ms/warm_ms are medians and "
            "speedup the median per-round ratio, with quartiles under *_iqr."
        ),
        "results": [bench_end_to_end(name) for name in CIRCUITS],
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    main()
