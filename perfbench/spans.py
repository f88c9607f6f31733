"""In-memory spans around the program's layer entry points.

The traced run patches each layer's public function *at the name its
caller looks up* (``repro.flow.extract_tables``, not
``repro.core.detectability.extract_tables``), so only the calls the flow
makes are timed and no file under ``src/`` changes.  Spans are kept in
memory and written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

COLD = frozenset({"design-certify-cold"})
SERVE = frozenset({"serve-warm"})

#: Solve outcomes that come back with a β set (see ``core.search._try_q``);
#: every other probe outcome is a probe that found nothing.
FEASIBLE_OUTCOMES = frozenset({"lp+rr", "lp+rr+repair"})


class SpanRecorder:
    """Spans (name, start, end, parent) and named counters, all in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped} open)")
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as stream:
            for index, (name, start, end, parent) in enumerate(self.spans):
                stream.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent}
                ) + "\n")


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[tuple[str, float, float, int]]) -> dict[str, float]:
    """Seconds per span name: duration minus the union its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] += (end - start) - covered(children.get(index, []))
    return dict(totals)


# ----------------------------------------------------------------------
# Counters read from return values
# ----------------------------------------------------------------------
def _count_selection(rec: SpanRecorder, result: Any, args: tuple, kwargs: dict) -> None:
    rec.count("faults.checked", len(result.checked))
    rec.count("faults.universe", result.universe)


def _count_tables(rec: SpanRecorder, result: Any, args: tuple, kwargs: dict) -> None:
    rec.count("core.tables.rows", sum(t.num_rows for t in result.values()))


def _count_search(rec: SpanRecorder, result: Any, args: tuple, kwargs: dict) -> None:
    for solve in result.values():
        outcomes = list(solve.per_q_outcome.values())
        rec.count("core.search.probes", len(outcomes))
        rec.count("core.search.infeasible_probes",
                  sum(o not in FEASIBLE_OUTCOMES for o in outcomes))
        rec.count("core.rounding.attempts", solve.rounding_attempts)


def _count_exhaustive(rec: SpanRecorder, result: Any, args: tuple, kwargs: dict) -> None:
    rec.count("verification.exhaustive.faults", len(result.verdicts))


#: (module, attribute, span name, counter, workloads that must call it).
WRAPS: tuple[tuple[str, str, str, Callable | None, frozenset], ...] = (
    ("repro.flow", "synthesize_fsm", "logic.synthesize", None, COLD),
    ("repro.faults.collapse", "select_stuck_at_faults", "faults.select",
     _count_selection, COLD),
    ("repro.verification.exhaustive", "select_stuck_at_faults", "faults.select",
     _count_selection, COLD),
    ("repro.flow", "extract_tables", "core.tables", _count_tables, COLD),
    ("repro.flow", "new_extraction_state", "core.tables", None, COLD),
    ("repro.flow", "extend_extraction_state", "core.tables", None, COLD),
    ("repro.flow", "tables_from_state", "core.tables", _count_tables, COLD),
    ("repro.flow", "solve_for_latencies", "core.search", _count_search, COLD),
    ("repro.core.search", "solve_lp_relaxation", "core.lp", None, COLD),
    ("repro.core.search", "randomized_rounding", "core.rounding", None, COLD),
    ("repro.core.search", "greedy_parity_cover", "core.greedy", None, COLD),
    ("repro.flow", "build_ced_hardware", "ced.hardware", None, COLD),
    ("repro.verification.exhaustive", "exhaustive_check",
     "verification.exhaustive", _count_exhaustive, COLD),
    ("repro.verification.certificate", "build_exhaustive_certificate",
     "verification.certificate", None, COLD),
)


#: Instance methods wrapped by the workloads themselves (same guard).
INSTANCE_SITES = {
    "ArtifactCache.get": COLD,
    "ArtifactCache.put": COLD,
    "ServiceClient.request_raw": SERVE,
}


def _traced(rec: SpanRecorder, site: str, name: str, original: Callable,
            counter: Callable | None) -> Callable:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rec.calls[site] += 1
        index = rec.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            rec.end(index)
        if counter is not None:
            counter(rec, result, args, kwargs)
        return result

    return wrapper


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Patch every call site in :data:`WRAPS`; returns the undo function."""
    undo: list[tuple[Any, str, Any]] = []
    for module_name, attribute, name, counter, _expected in WRAPS:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        site = f"{module_name}.{attribute}"
        setattr(module, attribute, _traced(rec, site, name, original, counter))
        undo.append((module, attribute, original))

    def restore() -> None:
        for module, attribute, original in reversed(undo):
            setattr(module, attribute, original)

    return restore


def wrap_cache(rec: SpanRecorder, cache: Any) -> Callable[[], None]:
    """Trace one ``ArtifactCache`` instance's ``get``/``put``; returns the undo."""
    get, put = cache.get, cache.put

    def traced_get(stage: str, key: str) -> tuple[bool, Any]:
        rec.calls["ArtifactCache.get"] += 1
        index = rec.begin("runtime.cache.get")
        try:
            found, value = get(stage, key)
        finally:
            rec.end(index)
        rec.count("runtime.cache.hits", int(found))
        return found, value

    def traced_put(stage: str, key: str, value: Any) -> None:
        rec.calls["ArtifactCache.put"] += 1
        index = rec.begin("runtime.cache.put")
        try:
            put(stage, key, value)
        finally:
            rec.end(index)
        # Bytes on disk of the entry just written (the cache has no public
        # size query, and re-pickling the value would cost time of its own).
        rec.count("runtime.cache.put.bytes", os.stat(cache._path(stage, key)).st_size)

    cache.get, cache.put = traced_get, traced_put

    def restore() -> None:
        del cache.get, cache.put

    return restore


def missing_calls(rec: SpanRecorder, workload: str) -> list[str]:
    """Wrapped sites predicted to run on ``workload`` that never did.

    A refactor that moves a call site must fail the traced run loudly,
    not silently shift its time into ``unattributed``.
    """
    expected = {
        f"{module_name}.{attribute}": workloads
        for module_name, attribute, _name, _counter, workloads in WRAPS
    }
    expected.update(INSTANCE_SITES)
    return sorted(
        site for site, workloads in expected.items()
        if workload in workloads and not rec.calls[site]
    )
