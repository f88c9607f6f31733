"""Steadiness check: repeat every workload and report the spread.

    python3 perfbench/steady.py --runs 10 [--traced 2] [--json FILE]

Runs two sets, one after the other, as a comparison of two commits would.  A set runs each workload
``--runs`` times with seeds 1..runs, workloads interleaved so that a slow
spell of the host is shared out.  For every end-to-end metric it prints
per set the median, the quartiles and the quartile spread as a share of
the median against the metric's bound in ``BENCHMARK.json``, and the gap
between the medians of the two sets against the same bound.  ``--traced`` adds traced runs per workload to each set, prints
their per-layer medians and the tracing overhead (untraced over traced
``ops_per_s``).  Exits 1 when a count metric differs between any two runs
of a workload, or a spread or a gap exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Sets of runs; their medians must agree within each metric's bound.
SETS = 2

#: Metrics that count work or quality; they must repeat exactly.
EXACT_END_TO_END = ("parity_bits_total", "ced_cost_total", "ok_share")
EXACT_PER_LAYER = (
    "logic.synthesize.calls", "faults.select.calls", "faults.checked",
    "faults.universe", "core.tables.rows", "core.search.probes",
    "core.search.infeasible_probes", "core.search.useful_probe_share",
    "core.lp.calls", "core.rounding.attempts", "ced.hardware.calls",
    "verification.exhaustive.faults", "runtime.cache.get.calls",
    "runtime.cache.hit_share", "escaped_faults_total",
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n"
                         f"{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    samples = re.search(r"^setup_s samples: (.*)$", done.stdout, re.MULTILINE)
    if samples:
        result["setup_samples"] = [float(v) for v in samples.group(1).split()]
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the checks:\n"
                         f"{done.stderr[-3000:]}")
    return result


def values_of(results: list[dict], name: str) -> list[float]:
    return [result["metrics"][name]["value"] for result in results]


def differing(results: list[dict], names) -> list[str]:
    bad = [name for name in names
           if name in results[0]["metrics"] and len(set(values_of(results, name))) > 1]
    if len({result["attempted"] for result in results}) > 1:
        bad.append("attempted")
    return bad


def report(workload: str, results: list[dict], spec: dict, summary: dict) -> bool:
    ok = True
    print(f"\n{workload}: {len(results)} runs")
    print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    rows = {}
    for entry in spec["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        median, q1, q3, spread = quartile_spread(values_of(results, name))
        if spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict, ok = "OVER BOUND", False
        print(f"  {name:<20} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound:>6.3f}  {verdict}")
        rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                      "unit": entry["unit"], "runs": values_of(results, name)}
    for entry in spec["end_to_end"]:
        print(f"  {entry['name']} per run: "
              + " ".join(f"{v:.6g}" for v in values_of(results, entry["name"])))
    # This process's own set-up alone, without the median over probes.
    own = [result["setup_samples"][0] for result in results
           if result.get("setup_samples")]
    if own:
        median, q1, q3, spread = quartile_spread(own)
        print(f"  own set-up only: median {median:.6g} s, spread {spread:.4f}")
        rows["setup_s"]["own_setup"] = {"median": median, "spread": spread,
                                        "runs": own}
    summary[workload] = {"runs": len(results), "end_to_end": rows}
    return ok


def report_traced(workload: str, traced: list[dict], untraced: list[dict],
                  spec: dict, summary: dict) -> None:
    print(f"  traced runs: {len(traced)}")
    layers = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        median = statistics.median(values_of(traced, name))
        if median:
            print(f"    {name:<36} {median:>14.6g} {entry['unit']}")
        layers[name] = median
    overhead = (statistics.median(values_of(untraced, "ops_per_s"))
                / layers["traced.ops_per_s"])
    print(f"    tracing overhead: untraced/traced ops_per_s = {overhead:.3f}")
    summary[workload].update(per_layer=layers, tracing_overhead=overhead)


def run_set(spec: dict, runs: int, traced_runs: int, label: str):
    """One set: (untraced, traced) results per workload, seeds 1..runs."""
    names = [entry["name"] for entry in spec["workloads"]]
    seconds = spec["run_seconds"]
    untraced = {workload: [] for workload in names}
    traced = {workload: [] for workload in names}
    for index in range(max(runs, traced_runs)):
        for workload in names:
            if index < runs:
                untraced[workload].append(run_once(workload, index + 1, seconds, 0))
            if index < traced_runs:
                traced[workload].append(run_once(workload, index + 1, seconds, 1))
        print(f"{label}: round {index + 1} done", file=sys.stderr)
    return untraced, traced


def report_gaps(spec: dict, summaries: list[dict]) -> tuple[bool, dict]:
    """|second median − first median| ÷ first median against each bound."""
    ok, gaps = True, {}
    print("\nmedian gap between the two sets")
    for workload, first in summaries[0].items():
        gaps[workload] = {}
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            base = first["end_to_end"][name]["median"]
            second = summaries[1][workload]["end_to_end"][name]["median"]
            gap = abs(second - base) / base
            verdict = "ok" if gap <= bound else "OVER BOUND"
            ok &= gap <= bound
            print(f"  {workload:<14} {name:<20} {gap:>8.4f} {bound:>6.3f}  {verdict}")
            gaps[workload][name] = gap
    return ok, gaps


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--json", type=Path, help="write the summary here")
    args = parser.parse_args(argv)
    ok = True
    summaries: list[dict] = []
    every_run: dict[str, list[dict]] = {}
    every_traced: dict[str, list[dict]] = {}
    for number in range(1, SETS + 1):
        untraced, traced = run_set(spec, args.runs, args.traced, f"set {number}")
        print(f"\n=== set {number} ===")
        summary: dict = {}
        for workload, results in untraced.items():
            ok &= report(workload, results, spec, summary)
            every_run.setdefault(workload, []).extend(results)
            every_traced.setdefault(workload, []).extend(traced[workload])
            if traced[workload]:
                report_traced(workload, traced[workload], results, spec, summary)
        summaries.append(summary)
    for workload, results in every_run.items():
        bad = differing(results, EXACT_END_TO_END)
        if every_traced[workload]:
            bad += differing(every_traced[workload], EXACT_PER_LAYER)
        if bad:
            print(f"{workload}: COUNT METRICS DIFFER between runs: {', '.join(bad)}")
            ok = False
    gaps_ok, gaps = report_gaps(spec, summaries)
    ok &= gaps_ok
    output = {"sets": summaries, "median_gaps": gaps}
    if args.json:
        args.json.write_text(json.dumps(output, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
