"""Fixed-work benchmark of the CED design flow, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload design-certify-cold --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs the same ops with every layer entry point wrapped in
an in-memory span and prints the per-layer metrics instead.  The last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the lines before it name every metric with its
unit.  ``python3 perfbench/steady.py`` repeats runs and reports spread.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from stats import nearest_rank, tail_percentile  # noqa: E402
from workloads import WORKLOADS, make_scratch, pin, remove_scratch  # noqa: E402

#: Set-up runs per measurement: this process plus fresh probe processes
#: that stop right before the first timed op; ``setup_s`` is their median.
SETUP_SAMPLES = 3
PROBE_TIMEOUT = 150
#: Tracebacks printed per run; later op failures are only counted.
MAX_TRACEBACKS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop before the first timed op and print the "
                             "set-up time (used for the setup_s samples)")
    return parser.parse_args(argv)


def timed_phase(workload, recorder) -> tuple[list[float], list, float]:
    """Run every op once, in order; (per-op seconds, outputs, elapsed)."""
    times: list[float] = []
    outputs: list = []
    printed = 0
    began = time.perf_counter()
    for index, item in enumerate(workload.items):
        workload.place(index)
        start = time.perf_counter()
        span = recorder.begin("op") if recorder is not None else None
        try:
            output = workload.op(item)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            output = None
            if printed < MAX_TRACEBACKS:
                traceback.print_exc(file=sys.stderr)
                printed += 1
        finally:
            if recorder is not None:
                recorder.end(span)
        times.append(time.perf_counter() - start)
        outputs.append(output)
    elapsed = time.perf_counter() - began
    pin(workload.processes(), None)
    return times, outputs, elapsed


def probe_setup(args: argparse.Namespace) -> float:
    """Set-up time of one fresh process doing exactly this run's set-up."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end_metrics(times, elapsed, checks, extra) -> dict[str, float]:
    ordered = sorted(times)
    n = len(ordered)
    percent = tail_percentile(n)
    print(f"op_tail_ms is p{percent} of n={n} ops")
    print(f"escaped_faults_total = {checks.escaped_faults} "
          "(a per-layer metric; 0 is a legitimate value)")
    rss_mb = extra.get(
        "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return {
        "ops_per_s": n / elapsed,
        "op_p50_ms": nearest_rank(ordered, 0.5) * 1000.0,
        "op_tail_ms": nearest_rank(ordered, percent / 100.0) * 1000.0,
        "ok_share": sum(checks.ok) / n,
        "peak_rss_mb": rss_mb,
        "parity_bits_total": checks.parity_bits,
        "ced_cost_total": checks.ced_cost,
    }


def layer_metrics(recorder, workload, times, elapsed, checks) -> dict[str, float]:
    from spans import self_times

    selfs = self_times(recorder.spans)
    names = [span[0] for span in recorder.spans]
    counts = recorder.counts
    op_total = sum(times)
    unattributed = selfs.get("op", 0.0)
    metrics = {
        f"{name}.self_ms": seconds * 1000.0
        for name, seconds in selfs.items() if name != "op"
    }
    for name in ("logic.synthesize", "faults.select", "core.lp", "ced.hardware",
                 "runtime.cache.get"):
        metrics[f"{name}.calls"] = names.count(name)
    for name in ("faults.checked", "faults.universe", "core.tables.rows",
                 "core.search.probes", "core.search.infeasible_probes",
                 "core.rounding.attempts", "verification.exhaustive.faults",
                 "runtime.cache.put.bytes"):
        metrics[name] = counts.get(name, 0)
    probes = counts.get("core.search.probes", 0)
    metrics["core.search.useful_probe_share"] = (
        (probes - counts.get("core.search.infeasible_probes", 0)) / probes
        if probes else 0.0
    )
    gets = names.count("runtime.cache.get")
    metrics["runtime.cache.hit_share"] = (
        counts.get("runtime.cache.hits", 0) / gets if gets else 0.0
    )
    metrics["unattributed.self_ms"] = unattributed * 1000.0
    metrics["escaped_faults_total"] = checks.escaped_faults
    metrics["traced.ops_per_s"] = len(times) / elapsed
    metrics["traced.attributed_share"] = 1.0 - unattributed / op_total
    metrics.update(workload.layer_metrics(recorder))
    return metrics


def emit(spec_metrics: list[dict], values: dict[str, float], checks, n: int) -> None:
    metrics = {}
    for entry in spec_metrics:
        name, unit = entry["name"], entry["unit"]
        value = float(values[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    failed = n - sum(checks.ok)
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": metrics}))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = make_scratch(ROOT)
    # Keep every default store and cache the program might open inside
    # this run's scratch directory.
    os.environ["REPRO_KNOWLEDGE"] = str(scratch / "knowledge.jsonl")
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "default-cache")
    workload = WORKLOADS[args.workload](ROOT, scratch, args.seconds, args.seed)
    recorder = restore = None
    try:
        workload.setup()
        setup_s = time.perf_counter() - STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            from spans import SpanRecorder

            recorder = SpanRecorder()
            restore = workload.trace(recorder)
        try:
            times, outputs, elapsed = timed_phase(workload, recorder)
            extra = workload.finish()
        finally:
            if restore is not None:
                restore()
        # Checks may read the run's cache, so they run before clean-up,
        # and untraced, so they add no spans.
        checks = workload.check(outputs)
    finally:
        workload.close()
        remove_scratch(scratch)
    for note in checks.notes:
        print(f"check failed: {note}", file=sys.stderr)
    if args.trace:
        from spans import missing_calls

        missing = missing_calls(recorder, args.workload)
        if missing:
            print("error: traced sites never called on "
                  f"{args.workload}: {', '.join(missing)}", file=sys.stderr)
            return 1
        recorder.write(ROOT / ".perfbench-out"
                       / f"spans-{args.workload}-seed{args.seed}.jsonl")
        # Layers a workload never reaches report 0.
        values = dict.fromkeys((entry["name"] for entry in spec["per_layer"]), 0.0)
        values.update(layer_metrics(recorder, workload, times, elapsed, checks))
        emit(spec["per_layer"], values, checks, len(times))
        return 0
    values = end_to_end_metrics(times, elapsed, checks, extra)
    samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    print("setup_s samples: " + " ".join(f"{s:.3f}" for s in samples))
    values["setup_s"] = statistics.median(samples)
    emit(spec["end_to_end"], values, checks, len(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
