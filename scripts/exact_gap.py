#!/usr/bin/env python3
"""Exact trajectory-vs-checker gap measurement (EXPERIMENTS.md).

The fuzzing campaign quantified the gap between the paper's trajectory
table semantics and the Fig. 3 checker's observable semantics with
*sampled* fault injection (3 random runs per fault).  This script settles
the same question **exactly** on the bundled small-machine corpus: for
every hand-written benchmark and every seed-corpus machine, design CED
hardware under both semantics at p = 2, then run the exhaustive engine
over every collapsed fault from every reachable activation point.

For each machine it prints the exact per-fault worst-case latency
histogram of the checker-semantics design, and for the trajectory design
the exact count of escaping faults (faults with an undetected length-p
continuation) — no sampling noise in either direction.

Run as ``PYTHONPATH=src python scripts/exact_gap.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.core.search import SolveConfig  # noqa: E402
from repro.faults.collapse import select_stuck_at_faults  # noqa: E402
from repro.flow import design_ced  # noqa: E402
from repro.fsm.benchmarks import HAND_WRITTEN, load_benchmark  # noqa: E402
from repro.verification.corpus import load_seed_corpus  # noqa: E402
from repro.verification.exhaustive import (  # noqa: E402
    exhaustive_check,
    replay_witness,
)

LATENCY = 2
MAX_FAULTS = 200
SEED = 2004


def exact_report(fsm, semantics):
    design = design_ced(
        fsm,
        latency=LATENCY,
        semantics=semantics,
        max_faults=MAX_FAULTS,
        solve_config=SolveConfig(seed=SEED),
    )
    selection = select_stuck_at_faults(
        design.synthesis, max_faults=MAX_FAULTS, seed=SEED
    )
    report = exhaustive_check(
        design.synthesis,
        design.hardware,
        selection.checked,
        LATENCY,
        block=selection.block,
    )
    return design, selection, report


def main() -> int:
    machines = [load_benchmark(name) for name in HAND_WRITTEN]
    machines += load_seed_corpus()

    gap_machines = 0
    total_escaping = 0
    checker_dirty = 0
    header = (
        f"{'machine':<18} {'chk q':>5} {'trj q':>5} "
        f"{'chk histogram':<22} {'trj escapes':>11}  replay"
    )
    print(f"exact trajectory-vs-checker gap, p = {LATENCY}, "
          f"max_faults = {MAX_FAULTS}, seed = {SEED}")
    print(header)
    print("-" * len(header))

    for fsm in machines:
        chk_design, _, chk = exact_report(fsm, "checker")
        trj_design, trj_selection, trj = exact_report(fsm, "trajectory")
        if not chk.clean:
            checker_dirty += 1
        escapes = trj.escapes
        replays = all(
            replay_witness(
                trj_design.synthesis,
                trj_design.hardware,
                next(
                    f.payload
                    for f in trj_selection.checked
                    if f.name == verdict.fault
                ),
                verdict.witness,
            )
            for verdict in escapes
            if verdict.witness is not None
        )
        if escapes:
            gap_machines += 1
            total_escaping += len(escapes)
        histogram = ", ".join(
            f"{k}:{v}" for k, v in sorted(chk.histogram().items())
        )
        print(
            f"{fsm.name:<18} "
            f"{len(chk_design.hardware.betas):>5} "
            f"{len(trj_design.hardware.betas):>5} "
            f"{{{histogram}}}{'':<{max(0, 20 - len(histogram))}} "
            f"{len(escapes):>11}  {'yes' if escapes and replays else '-'}"
        )
        if not chk.clean:
            print(f"  !! checker-semantics escape on {fsm.name}")

    total = len(machines)
    print("-" * len(header))
    print(
        f"{gap_machines}/{total} machines "
        f"({100.0 * gap_machines / total:.1f}%) have an exact "
        f"trajectory-semantics escape at p = {LATENCY} "
        f"({total_escaping} escaping faults total); "
        f"checker-semantics designs: "
        f"{'all proved clean' if not checker_dirty else f'{checker_dirty} DIRTY'}"
    )
    return 1 if checker_dirty else 0


if __name__ == "__main__":
    sys.exit(main())
