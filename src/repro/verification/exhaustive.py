"""Exhaustive bounded-latency verification: prove the bound, don't sample it.

The fuzz/fault-injection verifier (:mod:`repro.ced.verify`) samples the
bounded-latency property with random runs.  For bounded machines the
property is a bounded-reachability question we can settle exactly: for
every collapsed stuck-at fault, explore the product of the faulty machine
and the checker from **every** reachable fault-activation point, breadth
first, up to depth ``p``.  Either every length-``p`` continuation detects
— and the per-fault **worst-case detection latency** is the exact level at
which the last undetected frontier empties — or some path survives
undetected and a concrete, replayable **escape witness** (an input
sequence from reset) is extracted.

The search never steps a simulator cycle by cycle.  All per-fault data is
read from a :class:`~repro.faults.block.FaultResponseBlock` over the full
``2**s states x alphabet`` pattern block: the fault-free transition words,
the predictor outputs, and the faulty words — usually already simulated
by the fault selection's signature pass.  From these three matrices,
error (``E``), detection (``D``) and faulty next-state (``NF``) matrices
follow by word-parallel bit algebra, and each BFS level is a numpy
gather.

Semantics match :func:`repro.ced.verify.verify_bounded_latency` exactly:

* an *activation* is the first erroneous transition of a run, so
  activation states are those reachable from reset through **error-free**
  faulty transitions (before the first error the faulty machine tracks
  the good one);
* a step *detects* when some parity tree over the checker-visible word
  (registered faulty state + held outputs) disagrees with the predictor's
  output for that (state, input) — the Fig. 3 comparator at ``t+1``;
* the input alphabet is the table-extraction alphabet
  (:func:`repro.core.detectability.input_alphabet`), so exhaustive-mode
  machines (``r <= exhaustive_input_limit``) are proved over the full
  input space and cube-mode machines over the recorded alphabet.

Above a configurable state budget (``2**s * |alphabet|`` patterns) the
engine degrades gracefully to the sampled verifier and the emitted
certificate is marked ``mode: "sampled"``.

Entry points: :func:`exhaustive_check` (synthesis + hardware in, report
out) and :func:`verify_exhaustive` (benchmark/FSM in, cached certificate
dict out — the ``repro-ced verify --exhaustive`` / campaign / service
path).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.ced.hardware import CedHardware
from repro.core.detectability import TableConfig, input_alphabet
from repro.faults.block import FaultResponseBlock, _closure, back_walk, reach_levels
from repro.faults.collapse import FaultSelection, select_stuck_at_faults
from repro.faults.model import Fault, StuckAtModel, is_netlist_fault
from repro.logic.synthesis import SynthesisResult
from repro.runtime.trace import current_tracer

#: Default ceiling on the enumerated pattern block (``2**s * |alphabet|``).
#: Every bundled benchmark fits (the largest Table-1 circuits enumerate
#: 64 states x 64 alphabet vectors = 4096 patterns); the budget guards
#: against externally supplied machines with wide state registers.
DEFAULT_STATE_BUDGET = 1 << 16


@dataclass(frozen=True)
class ExhaustiveConfig:
    """Everything one exhaustive verification depends on (picklable)."""

    latency: int = 1
    semantics: str = "checker"
    encoding: str = "binary"
    max_faults: int | None = 800
    multilevel: bool = False
    seed: int = 2004
    #: Degrade to the sampled fuzzer above this many enumerated patterns.
    state_budget: int = DEFAULT_STATE_BUDGET
    #: Escape witnesses extracted per report (the rest are counted only).
    max_witnesses: int = 8

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise ValueError("latency must be at least 1")
        if self.state_budget < 1:
            raise ValueError("state_budget must be positive")


@dataclass(frozen=True)
class FaultVerdict:
    """The exact outcome for one fault."""

    fault: str
    #: "proved" — every activation detects within the bound;
    #: "escape" — some length-p continuation stays undetected;
    #: "idle"   — the fault produces no erroneous reachable transition.
    status: str
    #: Exact worst-case detection latency (proved faults only).
    worst_latency: int | None = None
    #: Number of reachable erroneous (state, input) activation points.
    activations: int = 0
    #: Replayable escape trace (escapes only; capped per report).
    witness: dict | None = None
    #: Universe faults this verdict stands for (behavior-equivalence class
    #: size; equivalent faults share the exact same verdict and latency).
    multiplicity: int = 1


@dataclass
class ExhaustiveReport:
    """Everything the exact search established for one design."""

    latency: int
    alphabet: list[int]
    input_mode: str
    num_state_bits: int
    num_patterns: int
    verdicts: list[FaultVerdict] = field(default_factory=list)
    #: Good-machine reachable state codes (the certificate's inventory).
    reachable_good: list[int] = field(default_factory=list)
    #: Union over faults of error-free-reachable (activation) states.
    activation_states: list[int] = field(default_factory=list)

    @property
    def escapes(self) -> list[FaultVerdict]:
        return [v for v in self.verdicts if v.status == "escape"]

    @property
    def clean(self) -> bool:
        return not self.escapes

    @property
    def worst_latency(self) -> int | None:
        """Exact worst-case detection latency over all proved faults."""
        proved = [
            v.worst_latency for v in self.verdicts if v.status == "proved"
        ]
        return max(proved) if proved else None

    def histogram(self) -> dict[int, int]:
        """Universe faults per exact worst-case latency (proved only).

        Each verdict contributes its class multiplicity, so the histogram
        counts the full fault universe even though only one representative
        per behavior-equivalence class was searched.  With unit
        multiplicities (no class collapsing) this is a plain verdict count.
        """
        counts: dict[int, int] = {}
        for verdict in self.verdicts:
            if verdict.status == "proved":
                assert verdict.worst_latency is not None
                counts[verdict.worst_latency] = (
                    counts.get(verdict.worst_latency, 0) + verdict.multiplicity
                )
        return counts

    def counts(self) -> dict[str, int]:
        """Verdict counts over the checked representatives."""
        return {
            "checked": len(self.verdicts),
            "idle": sum(1 for v in self.verdicts if v.status == "idle"),
            "proved": sum(1 for v in self.verdicts if v.status == "proved"),
            "escaped": len(self.escapes),
        }

    def universe_counts(self) -> dict[str, int]:
        """Multiplicity-expanded verdict counts (full-universe faithful)."""
        totals = {"checked": 0, "idle": 0, "proved": 0, "escaped": 0}
        key = {"idle": "idle", "proved": "proved", "escape": "escaped"}
        for verdict in self.verdicts:
            totals["checked"] += verdict.multiplicity
            totals[key[verdict.status]] += verdict.multiplicity
        return totals


# ----------------------------------------------------------------------
# The exact engine
# ----------------------------------------------------------------------
def exhaustive_check(
    synthesis: SynthesisResult,
    hardware: CedHardware,
    faults: Sequence[Fault],
    latency: int,
    block: FaultResponseBlock | None = None,
    max_witnesses: int = 8,
    multiplicities: "dict[str, int] | None" = None,
) -> ExhaustiveReport:
    """Exact bounded-latency check of built CED hardware.

    Only netlist stuck-at faults (payload ``(node, value)``) participate;
    other fault kinds are skipped, matching the sampled verifier.
    ``block`` (e.g. the fault selection's) must enumerate every state code
    on the analysis alphabet; without one the engine builds its own.
    ``multiplicities`` (fault name → behavior-equivalence class size)
    weights each verdict so report histograms and universe counts stay
    faithful to the full fault universe when ``faults`` holds one
    representative per class.
    """
    if latency < 1:
        raise ValueError("latency must be at least 1")
    alphabet, input_mode = input_alphabet(
        synthesis, TableConfig(latency=latency)
    )
    # The faulty machine may wander into codes the good machine never
    # uses, so the block enumerates all 2**s codes: row = code.
    if block is None:
        block = FaultResponseBlock(synthesis, alphabet)
    elif not (block.all_codes and np.array_equal(block.alphabet, alphabet)):
        raise ValueError(
            "block must enumerate every state code on the analysis alphabet"
        )
    betas = hardware.betas
    predicted = (
        block.words_of(hardware.predictor.netlist)
        if betas
        else np.zeros_like(block.good_words)
    )
    good_next = block.good_words & np.int64(len(block.codes) - 1)

    tracer = current_tracer()
    report = ExhaustiveReport(
        latency=latency,
        alphabet=[int(a) for a in alphabet],
        input_mode=input_mode,
        num_state_bits=synthesis.num_state_bits,
        num_patterns=block.num_patterns,
        reachable_good=_closure(good_next, [synthesis.reset_code]).tolist(),
    )
    activation_union = np.zeros(len(block.codes), dtype=bool)
    witnesses_left = max_witnesses

    with tracer.span(
        "exhaustive.search",
        circuit=synthesis.fsm.name,
        latency=latency,
        faults=len(faults),
        patterns=report.num_patterns,
        alphabet=len(alphabet),
    ):
        for fault in faults:
            if not is_netlist_fault(fault):
                continue
            verdict, act_reach = _check_fault(
                fault=fault,
                block=block,
                predicted=predicted,
                betas=betas,
                latency=latency,
                want_witness=witnesses_left > 0,
            )
            if multiplicities is not None:
                verdict = dataclasses.replace(
                    verdict,
                    multiplicity=multiplicities.get(verdict.fault, 1),
                )
            if verdict.witness is not None:
                witnesses_left -= 1
            activation_union |= act_reach
            report.verdicts.append(verdict)
            tracer.event(
                "exhaustive.fault",
                fault=verdict.fault,
                status=verdict.status,
                worst_latency=verdict.worst_latency,
                activations=verdict.activations,
                multiplicity=verdict.multiplicity,
            )
    report.activation_states = [
        int(c) for c in np.nonzero(activation_union)[0]
    ]
    return report


def _check_fault(
    fault: Fault,
    block: FaultResponseBlock,
    predicted: np.ndarray,
    betas: list[int],
    latency: int,
    want_witness: bool,
) -> tuple[FaultVerdict, np.ndarray]:
    """Exact verdict for one fault plus its activation-reachable mask."""
    reset = block.synthesis.reset_code
    faulty_words = block.faulty_words(fault.payload)  # type: ignore[arg-type]
    erroneous = faulty_words != block.good_words
    detected = _parity_words(faulty_words, betas) != predicted
    next_state = faulty_words & np.int64(len(block.codes) - 1)

    # Activation points: reachable through error-free faulty transitions
    # (before the first error, the faulty machine tracks the good one),
    # then an erroneous step.
    error_free = np.where(erroneous, -1, next_state).tolist()
    reset_levels = reach_levels(
        lambda frontier: [error_free[code] for code in frontier], [reset]
    )
    act_reach = np.zeros(len(block.codes), dtype=bool)
    act_reach[[code for level in reset_levels for code in level]] = True
    activations = act_reach[:, None] & erroneous
    num_activations = int(activations.sum())
    if num_activations == 0:
        return FaultVerdict(fault.name, "idle"), act_reach

    # Level 1 is the activation transition itself; F_k collects faulty
    # states still undetected after k steps.  The bound is proved at the
    # first empty frontier; a non-empty F_p is an escape.
    undetected_act = activations & ~detected
    if not undetected_act.any():
        return (
            FaultVerdict(fault.name, "proved", 1, num_activations),
            act_reach,
        )
    levels = [np.unique(next_state[undetected_act])]
    worst: int | None = None
    for step in range(2, latency + 1):
        frontier = levels[-1]
        survive = ~detected[frontier]  # (|F|, A)
        if not survive.any():
            worst = step
            break
        levels.append(np.unique(next_state[frontier][survive]))
    if worst is not None:
        return (
            FaultVerdict(fault.name, "proved", worst, num_activations),
            act_reach,
        )
    witness = None
    if want_witness:
        # Three back-walks, each taking the first code of the previous
        # level and then the smallest input: from the smallest escaping
        # state through the sorted undetected frontiers, one undetected
        # erroneous step to the smallest activation state, and the
        # error-free prefix through the levels of the walk from reset.
        current, continuation = back_walk(
            [level.tolist() for level in levels],
            next_state,
            ~detected,
            int(levels[-1][0]),
        )
        act_codes = np.flatnonzero(undetected_act.any(axis=1)).tolist()
        activation, (column,) = back_walk(
            [act_codes, [current]], next_state, undetected_act, current
        )
        depth = next(
            d for d, level in enumerate(reset_levels) if activation in level
        )
        _, prefix = back_walk(
            reset_levels[: depth + 1], next_state, ~erroneous, activation
        )
        witness = {
            "fault": fault.name,
            "inputs": [
                int(block.alphabet[c]) for c in prefix + [column] + continuation
            ],
            "activation_cycle": len(prefix),
            "activation_state": activation,
            "latency": latency,
        }
    return (
        FaultVerdict(
            fault.name, "escape", None, num_activations, witness
        ),
        act_reach,
    )


def _parity_words(words: np.ndarray, betas: Sequence[int]) -> np.ndarray:
    """Per-beta parities of packed words, packed into one int per cell."""
    out = np.zeros_like(words)
    one = np.int64(1)
    for index, beta in enumerate(betas):
        masked = words & np.int64(beta)
        for shift in (32, 16, 8, 4, 2, 1):
            masked = masked ^ (masked >> np.int64(shift))
        out |= (masked & one) << np.int64(index)
    return out


def replay_witness(
    synthesis: SynthesisResult,
    hardware: CedHardware,
    fault: tuple[int, int],
    witness: dict,
) -> bool:
    """True iff the witness reproduces an escape on the cycle simulator.

    The replay is the sampled verifier's exact acceptance test: the
    witness's activation cycle must be the run's first erroneous
    transition and no step of the ``latency``-wide window may detect.
    """
    from repro.ced.checker import CedMachine

    machine = CedMachine(synthesis, hardware)
    trace = machine.run(witness["inputs"], fault=fault)
    activation = next(
        (step.cycle for step in trace if step.erroneous), None
    )
    if activation != witness["activation_cycle"]:
        return False
    window = trace[activation : activation + witness["latency"]]
    return not any(step.detected for step in window)


# ----------------------------------------------------------------------
# Benchmark-level driver (cache / campaign / service / CLI entry point)
# ----------------------------------------------------------------------
def verify_exhaustive(
    fsm,
    config: ExhaustiveConfig = ExhaustiveConfig(),
    cache=None,
    recorder=None,
    degraded: bool = False,
) -> dict:
    """Design + exactly verify one machine; return the certificate dict.

    The certificate is stored in the artifact cache's ``certificate``
    stage; cached servings are byte-identical to fresh computations (the
    certificate contains no wall-clock data).
    """
    from repro.core.search import SolveConfig
    from repro.fsm.benchmarks import load_benchmark
    from repro.runtime.cache import NullCache, cached_call, fingerprint
    from repro.runtime.metrics import MetricsRecorder

    if isinstance(fsm, str):
        fsm = load_benchmark(fsm)
    if cache is None:
        cache = NullCache()
    if recorder is None:
        recorder = MetricsRecorder()
    with recorder.stage("certificate") as stage:
        certificate, stage.cached = cached_call(
            cache,
            "certificate",
            fingerprint("verify-exhaustive", fsm, config, degraded),
            lambda: _compute_certificate(
                fsm, config, cache, recorder, degraded, SolveConfig
            ),
        )
    return certificate


def _compute_certificate(
    fsm, config: ExhaustiveConfig, cache, recorder, degraded, solve_config_cls
) -> dict:
    from repro.flow import design_ced
    from repro.verification.certificate import (
        build_exhaustive_certificate,
        build_sampled_certificate,
    )

    design = design_ced(
        fsm,
        latency=config.latency,
        semantics=config.semantics,
        encoding=config.encoding,
        max_faults=config.max_faults,
        solve_config=solve_config_cls(seed=config.seed),
        multilevel=config.multilevel,
        cache=cache,
        recorder=recorder,
        degraded=degraded,
    )
    synthesis = design.synthesis
    # Certify the faults the design covered: its StuckAtModel samples with
    # the model's default seed, whatever seed the solve used.
    selection: FaultSelection = select_stuck_at_faults(
        synthesis, max_faults=config.max_faults, seed=StuckAtModel.seed
    )
    faults = list(selection.checked)
    alphabet, input_mode = input_alphabet(
        synthesis, TableConfig(latency=config.latency)
    )
    num_patterns = (1 << synthesis.num_state_bits) * int(alphabet.shape[0])
    tracer = current_tracer()
    if num_patterns > config.state_budget:
        from repro.ced.verify import verify_bounded_latency

        with tracer.span(
            "exhaustive.fallback",
            circuit=synthesis.fsm.name,
            patterns=num_patterns,
            budget=config.state_budget,
        ):
            sampled = verify_bounded_latency(
                synthesis,
                design.hardware,
                faults,
                latency=config.latency,
                seed=config.seed,
            )
        return build_sampled_certificate(
            fsm_name=synthesis.fsm.name,
            config=config,
            design=design,
            report=sampled,
            selection=selection,
            num_patterns=num_patterns,
            input_mode=input_mode,
            alphabet_size=int(alphabet.shape[0]),
        )
    report = exhaustive_check(
        synthesis,
        design.hardware,
        faults,
        config.latency,
        block=selection.block,
        max_witnesses=config.max_witnesses,
        multiplicities=selection.multiplicities(),
    )
    return build_exhaustive_certificate(
        fsm_name=synthesis.fsm.name,
        config=config,
        design=design,
        report=report,
        selection=selection,
    )
