"""The exact verification tier.

Four layers: the engine proves the bound on every bundled small machine
(p ∈ {1, 2, 4}), escape witnesses replay step for step on the cycle
simulator, the hypothesis differential pins the engine against the
sampled fuzzer (the fuzzer must never find an escape the exact search
misses, and no sampled latency may exceed the proved worst case), and
the surrounding plumbing — certificates byte-identical across cache
states, the fuzzer fallback above the state budget, the campaign job
kind — behaves.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.ced.checker import CedMachine
from repro.ced.verify import verify_bounded_latency
from repro.core.search import SolveConfig
from repro.faults.collapse import select_stuck_at_faults
from repro.faults.model import StuckAtModel, is_netlist_fault
from repro.flow import design_ced
from repro.fsm.benchmarks import HAND_WRITTEN
from repro.runtime.cache import ArtifactCache, NullCache
from repro.runtime.campaign import run_campaign, verify_exhaustive_jobs
from repro.runtime.metrics import MetricsRecorder
from repro.verification.certificate import certificate_json, parse_certificate
from repro.verification.corpus import load_seed_corpus
from repro.verification.exhaustive import (
    ExhaustiveConfig,
    exhaustive_check,
    replay_witness,
    verify_exhaustive,
)
from tests.strategies import spec_machines


def _design(fsm, latency, semantics="checker"):
    return design_ced(
        fsm,
        latency=latency,
        semantics=semantics,
        solve_config=SolveConfig(seed=2004),
    )


# ----------------------------------------------------------------------
# The bound is proved on every bundled small machine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("circuit", HAND_WRITTEN)
@pytest.mark.parametrize("latency", [1, 2, 4])
def test_proves_bound_on_hand_written(circuit, latency):
    certificate = verify_exhaustive(
        circuit, ExhaustiveConfig(latency=latency)
    )
    assert certificate["mode"] == "exhaustive"
    assert certificate["summary"]["bound_holds"], certificate["escapes"]
    assert certificate["summary"]["proved"] > 0
    assert certificate["escapes"] == []
    # Every proved fault's exact worst case respects the bound.
    assert all(
        int(k) <= latency for k in certificate["latency_histogram"]
    )
    # The activation states the search explored are a subset of the
    # good machine's reachable set (pre-activation, the faulty machine
    # tracks the good one).
    reachable = certificate["reachable"]
    assert set(reachable["activation"]) <= set(reachable["good"])


# ----------------------------------------------------------------------
# Escapes are concrete and replay on the cycle simulator
# ----------------------------------------------------------------------
def test_escape_witness_replays_on_the_simulator():
    corpus = {fsm.name: fsm for fsm in load_seed_corpus()}
    fsm = corpus["gapcase"]  # known trajectory-vs-checker gap machine
    design = _design(fsm, latency=2, semantics="trajectory")
    faults = list(select_stuck_at_faults(design.synthesis).checked)
    report = exhaustive_check(
        design.synthesis, design.hardware, faults, latency=2
    )
    assert not report.clean
    by_name = {fault.name: fault for fault in faults}
    for verdict in report.escapes:
        witness = verdict.witness
        assert witness is not None
        fault = by_name[witness["fault"]]
        node, value = fault.payload
        assert replay_witness(
            design.synthesis,
            design.hardware,
            (int(node), int(value)),
            witness,
        ), witness

    # The same design under checker semantics is exactly verified clean
    # (the gap is a semantics property, not an engine artifact).
    checker = _design(fsm, latency=2, semantics="checker")
    checker_faults = list(select_stuck_at_faults(checker.synthesis).checked)
    assert exhaustive_check(
        checker.synthesis, checker.hardware, checker_faults, latency=2
    ).clean


def test_witness_window_has_no_detection():
    corpus = {fsm.name: fsm for fsm in load_seed_corpus()}
    design = _design(corpus["gapcase"], latency=2, semantics="trajectory")
    faults = list(select_stuck_at_faults(design.synthesis).checked)
    report = exhaustive_check(
        design.synthesis, design.hardware, faults, latency=2
    )
    machine = CedMachine(design.synthesis, design.hardware)
    witness = report.escapes[0].witness
    fault = next(f for f in faults if f.name == witness["fault"])
    node, value = fault.payload
    trace = machine.run(witness["inputs"], fault=(int(node), int(value)))
    activation = witness["activation_cycle"]
    # First erroneous transition is exactly the claimed activation...
    assert [step.erroneous for step in trace[:activation]] == [False] * activation
    assert trace[activation].erroneous
    assert trace[activation].state_code == witness["activation_state"]
    # ...and the full latency window stays silent.
    window = trace[activation : activation + witness["latency"]]
    assert len(window) == witness["latency"]
    assert not any(step.detected for step in window)


# ----------------------------------------------------------------------
# Differential: exact engine vs sampled fuzzer
# ----------------------------------------------------------------------
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec_machines("exh"))
def test_fuzzer_never_beats_the_exact_engine(fsm):
    latency = 2
    design = _design(fsm, latency, semantics="trajectory")
    faults = list(select_stuck_at_faults(design.synthesis, max_faults=40).checked)
    faults = [fault for fault in faults if is_netlist_fault(fault)]
    exact = exhaustive_check(
        design.synthesis, design.hardware, faults, latency
    )
    sampled = verify_bounded_latency(
        design.synthesis,
        design.hardware,
        faults,
        latency=latency,
        runs_per_fault=3,
        run_length=24,
        max_faults=len(faults),
        seed=7,
    )
    escapes = {verdict.fault for verdict in exact.escapes}
    # Every sampled violation names a fault the exact engine proved
    # escaping — the fuzzer can never find what the proof misses.
    for violation in sampled.violations:
        fault_name = violation.split(": activated")[0]
        assert fault_name in escapes, (violation, escapes)
    if exact.clean:
        assert sampled.clean, sampled.violations
        observed = [int(k) for k in sampled.detection_latencies]
        if observed and exact.worst_latency is not None:
            # No sampled detection can take longer than the proved
            # worst case over all activations.
            assert max(observed) <= exact.worst_latency


# ----------------------------------------------------------------------
# Certificates: determinism, cache parity, fallback
# ----------------------------------------------------------------------
def test_certificate_byte_identical_across_runs_and_cache(tmp_path):
    config = ExhaustiveConfig(latency=2)
    cache = ArtifactCache(tmp_path / "cache")
    recorder = MetricsRecorder()
    cold = verify_exhaustive("seqdet", config, cache=cache, recorder=recorder)
    assert not recorder.stages[-1].cached
    warm_recorder = MetricsRecorder()
    warm = verify_exhaustive(
        "seqdet", config, cache=cache, recorder=warm_recorder
    )
    assert warm_recorder.stages[-1].cached  # served from the cache
    fresh = verify_exhaustive("seqdet", config, cache=NullCache())
    assert (
        certificate_json(cold)
        == certificate_json(warm)
        == certificate_json(fresh)
    )
    parse_certificate(certificate_json(cold))  # schema round-trip


def test_certificate_checks_the_designs_fault_sample(monkeypatch):
    """A non-default seed must not change which faults are certified.

    The design's fault model samples with its own default seed; a
    certificate that re-sampled with ``config.seed`` checked faults the
    design never covered (dk16 reported an escape at seed 7).
    """
    checked = []

    def recording_check(synthesis, hardware, faults, *args, **kwargs):
        checked.extend(fault.name for fault in faults)
        return exhaustive_check(synthesis, hardware, faults, *args, **kwargs)

    monkeypatch.setattr(
        "repro.verification.exhaustive.exhaustive_check", recording_check
    )
    config = ExhaustiveConfig(latency=2, max_faults=20, seed=7)
    certificate = verify_exhaustive("dk16", config)
    design = design_ced(
        "dk16", latency=2, max_faults=20, solve_config=SolveConfig(seed=7)
    )
    designed = StuckAtModel(design.synthesis, max_faults=20).faults()
    assert checked == [fault.name for fault in designed]
    assert certificate["summary"]["bound_holds"]
    assert certificate["faults"]["escaped"] == 0


def test_fallback_above_state_budget_is_marked_sampled():
    certificate = verify_exhaustive(
        "traffic", ExhaustiveConfig(latency=2, state_budget=1)
    )
    assert certificate["mode"] == "sampled"
    assert certificate["sampled"]["runs"] > 0
    assert certificate["summary"]["bound_holds"]
    assert certificate["summary"]["proved"] == 0  # sampling proves nothing
    parse_certificate(certificate_json(certificate))


def test_campaign_verify_exhaustive_job_kind(tmp_path):
    from repro.runtime.campaign import CampaignOptions

    jobs = verify_exhaustive_jobs(
        ["traffic", "seqdet"], ExhaustiveConfig(latency=1)
    )
    run = run_campaign(
        jobs,
        CampaignOptions(cache_dir=str(tmp_path / "cache")),
    )
    assert not run.failed
    for name in ("traffic", "seqdet"):
        certificate = run.values[name]
        assert certificate["mode"] == "exhaustive"
        assert certificate["summary"]["bound_holds"]
