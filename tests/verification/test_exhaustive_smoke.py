"""The exact tier's CI lane: proved bounds and byte-stable certificates.

Proves the bounded-latency property exactly on the hand-written small
circuits at p in {1, 2} and checks the certificate contract end to end:

1. every certificate is ``mode: "exhaustive"`` and the bound holds (no
   escaping fault on the shipped designs);
2. every proved per-fault worst-case latency respects the bound;
3. certificates are byte-identical across a cold run, a warm (artifact
   cache hit) run and a cache-free run: the canonical JSON carries no
   wall-clock or host data;
4. ``repro-ced verify --exhaustive`` exits 0 and writes the same
   canonical JSON as the library.

Marked ``exhaustive_smoke`` and kept out of the default run; run with

    PYTHONPATH=src python -m pytest -m exhaustive_smoke -o addopts=""
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fsm.benchmarks import HAND_WRITTEN
from repro.runtime.cache import ArtifactCache, NullCache
from repro.verification.certificate import certificate_json, parse_certificate
from repro.verification.exhaustive import ExhaustiveConfig, verify_exhaustive

pytestmark = pytest.mark.exhaustive_smoke

REPO = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("latency", [1, 2])
@pytest.mark.parametrize("circuit", HAND_WRITTEN)
def test_bound_is_proved_and_certificate_is_byte_stable(
    circuit, latency, tmp_path
):
    config = ExhaustiveConfig(latency=latency)
    cache = ArtifactCache(tmp_path / "cache")
    cold = verify_exhaustive(circuit, config, cache=cache)
    warm = verify_exhaustive(circuit, config, cache=cache)
    fresh = verify_exhaustive(circuit, config, cache=NullCache())

    assert cold["mode"] == "exhaustive"
    assert cold["summary"]["bound_holds"], cold["escapes"]
    assert all(int(k) <= latency for k in cold["latency_histogram"])
    cold_bytes = certificate_json(cold)
    assert certificate_json(warm) == cold_bytes, "cache-served certificate differs"
    assert certificate_json(fresh) == cold_bytes, "independent runs differ"
    parse_certificate(cold_bytes)


def test_cli_certificate_matches_the_library(tmp_path):
    target = tmp_path / "certificate.json"
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro", "verify", "seqdet",
            "--latency", "2", "--exhaustive", "--no-cache",
            "--certificate", str(target),
        ],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "BOUND HOLDS" in completed.stdout
    written = parse_certificate(target.read_text())
    reference = verify_exhaustive("seqdet", ExhaustiveConfig(latency=2))
    assert certificate_json(written) == certificate_json(reference)
