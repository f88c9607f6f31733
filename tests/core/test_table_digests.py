"""Byte-identity guard for the detectability tables of the large circuits.

Pins the sha256 of every stored ``rows`` array for dk16, s386, cse and
pma (trajectory semantics, multilevel synthesis, ``max_faults`` 300,
p 1–3).  These tables pool tens of thousands of per-fault rows and drop
many of them in the ⊆-minimisation, which the small-circuit guards
(s27, dk512) barely exercise.  About 15 s on one core, so ``slow``:

    PYTHONPATH=src python -m pytest tests/core/test_table_digests.py -m slow -o addopts=""
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.detectability import TableConfig, extract_tables
from repro.faults.model import StuckAtModel
from repro.fsm.benchmarks import load_benchmark
from repro.logic.synthesis import synthesize_fsm

#: circuit -> latency -> (rows shape, sha256 of the rows' bytes)
DIGESTS = {
    "dk16": {
        1: ((155, 1), "fa6c5c8cf2ad4e019df443f4c4e553651ca514ceb2fa6a59debcf641f51aeb37"),
        2: ((380, 2), "16715cd662f91c24b2785780f187769a632fd40aeb9e689963a971ba39abe937"),
        3: ((612, 3), "a60545d6775865d0990b9ce77d513dcee31a1380a13476661809518c343c31ab"),
    },
    "s386": {
        1: ((317, 1), "a76f511caa6095c6fa8722089c2ee4cf1fbddf8102b0a7eaa0dfeab4486c6c1d"),
        2: ((844, 2), "843bdce30c61b88608bdcb9f883a040c83448425ef1d959cc6f64f07dc2dad82"),
        3: ((2867, 3), "ff7d4e0f1c6f9727d0d513f9318cda9edfc514203e1bf2f7cd89165bb7047dbe"),
    },
    "cse": {
        1: ((619, 1), "b546616bd750451ed9aa93757c80753e981a755b2692afb368349665c2f996db"),
        2: ((2822, 2), "bbfc03ab0c149163af2e1f712643d278a3b8eabaf356183a13e0132ff68c23f9"),
        3: ((12384, 3), "c1484e0021a7afc7b7ad64aa176456f492d5b21643a8881c4a3570166eb596af"),
    },
    "pma": {
        1: ((746, 1), "e3ed09b95cfcc0c5d60066c135940cb802eb41509b253c49298bc2c8703490c9"),
        2: ((12698, 2), "a9bab6f1f9fda5ed89aa2e89e307bee3a98b2c06f4a32fcfb253d210f00c9a31"),
        3: ((105505, 3), "5034a3b1b6da8e7c8a1a9322b2796f2f52e9e6c02d796290883863e4f36dfc70"),
    },
}


@pytest.mark.slow
@pytest.mark.parametrize("circuit", sorted(DIGESTS))
def test_table_rows_are_byte_identical(circuit):
    synthesis = synthesize_fsm(load_benchmark(circuit), multilevel=True)
    tables = extract_tables(
        synthesis,
        StuckAtModel(synthesis, max_faults=300),
        TableConfig(latency=3, semantics="trajectory"),
    )
    found = {
        p: (table.rows.shape, hashlib.sha256(table.rows.tobytes()).hexdigest())
        for p, table in tables.items()
    }
    assert found == DIGESTS[circuit]
