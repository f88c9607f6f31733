"""Byte-identity guard for exhaustive certificates and their witnesses.

Pins the sha256 of :func:`~repro.verification.certificate.certificate_json`
for trajectory-semantics certificates whose escape witnesses carry
non-empty error-free prefixes (so both halves of every witness back-walk
are exercised) and for a few clean checker-semantics certificates.  A
change to reachability order, witness tie-breaks, fault selection or the
design itself shows up here.  About 15 s on one core, so ``slow``:

    PYTHONPATH=src python -m pytest tests/verification/test_certificate_digests.py -m slow -o addopts=""
"""

from __future__ import annotations

import hashlib

import pytest

from repro.verification.certificate import certificate_json
from repro.verification.exhaustive import ExhaustiveConfig, verify_exhaustive

#: (circuit, semantics, latency) -> sha256 of the canonical certificate JSON
DIGESTS = {
    ("dk512", "trajectory", 3): "ca73e762677044d2bd8f88e0be2e9a372686bb926d94941e8d4e0a748f8ee040",
    ("dk16", "trajectory", 3): "1ece16191c1dee6bc9d99ad880b784a83ea9ab41c65681473683e74bba59f42c",
    ("s386", "trajectory", 3): "34b35ec31025984434dd216a7981ba43295bff696e0baa7ceddfcd5510d717c1",
    ("tav", "trajectory", 2): "81d19f3976c99ee480abfc50f4e1434d5ef2471e1913e2b1a7f1ff50c748c210",
    ("traffic", "trajectory", 2): "2b6a71b0198e41f3e0d7d31ad17d57fac02596c6215ed811e4b6f026ba488149",
    ("dk512", "checker", 3): "4769629c569e7df5415e6ec33748bea770b4e0603e4face097fc7d1f72b33041",
    ("dk16", "checker", 2): "43f8f290835b97fde3967dec8b3566ae93d956b9aa592527840e15dd9eaeeef3",
    ("s386", "checker", 2): "33e777742408857abc9ebb57b04d39e2934d6236dec3e40ed9828a1742e7cd8f",
}


@pytest.mark.slow
@pytest.mark.parametrize("circuit,semantics,latency", sorted(DIGESTS))
def test_certificate_is_byte_identical(circuit, semantics, latency):
    certificate = verify_exhaustive(
        circuit, ExhaustiveConfig(latency=latency, semantics=semantics)
    )
    digest = hashlib.sha256(certificate_json(certificate).encode()).hexdigest()
    assert digest == DIGESTS[(circuit, semantics, latency)]
