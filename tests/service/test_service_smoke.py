"""CI lane for the design-service daemon, end to end.

Boots ``repro-ced serve`` as a real subprocess on a unix socket, then
checks the service contract:

1. ``/healthz`` answers 200/ok.
2. A ``/design`` query computes (cold), and the identical query again is
   served from the in-memory hot cache (``meta.hot_cache`` true) with a
   byte-identical ``result`` member and a warm latency under 50 ms.
3. Two concurrent identical uncached queries share one computation
   (coalesced onto the in-flight first, or served hot if scheduling
   serialised them).
4. SIGTERM drains gracefully: the daemon exits 0.

The daemon warms its own throwaway cache directory: the committed
small-circuit baseline (``benchmarks/baseline/small``) holds journals and
result tables, not artifact-cache entries.  The tests run in file order
against one daemon; the drain test stops it.

Marked ``service_smoke`` and kept out of the default run; run with

    PYTHONPATH=src python -m pytest -m service_smoke -o addopts=""
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.service.client import ServiceClient

pytestmark = pytest.mark.service_smoke

REPO = Path(__file__).resolve().parents[2]
CIRCUIT = "seqdet"
MAX_FAULTS = 60
WARM_BUDGET_MS = 50.0


def result_bytes(raw: bytes) -> bytes:
    """The ``result`` member's bytes; ``meta`` legitimately differs."""
    _prefix, sep, rest = raw.partition(b'"result":')
    assert sep, f"response has no result member: {raw[:200]!r}"
    return rest


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("service-smoke")
    socket_path = workdir / "daemon.sock"
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", str(socket_path), "--workers", "1",
         "--journal", str(workdir / "journal.jsonl")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        client = ServiceClient(f"unix:{socket_path}", timeout=600)
        if not client.ping(attempts=200, delay=0.1):
            proc.kill()
            out, _ = proc.communicate()
            pytest.fail(f"daemon never answered /healthz; output:\n{out}")
        yield proc, client
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_healthz(daemon):
    _, client = daemon
    health = client.healthz()
    assert health.get("status") == "ok", f"healthz not ok: {health}"


def test_cold_design_then_hot_replay(daemon):
    _, client = daemon
    computed_before = client.stats()["requests"]["computed"]
    params = {"circuit": CIRCUIT, "max_faults": MAX_FAULTS}
    status1, raw1 = client.request_raw("POST", "/design", params)
    assert status1 == 200, f"cold /design got {status1}: {raw1[:200]!r}"
    status2, raw2 = client.request_raw("POST", "/design", params)
    assert status2 == 200, f"hot /design got {status2}"
    meta1 = json.loads(raw1)["meta"]
    meta2 = json.loads(raw2)["meta"]
    assert meta1["hot_cache"] is False, "first serving did not compute"
    assert meta2["hot_cache"] is True, "second serving missed the hot cache"
    assert meta2["elapsed_ms"] < WARM_BUDGET_MS, (
        f"warm serve {meta2['elapsed_ms']:.3f} ms >= {WARM_BUDGET_MS} ms"
    )
    assert result_bytes(raw1) == result_bytes(raw2), (
        "hot replay differs from the computed result"
    )
    computed = client.stats()["requests"]["computed"] - computed_before
    assert computed == 1, f"{computed} computations for one query served twice"


def test_concurrent_identical_requests_coalesce(daemon):
    _, client = daemon
    computed_before = client.stats()["requests"]["computed"]
    fresh = {"circuit": CIRCUIT, "max_faults": MAX_FAULTS, "seed": 77}
    results: list[tuple[int, bytes] | None] = [None, None]

    def query(slot: int) -> None:
        results[slot] = client.request_raw("POST", "/design", fresh)

    threads = [threading.Thread(target=query, args=(slot,)) for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    statuses = [pair[0] for pair in results]
    assert statuses == [200, 200], f"concurrent queries: {statuses}"
    # Scheduling may serialize the two requests (second arrives after the
    # first finished → hot-cache hit); both outcomes share one
    # computation, which is what the stats check pins down.
    bodies = {result_bytes(pair[1]) for pair in results}
    assert len(bodies) == 1, "concurrent queries returned different results"
    computed = client.stats()["requests"]["computed"] - computed_before
    assert computed == 1, f"{computed} computations for one unique query"


def test_sigterm_drains_gracefully(daemon):
    proc, _ = daemon
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0, f"daemon exited {proc.returncode}:\n{out}"
    assert "drained:" in out, f"no drain summary:\n{out}"
