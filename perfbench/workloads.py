"""The two fixed-work workloads.

Every workload is a closed loop with one client: the next op starts only
after the previous one returned.  Its op list is fixed by ``--seconds``
(how many ops) and ordered by ``--seed``; the machines themselves come
from a fixed seed range, so every run of a workload does the same work
and every work and quality count repeats exactly, whatever the seed.
Only serve-warm's hot-cache hits (``service.hot_share``, the disk-cache
hit and miss deltas) follow the order, so they move with the seed.

The program is reached only through public entry points
(``design_ced_sweep``, ``verify_exhaustive`` with an ``ArtifactCache``,
and a ``repro-ced serve`` daemon driven by ``ServiceClient``), and it only
ever receives the generated machines or queries.  ``repro`` is imported
inside :meth:`setup`, so set-up time includes the imports.
"""

from __future__ import annotations

import json
import math
import os
import queue
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable

from stats import uncovered_rows

#: One narrow size band per workload, so no median sits between two
#: clusters of op times.  Cold designs of these Table-1 signatures all take
#: a few hundred milliseconds, with the signatures interleaved.  A warm
#: served request is mostly the hardware rebuild, whose cost clusters by
#: signature (dk512 about 23 ms, s27 and tav 30-35 ms), so serve-warm
#: keeps to one signature.
SIGNATURES = {
    "design-certify-cold": ("s27", "dk512", "tav"),
    "serve-warm": ("dk512",),
}

#: Ops per second of ``--seconds`` — sets the fixed op count of a run.
#: The cold workload's timed phase is about as long as ``--seconds``;
#: serve-warm, whose set-up costs more, gets about two thirds of it.
NOMINAL_RATE = {"design-certify-cold": 1.5, "serve-warm": 40.0}

#: First machine seed of each workload; the warm-up machine is the seed
#: just below the range, so it is never one of the timed ops.
SEED_BASE = {"design-certify-cold": 10_000, "serve-warm": 30_000}

CERTIFY_LATENCIES = (1, 2, 3, 4)
TABLE1_LATENCIES = (1, 2, 3)
SERVE_MACHINES = 10
SERVE_LATENCIES = (1, 2, 3)
#: About a quarter of the 30-query working set, so hot-cache hits stay
#: well under half of the requests and the median is a computed request.
SERVE_HOT_CACHE = 8

#: Enough ops that ``op_tail_ms`` has a percentile with 10 samples beyond.
MIN_OPS = 30


def op_count(workload: str, seconds: int) -> int:
    return max(MIN_OPS, round(seconds * NOMINAL_RATE[workload]))


def machines(workload: str, count: int) -> list[tuple[str, int]]:
    """The fixed machine set: (signature, generator seed) pairs."""
    base, names = SEED_BASE[workload], SIGNATURES[workload]
    return [(names[i % len(names)], base + i) for i in range(count)]


def warmup_machine(workload: str) -> tuple[str, int]:
    return (SIGNATURES[workload][0], SEED_BASE[workload] - 1)


def op_list(workload: str, seconds: int, seed: int) -> list[Any]:
    """The run's ops, in order.  Same arguments, same list."""
    rng = random.Random(f"{workload}/{seed}")
    count = op_count(workload, seconds)
    if workload == "serve-warm":
        queries = serve_queries()
        repeats = max(1, round(count / len(queries)))
        ops = [query for query in queries for _ in range(repeats)]
    else:
        ops = machines(workload, count)
    rng.shuffle(ops)
    return ops


def serve_queries() -> list[tuple[str, int, int]]:
    """(signature, machine seed, latency) for every distinct served query."""
    return [
        (name, machine_seed, latency)
        for name, machine_seed in machines("serve-warm", SERVE_MACHINES)
        for latency in SERVE_LATENCIES
    ]


#: Timed ops run on one CPU at a time, taking the CPUs in turn, a block
#: of ops each.  On a shared host one vCPU can run a third slower than the
#: other for minutes, and a process left alone stays on one of them, so
#: whole runs came out fast or slow by where they landed.  Taking turns
#: gives every run the same share of each CPU.
CPUS = sorted(os.sched_getaffinity(0))


def pin(pids: list[int], cpu: int | None) -> None:
    """Bind every thread of ``pids`` to ``cpu`` (``None``: all of :data:`CPUS`)."""
    cpus = set(CPUS) if cpu is None else {cpu}
    for pid in pids:
        for task in Path(f"/proc/{pid}/task").glob("*"):
            try:
                os.sched_setaffinity(int(task.name), cpus)
            except OSError:  # the thread has just ended
                continue


class Workload:
    """setup() → op(item) per timed op → finish() → check(outputs)."""

    name = ""
    #: Timed ops per turn on one CPU (see :data:`CPUS`).
    cpu_block = 1

    def __init__(self, root: Path, scratch: Path, seconds: int, seed: int) -> None:
        self.root = root
        self.scratch = scratch
        self.items = op_list(self.name, seconds, seed)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, item: Any) -> Any:
        raise NotImplementedError

    def processes(self) -> list[int]:
        """Processes that do the timed work."""
        return [os.getpid()]

    def place(self, index: int) -> None:
        """Move the timed work to its CPU before op ``index``."""
        if len(CPUS) > 1 and index % self.cpu_block == 0:
            pin(self.processes(), CPUS[index // self.cpu_block % len(CPUS)])

    def finish(self) -> dict[str, float]:
        """End the timed phase; returns extra measurements (e.g. RSS)."""
        return {}

    def check(self, outputs: list[Any]) -> "CheckResult":
        raise NotImplementedError

    def trace(self, recorder: Any) -> Callable[[], None]:
        """Install this workload's span wrappers; returns the undo function."""
        from spans import install

        return install(recorder)

    def layer_metrics(self, recorder: Any) -> dict[str, float]:
        """Per-layer metrics only this workload can measure."""
        return {}

    def close(self) -> None:
        """Release everything set-up acquired; safe to call twice."""


class CheckResult:
    """Which ops passed their output checks, plus the quality totals."""

    def __init__(self, count: int) -> None:
        self.ok = [True] * count
        self.parity_bits = 0
        self.costs: list[float] = []
        self.escaped_faults = 0
        self.notes: list[str] = []

    def fail(self, index: int, why: str) -> None:
        if self.ok[index] and len(self.notes) < 20:
            self.notes.append(f"op {index}: {why}")
        self.ok[index] = False

    @property
    def ced_cost(self) -> float:
        return math.fsum(self.costs)


# ----------------------------------------------------------------------
# design-certify-cold
# ----------------------------------------------------------------------
class DesignCertifyCold(Workload):
    """Per machine: the Table-1 flow, then certificates at p = 1..4.

    The Table-1 half (``design_ced_sweep``, trajectory semantics, no
    cache) is where solve-side work shows; the certification half
    (``verify_exhaustive`` into one ``ArtifactCache`` that starts empty)
    is where cache writes, incremental extraction, fault selection and
    the exhaustive engine show.  One op does both, so a run of the
    contract's length holds enough of each to be steady.
    """

    name = "design-certify-cold"

    def setup(self) -> None:
        from repro.core.search import SolveConfig
        from repro.flow import design_ced, design_ced_sweep
        from repro.fsm.benchmarks import load_benchmark
        from repro.runtime.cache import ArtifactCache, NullCache
        from repro.verification.certificate import validate_certificate
        from repro.verification.exhaustive import ExhaustiveConfig, verify_exhaustive

        self._sweep = design_ced_sweep
        self._null = NullCache
        self._verify = verify_exhaustive
        self._config = ExhaustiveConfig
        self._design = design_ced
        self._solve_config = SolveConfig
        self._validate = validate_certificate
        self.fsms = {item: load_benchmark(*item) for item in self.items}
        self.cache = ArtifactCache(self.scratch / "warmup-cache")
        self.op(load_benchmark(*warmup_machine(self.name)))
        self.cache = ArtifactCache(self.scratch / "cache")

    def trace(self, recorder: Any) -> Callable[[], None]:
        from spans import wrap_cache

        restore_sites = super().trace(recorder)
        restore_cache = wrap_cache(recorder, self.cache)

        def restore() -> None:
            restore_cache()
            restore_sites()

        return restore

    def op(self, item: Any) -> Any:
        fsm = self.fsms[item] if isinstance(item, tuple) else item
        designs = self._sweep(
            fsm, latencies=list(TABLE1_LATENCIES), semantics="trajectory",
            max_faults=800, multilevel=True, cache=self._null(),
        )
        certificates = [
            self._verify(fsm, self._config(latency=latency), cache=self.cache)
            for latency in CERTIFY_LATENCIES
        ]
        return designs, certificates

    def table(self, fsm: Any, latency: int) -> Any:
        """The detectability table a certificate's design was solved on.

        Same arguments as the certificate's own design, so it comes from
        the run's cache; must run before the cache directory is removed.
        """
        config = self._config(latency=latency)
        return self._design(
            fsm, latency=latency, semantics=config.semantics,
            encoding=config.encoding, max_faults=config.max_faults,
            solve_config=self._solve_config(seed=config.seed),
            multilevel=config.multilevel, cache=self.cache,
        ).table

    def check(self, outputs: list[Any]) -> CheckResult:
        result = CheckResult(len(outputs))
        for index, output in enumerate(outputs):
            if output is None:
                result.fail(index, "op raised")
                continue
            designs, certificates = output
            self._check_designs(result, index, designs)
            self._check_certificates(result, index, certificates)
        return result

    @staticmethod
    def _check_designs(result: CheckResult, index: int, designs: Any) -> None:
        # Trajectory designs promise nothing about hardware detection, so
        # they are never run through the exhaustive engine; each β set
        # must cover its own table.
        for latency in TABLE1_LATENCIES:
            design = designs[latency]
            betas = [int(beta) for beta in design.solve_result.betas]
            missed = uncovered_rows(design.table.rows.tolist(), betas)
            if missed or design.num_parity_bits != len(betas):
                result.fail(index, f"Table-1 p={latency}: {missed} rows uncovered")
            result.parity_bits += design.num_parity_bits
            result.costs.append(float(design.cost))

    def _check_certificates(self, result: CheckResult, index: int,
                            certificates: list[Any]) -> None:
        fsm = self.fsms[self.items[index]]
        for latency, certificate in zip(CERTIFY_LATENCIES, certificates):
            try:
                self._validate(certificate)
            except ValueError as error:
                result.fail(index, f"invalid certificate: {error}")
                continue
            if certificate["mode"] != "exhaustive":
                result.fail(index, f"mode {certificate['mode']!r}")
            betas = [int(beta) for beta in certificate["design"]["betas"]]
            missed = uncovered_rows(self.table(fsm, latency).rows.tolist(), betas)
            if missed or int(certificate["design"]["q"]) != len(betas):
                result.fail(index, f"certificate p={latency}: {missed} rows uncovered")
            # Checker designs may legitimately escape (a soundness
            # signal, not an op failure).
            result.escaped_faults += int(certificate["faults"]["escaped"])
            result.parity_bits += int(certificate["design"]["q"])
            result.costs.append(float(certificate["design"]["cost"]))


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------
_LISTENING = re.compile(r"listening on (\S+)")
_BUSY = (429, 503)


class ServeWarm(Workload):
    """One daemon (one pool worker), disk cache filled, hot cache ~1/4."""

    name = "serve-warm"
    #: Client, daemon and worker move together, so a request never waits
    #: on a wake-up from the other CPU.
    cpu_block = 50

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.process: subprocess.Popen | None = None
        self._reader: threading.Thread | None = None
        self.retries = 0
        self.rejections = 0
        self.reference: dict[tuple[str, int, int], bytes] = {}
        self.stats_before: dict = {}
        self.stats_after: dict = {}

    @staticmethod
    def payload(query: tuple[str, int, int]) -> dict:
        name, machine_seed, latency = query
        return {"circuit": name, "seed": machine_seed, "latency": latency}

    def setup(self) -> None:
        from repro.service.client import ServiceClient

        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        # Keep the daemon's knowledge-store reads inside the checkout.
        env["REPRO_KNOWLEDGE"] = str(self.scratch / "knowledge.jsonl")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", "1",
             "--hot-cache-size", str(SERVE_HOT_CACHE),
             "--cache-dir", str(self.scratch / "cache")],
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        lines: queue.Queue[str | None] = queue.Queue()

        def pump() -> None:
            assert self.process is not None and self.process.stdout is not None
            for line in self.process.stdout:
                lines.put(line)
            lines.put(None)

        self._reader = threading.Thread(target=pump, daemon=True)
        self._reader.start()
        address = None
        while address is None:
            line = lines.get(timeout=120)
            if line is None:
                raise RuntimeError("daemon exited before listening")
            match = _LISTENING.search(line)
            address = match.group(1) if match else None
        self.client = ServiceClient(address, timeout=120)
        if not self.client.ping(attempts=600, delay=0.1):
            raise RuntimeError(f"daemon at {address} never became healthy")
        # Fill the disk cache: every query computed once, cold.  These
        # first servings are the bytes every later serving must repeat.
        self.reference = {query: self._require_ok(query) for query in serve_queries()}
        self._require_ok(warmup_machine(self.name) + (1,))
        self.stats_before = self.client.stats()

    def _require_ok(self, query: tuple[str, int, int]) -> bytes:
        status, body = self.op(query)
        if status != 200:
            raise RuntimeError(f"set-up query {query} failed: {status} {body[:200]!r}")
        return split_envelope(body)[1]

    def trace(self, recorder: Any) -> Callable[[], None]:
        # The program runs in the daemon, so only the client call is wrapped.
        request_raw = self.client.request_raw

        def traced(method: str, path: str, payload: dict | None = None):
            recorder.calls["ServiceClient.request_raw"] += 1
            index = recorder.begin("service.rtt")
            try:
                return request_raw(method, path, payload)
            finally:
                recorder.end(index)

        self.client.request_raw = traced
        return lambda: delattr(self.client, "request_raw")

    def layer_metrics(self, recorder: Any) -> dict[str, float]:
        """Client-side RTT against the daemon's own ``meta.elapsed_ms``."""
        last_rtt: dict[int, float] = {}
        for name, start, end, parent in recorder.spans:
            if name == "service.rtt":
                last_rtt[parent] = (end - start) * 1000.0
        op_spans = [i for i, span in enumerate(recorder.spans) if span[0] == "op"]
        rtts, hops, hot_ms, computed_ms = [], [], [], []
        for op_index, meta in zip(op_spans, self.meta):
            rtt = last_rtt.get(op_index)
            if rtt is None or meta is None:
                continue
            rtts.append(rtt)
            hops.append(rtt - meta["elapsed_ms"])
            (hot_ms if meta["hot_cache"] else computed_ms).append(meta["elapsed_ms"])
        before = self.stats_before["disk_cache"]
        after = self.stats_after["disk_cache"]
        return {
            "service.rtt_ms": _median(rtts),
            "service.hop_ms": _median(hops),
            "service.daemon_hot_ms": _median(hot_ms),
            "service.daemon_computed_ms": _median(computed_ms),
            "service.hot_share": len(hot_ms) / len(self.meta),
            "service.disk_hits": after["hits"] - before["hits"],
            "service.disk_misses": after["misses"] - before["misses"],
            "service.retries": self.retries,
            "service.rejections": self.rejections,
        }

    def op(self, query: Any) -> tuple[int, bytes]:
        for attempt in range(4):
            try:
                status, body = self.client.request_raw(
                    "POST", "/design", self.payload(query)
                )
            except OSError:
                status, body = 0, b""
            else:
                if status not in _BUSY:
                    return status, body
                self.rejections += 1
            if attempt < 3:
                self.retries += 1
                time.sleep(0.05 * (attempt + 1))
        return status, body

    def processes(self) -> list[int]:
        return [os.getpid()] + _process_tree(self.process.pid)

    def finish(self) -> dict[str, float]:
        self.stats_after = self.client.stats()
        rss_kb = sum(_hwm_kb(pid) for pid in _process_tree(self.process.pid))
        return {"peak_rss_mb": rss_kb / 1024.0}

    def check(self, outputs: list[Any]) -> CheckResult:
        result = CheckResult(len(outputs))
        self.meta: list[dict | None] = [None] * len(outputs)
        for index, (query, output) in enumerate(zip(self.items, outputs)):
            status, body = output if output is not None else (0, b"")
            if status != 200:
                result.fail(index, f"HTTP {status}")
                continue
            try:
                meta_bytes, result_bytes = split_envelope(body)
                meta, served = json.loads(meta_bytes), json.loads(result_bytes)
            except ValueError as error:
                result.fail(index, f"bad body: {error}")
                continue
            self.meta[index] = meta
            if result_bytes != self.reference[query]:
                result.fail(index, "result bytes differ from the cold serving")
            result.parity_bits += int(served["q"])
            result.costs.append(float(served["cost"]))
        return result

    def close(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        tree = _process_tree(process.pid)
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            for pid in reversed(tree):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            process.wait()
        if self._reader is not None:
            self._reader.join(timeout=10)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def split_envelope(body: bytes) -> tuple[bytes, bytes]:
    """(meta bytes, result bytes) of a ``{"meta":...,"result":...}`` body."""
    prefix, marker = b'{"meta":', b',"result":'
    cut = body.find(marker)
    if not body.startswith(prefix) or cut < 0 or not body.endswith(b"}"):
        raise ValueError("not a service envelope")
    return body[len(prefix):cut], body[cut + len(marker):-1]


def _process_tree(pid: int) -> list[int]:
    """``pid`` and its descendants (parents first), from ``/proc``."""
    tree = [pid]
    for parent in tree:
        for children in Path(f"/proc/{parent}/task").glob("*/children"):
            try:
                tree.extend(int(child) for child in children.read_text().split())
            except OSError:
                continue
    return tree


def _hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of one process in kB, 0 if it is gone."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
    return int(match.group(1)) if match else 0


WORKLOADS = {cls.name: cls for cls in (DesignCertifyCold, ServeWarm)}


def make_scratch(root: Path) -> Path:
    base = root / ".perfbench-out"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=base))


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
