"""Content-addressed on-disk artifact cache.

Every expensive artifact of the CED flow — synthesized netlists, extracted
detectability tables, Algorithm-1 solve results, assembled Table-1 rows —
is a pure function of its inputs: the FSM, the ``TableConfig``/
``SolveConfig`` knobs, the seed and the code version.  This module hashes
those inputs into a stable *fingerprint* and stores the pickled artifact
under it, so a campaign never recomputes what any earlier run (same
process or not) has already computed.

Layout::

    <cache_dir>/<stage>/<hh>/<fingerprint>.pkl

where ``stage`` names the pipeline step (``synthesis``, ``tables``,
``solve``, ``row``, …) and ``hh`` is the first two hex digits of the
fingerprint (keeps directories small).  Writes are atomic (temp file +
``os.replace``), so concurrent workers sharing a cache directory can only
ever observe complete entries.  A corrupted or truncated entry is treated
as a miss and quietly replaced, never an error.

Keys include :data:`CACHE_SALT` (package version + schema revision): any
release that changes artifact semantics invalidates old entries rather
than replaying them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Union

import numpy as np

from repro.runtime.trace import current_tracer

#: Bump ``SCHEMA`` whenever the meaning or layout of cached artifacts
#: changes; the package version covers everything else.  Revision 2: the
#: bit-parallel simulation kernel replaced the uint8 evaluator — results
#: are bit-identical by design, but the bump guarantees uint8-era entries
#: can never mask a kernel regression.  Revision 3: table extraction went
#: incremental and grew a derived ``tables-state`` stage holding pickled
#: :class:`~repro.core.detectability.ExtractionState` frontiers; the bump
#: keeps pre-incremental entries from ever being replayed against the new
#: extension path.  Revision 4: fault collapsing became sound (output-tap
#: nets are no longer treated as fanout-free) and behavior-exact
#: (signature classes), changing the fault lists, tables, certificates
#: and extraction states embedded in every stage.  Revision 5:
#: :class:`~repro.core.search.SolveResult` grew warm-start provenance
#: (``incumbent_accepted``) and ``solve`` keys gained a knowledge-base
#: incumbent dimension; the bump keeps pre-knowledge pickles from ever
#: resolving attribute lookups against the new field set.  The pickled
#: ``tables-state`` layout has its own revision,
#: :data:`~repro.core.detectability.STATE_SCHEMA` (3: one packed
#: suffix table per depth); a stored state of another revision is
#: rebuilt, not replayed.
SCHEMA = 5


def _cache_salt() -> str:
    from repro import __version__

    return f"repro-{__version__}-schema{SCHEMA}"


#: Wire-safe entry coordinates.  The cache-peer protocol
#: (``GET /cache/<stage>/<key>``, :mod:`repro.service.peering`) embeds
#: stage and key in URL paths, so both are validated against these before
#: any filesystem access — a malicious or buggy peer can never turn a
#: fetch into path traversal.
STAGE_RE = re.compile(r"^[a-z][a-z0-9_-]{0,63}$")
KEY_RE = re.compile(r"^[0-9a-f]{64}$")


def valid_entry_coords(stage: str, key: str) -> bool:
    """True when ``stage``/``key`` are safe to splice into a cache path."""
    return bool(STAGE_RE.fullmatch(stage)) and bool(KEY_RE.fullmatch(key))


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def _feed(hasher: "hashlib._Hash", obj: Any) -> None:
    """Feed a canonical token stream for ``obj`` into ``hasher``.

    Handles the types that appear in flow inputs: dataclasses (compared
    fields only, in declaration order), numpy arrays (dtype, shape, raw
    bytes), primitives, and the standard containers.  Dict/set iteration
    order never leaks into the digest.
    """
    if obj is None:
        hasher.update(b"N;")
    elif isinstance(obj, bool):
        hasher.update(b"b1;" if obj else b"b0;")
    elif isinstance(obj, int):
        hasher.update(b"i" + str(obj).encode() + b";")
    elif isinstance(obj, float):
        hasher.update(b"f" + repr(obj).encode() + b";")
    elif isinstance(obj, str):
        encoded = obj.encode()
        hasher.update(b"s" + str(len(encoded)).encode() + b":" + encoded + b";")
    elif isinstance(obj, bytes):
        hasher.update(b"y" + str(len(obj)).encode() + b":" + obj + b";")
    elif isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        hasher.update(
            b"a" + str(data.dtype).encode() + str(data.shape).encode() + b":"
        )
        hasher.update(data.tobytes())
        hasher.update(b";")
    elif isinstance(obj, np.generic):
        _feed(hasher, obj.item())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        hasher.update(b"D" + type(obj).__qualname__.encode() + b"{")
        for fld in dataclasses.fields(obj):
            if not fld.compare:  # derived caches, e.g. FSM._by_state
                continue
            hasher.update(fld.name.encode() + b"=")
            _feed(hasher, getattr(obj, fld.name))
        hasher.update(b"};")
    elif isinstance(obj, (list, tuple)):
        hasher.update(b"l" if isinstance(obj, list) else b"t")
        hasher.update(b"[")
        for item in obj:
            _feed(hasher, item)
        hasher.update(b"];")
    elif isinstance(obj, dict):
        hasher.update(b"d{")
        for key in sorted(obj, key=repr):
            _feed(hasher, key)
            hasher.update(b":")
            _feed(hasher, obj[key])
        hasher.update(b"};")
    elif isinstance(obj, (set, frozenset)):
        hasher.update(b"S{")
        for item in sorted(obj, key=repr):
            _feed(hasher, item)
        hasher.update(b"};")
    else:
        raise TypeError(
            f"cannot fingerprint {type(obj).__qualname__!r}; "
            "pass primitives, dataclasses, numpy arrays or containers"
        )


def fingerprint(*parts: Any) -> str:
    """Stable hex digest of a tuple of flow inputs (salted by version)."""
    hasher = hashlib.sha256()
    _feed(hasher, _cache_salt())
    for part in parts:
        _feed(hasher, part)
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Counters of one cache instance plus the on-disk footprint."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0
    entries: int = 0
    bytes: int = 0
    stages: dict[str, int] = field(default_factory=dict)
    stage_hits: dict[str, int] = field(default_factory=dict)
    stage_misses: dict[str, int] = field(default_factory=dict)

    def format(self) -> str:
        lines = [
            f"entries {self.entries}  ({self.bytes / 1e6:.1f} MB on disk)",
            f"session: {self.hits} hits / {self.misses} misses / "
            f"{self.puts} writes / {self.corrupt} corrupt",
        ]
        touched = sorted(
            set(self.stages) | set(self.stage_hits) | set(self.stage_misses)
        )
        for stage in touched:
            count = self.stages.get(stage, 0)
            hits = self.stage_hits.get(stage, 0)
            misses = self.stage_misses.get(stage, 0)
            reuse = (
                f"  ({hits} reused / {misses} computed)"
                if hits or misses
                else ""
            )
            lines.append(f"  {stage:12s} {count} entries{reuse}")
        return "\n".join(lines)


class NullCache:
    """A cache that never stores anything (``--no-cache``)."""

    def get(self, stage: str, key: str) -> tuple[bool, Any]:
        return False, None

    def put(self, stage: str, key: str, value: Any) -> None:
        pass

    def stats(self) -> CacheStats:
        return CacheStats()

    def counters(self) -> tuple[int, int]:
        return 0, 0

    def stage_counters(self) -> tuple[dict[str, int], dict[str, int]]:
        return {}, {}


class ArtifactCache:
    """Content-addressed pickle store with atomic writes.

    ``get`` distinguishes "present" from "absent" explicitly (a cached
    value may legitimately be ``None``); unpicklable garbage on disk —
    truncated files, foreign bytes, version skew — counts as a miss, and
    the entry is removed so the fresh value replaces it.
    """

    def __init__(self, cache_dir: str | os.PathLike[str]) -> None:
        self.cache_dir = Path(cache_dir).expanduser()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._corrupt = 0
        self._stage_hits: dict[str, int] = {}
        self._stage_misses: dict[str, int] = {}

    # -- keying --------------------------------------------------------
    def _path(self, stage: str, key: str) -> Path:
        return self.cache_dir / stage / key[:2] / f"{key}.pkl"

    # -- store ---------------------------------------------------------
    def get(self, stage: str, key: str) -> tuple[bool, Any]:
        """(found, value); corrupted entries are misses, never errors."""
        path = self._path(stage, key)
        try:
            payload = path.read_bytes()
        except OSError:
            self._miss(stage)
            return False, None
        try:
            value = pickle.loads(payload)
        except Exception:
            self._corrupt += 1
            self._miss(stage)
            current_tracer().event("cache.corrupt", stage=stage)
            try:
                path.unlink()
            except OSError:
                pass
            return False, None
        self._hits += 1
        self._stage_hits[stage] = self._stage_hits.get(stage, 0) + 1
        return True, value

    def _miss(self, stage: str) -> None:
        self._misses += 1
        self._stage_misses[stage] = self._stage_misses.get(stage, 0) + 1

    def put(self, stage: str, key: str, value: Any) -> None:
        path = self._path(stage, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                pickle.dump(value, stream, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        finally:
            # A serialization failure between mkstemp and os.replace must
            # not strand the temp file in the cache directory; after a
            # successful replace the name is gone and unlink is a no-op.
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        self._puts += 1

    # -- raw transport (cache-peer protocol) ---------------------------
    def read_entry_bytes(self, stage: str, key: str) -> bytes | None:
        """The pickled bytes of one entry, or ``None`` when absent.

        This is the serving side of the cache-peer protocol: a daemon
        answers ``GET /cache/<stage>/<key>`` with exactly these bytes, so
        a peer that stores them holds a bit-identical replica of the
        artifact.  Coordinates are validated (never spliced into a path
        unchecked) and the read counts as neither hit nor miss — peer
        traffic must not distort this instance's own reuse counters.
        """
        if not valid_entry_coords(stage, key):
            return None
        try:
            return self._path(stage, key).read_bytes()
        except OSError:
            return None

    def write_entry_bytes(self, stage: str, key: str, payload: bytes) -> bool:
        """Store raw pickled bytes fetched from a peer (atomic, like put).

        The bytes are *not* unpickled here — the caller decides whether
        they deserialize (a corrupt transfer then simply behaves like any
        corrupt entry: a miss that gets replaced).  Returns False for
        invalid coordinates instead of raising, so a bad peer response
        degrades to a miss rather than an error.
        """
        if not valid_entry_coords(stage, key):
            return False
        path = self._path(stage, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(payload)
            os.replace(tmp_name, path)
        finally:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        self._puts += 1
        return True

    # -- maintenance ---------------------------------------------------
    def _entries(self) -> Iterator[Path]:
        if not self.cache_dir.is_dir():
            return
        yield from self.cache_dir.glob("*/??/*.pkl")

    def stats(self) -> CacheStats:
        stats = CacheStats(
            hits=self._hits,
            misses=self._misses,
            puts=self._puts,
            corrupt=self._corrupt,
            stage_hits=dict(self._stage_hits),
            stage_misses=dict(self._stage_misses),
        )
        for path in self._entries():
            stats.entries += 1
            try:
                stats.bytes += path.stat().st_size
            except OSError:
                continue
            stage = path.parent.parent.name
            stats.stages[stage] = stats.stages.get(stage, 0) + 1
        return stats

    def counters(self) -> tuple[int, int]:
        """(hits, misses) so far — cheap snapshot for per-job deltas."""
        return self._hits, self._misses

    def stage_counters(self) -> tuple[dict[str, int], dict[str, int]]:
        """(per-stage hits, per-stage misses) snapshots for reuse deltas."""
        return dict(self._stage_hits), dict(self._stage_misses)

    def purge(self, stage: str | None = None) -> int:
        """Delete all entries (or one stage's); returns the count removed."""
        removed = 0
        for path in list(self._entries()):
            if stage is not None and path.parent.parent.name != stage:
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed


Cache = Union[ArtifactCache, NullCache]


def open_cache(
    cache_dir: str | os.PathLike[str] | None, enabled: bool = True
) -> Cache:
    """The standard way to honour ``--cache-dir``/``--no-cache`` flags.

    ``None`` falls back to ``$REPRO_CACHE_DIR``, then to
    ``~/.cache/repro-ced``.
    """
    if not enabled:
        return NullCache()
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or "~/.cache/repro-ced"
    return ArtifactCache(cache_dir)


def cached_call(
    cache: Cache, stage: str, key: str, compute: Callable[[], Any]
) -> tuple[Any, bool]:
    """(value, was_cached) — fetch or compute-and-store one artifact."""
    found, value = cache.get(stage, key)
    tracer = current_tracer()
    if tracer.enabled and not isinstance(cache, NullCache):
        tracer.event("cache", stage=stage, hit=found)
    if found:
        return value, True
    value = compute()
    cache.put(stage, key, value)
    return value, False
