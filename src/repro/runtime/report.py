"""Render and diff run artifacts: journals, manifests, Table-1 JSON.

``repro-ced report`` is the read side of the observability stack.  A
*run* is a directory (or loose files) holding any subset of:

* ``journal.jsonl``  — the traced run journal (``repro.runtime.trace``);
* ``manifest.json``  — the campaign manifest (``repro.runtime.campaign``);
* ``table1.json``    — machine-readable Table-1 results
  (``repro.experiments.report``);
* ``certificate.json`` — a bounded-latency verification certificate
  (``repro.verification.certificate``, ``docs/certificate-schema.md``).

``summarize_run`` renders whatever is present as a human-readable
summary: per-job status/attempts/timeouts, per-stage wall time, solver
counters rolled up from journal events (LP solves and iterations,
rounding acceptance, cache hit rates) and the result rows.

``diff_runs`` compares two runs and emits :class:`Finding` records for
regressions — the CI trend lane runs it against a committed baseline.
Thresholds, deliberately asymmetric to the metric's noise floor:

* ``q`` (parity-tree count) — any change is reported (it is the paper's
  headline integer; there is no noise);
* ``cost`` — relative change beyond :data:`COST_REL_THRESHOLD` (1%);
* runtime — relative change beyond :data:`RUNTIME_REL_THRESHOLD` (25%;
  wall time on shared CI runners is noisy, so only large swings are
  flagged, and only ever as non-blocking warnings).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.runtime.trace import read_journal
from repro.util.tables import format_table

#: Relative cost change below this is considered noise (re-synthesis of
#: an identical q can shuffle literals slightly across tool versions).
COST_REL_THRESHOLD = 0.01
#: Relative wall-time change below this is considered scheduler noise.
RUNTIME_REL_THRESHOLD = 0.25
#: Runtimes shorter than this are never diffed (a 0.1s→0.2s "2x
#: regression" is pure noise).
RUNTIME_MIN_SECONDS = 1.0


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
@dataclass
class RunData:
    """Everything loadable from one run directory (all parts optional)."""

    label: str
    journal: list[dict] | None = None
    manifest: dict | None = None
    table: dict | None = None
    certificate: dict | None = None

    @property
    def empty(self) -> bool:
        return (
            self.journal is None
            and self.manifest is None
            and self.table is None
            and self.certificate is None
        )


def load_run(path: str | Path, label: str | None = None) -> RunData:
    """Load a run from a directory or from a single artifact file.

    Directories are probed for the three well-known file names; a single
    file is classified by suffix and content.  Raises ``ValueError`` when
    nothing recognisable is found.
    """
    path = Path(path)
    run = RunData(label=label or str(path))
    if path.is_dir():
        journal = path / "journal.jsonl"
        manifest = path / "manifest.json"
        table = path / "table1.json"
        certificate = path / "certificate.json"
        if journal.is_file():
            run.journal = read_journal(journal)
        if manifest.is_file():
            run.manifest = json.loads(manifest.read_text())
        if table.is_file():
            run.table = json.loads(table.read_text())
        if certificate.is_file():
            run.certificate = json.loads(certificate.read_text())
    elif path.is_file():
        _classify_file(path, run)
    else:
        raise ValueError(f"{path}: no such file or directory")
    if run.empty:
        raise ValueError(
            f"{path}: no journal.jsonl / manifest.json / table1.json / "
            "certificate.json found"
        )
    return run


def _classify_file(path: Path, run: RunData) -> None:
    if path.suffix == ".jsonl":
        run.journal = read_journal(path)
        return
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a run artifact")
    if "rows" in payload and "config" in payload:
        run.table = payload
    elif "jobs" in payload and "totals" in payload:
        run.manifest = payload
    elif payload.get("kind") == "bounded-latency-certificate":
        run.certificate = payload
    else:
        raise ValueError(f"{path}: not a recognised run artifact")


# ----------------------------------------------------------------------
# Journal roll-up
# ----------------------------------------------------------------------
def journal_rollup(records: list[dict]) -> dict:
    """Aggregate a journal's records into summary counters."""
    rollup: dict[str, Any] = {
        "header": records[0],
        "jobs": [],
        "summary": None,
        "lp_solves": 0,
        "lp_iterations": 0,
        "lp_failures": 0,
        "proved_infeasible": 0,
        "rounding_attempts": 0,
        "rounding_successes": 0,
        "quick_rejects": 0,
        "greedy_calls": 0,
        "cache_hits": 0,
        "cache_misses": 0,
        "cache_corrupt": 0,
        "timeouts": 0,
        "timeout_unarmed_jobs": 0,
        "stage_seconds": {},
        "spans": {},
    }
    for record in records[1:]:
        kind = record.get("type")
        if kind == "job":
            rollup["jobs"].append(record)
            rollup["timeouts"] += record.get("timeouts", 0)
            if record.get("timeout_armed") is False:
                rollup["timeout_unarmed_jobs"] += 1
        elif kind == "summary":
            rollup["summary"] = record
        elif kind == "span":
            name = record["name"]
            entry = rollup["spans"].setdefault(name, {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += record.get("dt", 0.0)
            if name == "search.q" and record.get("attrs", {}).get(
                "outcome"
            ) == "proved-infeasible":
                rollup["proved_infeasible"] += 1
            elif name.startswith("stage."):
                stage = name[len("stage."):]
                rollup["stage_seconds"][stage] = (
                    rollup["stage_seconds"].get(stage, 0.0) + record.get("dt", 0.0)
                )
        elif kind == "event":
            _fold_event(rollup, record)
    return rollup


def _fold_event(rollup: dict, record: dict) -> None:
    name = record.get("name")
    attrs = record.get("attrs", {})
    if name == "lp.solve":
        rollup["lp_solves"] += 1
        rollup["lp_iterations"] += attrs.get("iterations", 0) or 0
        if attrs.get("status") != "optimal":
            rollup["lp_failures"] += 1
    elif name == "rounding":
        rollup["rounding_attempts"] += attrs.get("attempts", 0)
        rollup["quick_rejects"] += attrs.get("quick_rejects", 0)
        if attrs.get("success"):
            rollup["rounding_successes"] += 1
    elif name == "greedy.cover":
        rollup["greedy_calls"] += 1
    elif name == "cache":
        if attrs.get("hit"):
            rollup["cache_hits"] += 1
        else:
            rollup["cache_misses"] += 1
    elif name == "cache.corrupt":
        rollup["cache_corrupt"] += 1


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def summarize_run(run: RunData) -> str:
    """Human-readable multi-section summary of one run."""
    sections: list[str] = [f"run: {run.label}"]
    if run.journal is not None:
        sections.append(_summarize_journal(run.journal))
    if run.manifest is not None:
        sections.append(_summarize_manifest(run.manifest))
    if run.table is not None:
        sections.append(_summarize_table(run.table))
    if run.certificate is not None:
        sections.append(_summarize_certificate(run.certificate))
    return "\n\n".join(sections)


def _summarize_certificate(certificate: dict) -> str:
    from repro.verification.certificate import render_certificate

    try:
        return "certificate:\n" + render_certificate(certificate)
    except KeyError as error:  # stale/foreign file: show, don't crash
        return f"certificate: unreadable (missing key {error})"


def _summarize_journal(records: list[dict]) -> str:
    rollup = journal_rollup(records)
    header = rollup["header"]
    lines = [
        f"journal: {header.get('name', '?')} "
        f"(schema {header.get('schema')}, {header.get('tool', '?')}, "
        f"{header.get('created', '?')})"
    ]
    if rollup["jobs"]:
        rows = [
            [
                job.get("name", "?"),
                job.get("status", "?"),
                job.get("attempts", 0),
                job.get("timeouts", 0),
                _armed_cell(job.get("timeout_armed")),
                f"{job.get('seconds', 0.0):.2f}",
                f"{job.get('wait_seconds', 0.0):.2f}",
                f"{job.get('cache_hits', 0)}/{job.get('cache_misses', 0)}",
            ]
            for job in rollup["jobs"]
        ]
        lines.append(format_table(
            ["Job", "Status", "Att", "T/O", "Armed", "Secs", "Wait", "Cache h/m"],
            rows,
        ))
    solver = (
        f"solver: {rollup['lp_solves']} LP solves "
        f"({rollup['lp_iterations']} simplex iterations, "
        f"{rollup['lp_failures']} infeasible/failed), "
        f"{rollup['proved_infeasible']} probes proved infeasible, "
        f"{rollup['rounding_attempts']} rounding attempts "
        f"({rollup['rounding_successes']} successful calls, "
        f"{rollup['quick_rejects']} quick-filter rejects), "
        f"{rollup['greedy_calls']} greedy covers"
    )
    lines.append(solver)
    if rollup["cache_hits"] or rollup["cache_misses"] or rollup["cache_corrupt"]:
        lines.append(
            f"cache: {rollup['cache_hits']} hits / "
            f"{rollup['cache_misses']} misses / "
            f"{rollup['cache_corrupt']} corrupt"
        )
    if rollup["stage_seconds"]:
        parts = [
            f"{stage} {seconds:.2f}s"
            for stage, seconds in sorted(
                rollup["stage_seconds"].items(), key=lambda kv: -kv[1]
            )
        ]
        lines.append("stage time: " + ", ".join(parts))
    if rollup["timeout_unarmed_jobs"]:
        lines.append(
            f"WARNING: {rollup['timeout_unarmed_jobs']} job(s) requested a "
            "timeout that could not be enforced (SIGALRM unavailable)"
        )
    return "\n".join(lines)


def _armed_cell(armed: bool | None) -> str:
    if armed is None:
        return "-"
    return "yes" if armed else "NO"


def _summarize_manifest(manifest: dict) -> str:
    totals = manifest.get("totals", {})
    lines = [
        f"manifest: campaign {manifest.get('campaign', '?')!r} "
        f"({manifest.get('created', '?')})",
        f"  {totals.get('ok', 0)} ok / {totals.get('degraded', 0)} degraded / "
        f"{totals.get('failed', 0)} failed "
        f"in {totals.get('wall_seconds', 0.0):.1f}s wall "
        f"({totals.get('job_seconds', 0.0):.1f}s job time)",
    ]
    if totals.get("timeouts"):
        lines.append(f"  {totals['timeouts']} attempt timeout(s)")
    if totals.get("timeout_unenforced"):
        lines.append(
            f"  WARNING: {totals['timeout_unenforced']} job(s) ran with an "
            "unenforced timeout"
        )
    failed = [j for j in manifest.get("jobs", []) if j.get("status") == "failed"]
    for job in failed:
        lines.append(f"  failed: {job.get('name')} — {job.get('error')}")
    return "\n".join(lines)


def _summarize_table(table: dict) -> str:
    latencies = table.get("config", {}).get("latencies", [])
    headers = ["Circuit", "Gates", "Cost"]
    for latency in latencies:
        headers += [f"p{latency}:Trees", f"p{latency}:Cost"]
    rows = []
    for row in table.get("rows", []):
        cells: list[object] = [
            row.get("name", "?"), row.get("gates", "-"),
            f"{row.get('cost', 0.0):.1f}",
        ]
        for latency in latencies:
            entry = row.get("latencies", {}).get(str(latency))
            if entry is None:
                cells += ["-", "-"]
            else:
                cells += [entry.get("trees", "-"), f"{entry.get('cost', 0.0):.1f}"]
        rows.append(cells)
    return format_table(headers, rows, title="table1.json results")


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
@dataclass
class Finding:
    """One flagged difference between two runs."""

    severity: str  # "regression" | "improvement" | "info"
    metric: str  # "q" | "cost" | "runtime" | "status" | "escapes" | "latency"
    subject: str  # e.g. "ex1 p2"
    before: Any
    after: Any
    detail: str = ""

    def format(self) -> str:
        tag = {
            "regression": "REGRESSION",
            "improvement": "improvement",
            "info": "info",
        }[self.severity]
        line = (
            f"{tag:11s} {self.metric:8s} {self.subject}: "
            f"{self.before} -> {self.after}"
        )
        if self.detail:
            line += f"  ({self.detail})"
        return line


def diff_runs(base: RunData, new: RunData) -> list[Finding]:
    """Compare two runs; regressions first, then improvements, then info."""
    findings: list[Finding] = []
    if base.table is not None and new.table is not None:
        findings.extend(_diff_tables(base.table, new.table))
    if base.manifest is not None and new.manifest is not None:
        findings.extend(_diff_manifests(base.manifest, new.manifest))
    if base.certificate is not None and new.certificate is not None:
        findings.extend(_diff_certificates(base.certificate, new.certificate))
    order = {"regression": 0, "improvement": 1, "info": 2}
    findings.sort(key=lambda f: (order[f.severity], f.metric, f.subject))
    return findings


def _rel_change(before: float, after: float) -> float:
    if before == 0.0:
        return 0.0 if after == 0.0 else float("inf")
    return (after - before) / abs(before)


def _diff_tables(base: dict, new: dict) -> list[Finding]:
    findings: list[Finding] = []
    base_rows = {row["name"]: row for row in base.get("rows", [])}
    new_rows = {row["name"]: row for row in new.get("rows", [])}
    for name in sorted(base_rows.keys() | new_rows.keys()):
        if name not in new_rows:
            findings.append(Finding("info", "status", name, "present", "missing"))
            continue
        if name not in base_rows:
            findings.append(Finding("info", "status", name, "missing", "present"))
            continue
        base_lat = base_rows[name].get("latencies", {})
        new_lat = new_rows[name].get("latencies", {})
        for latency in sorted(base_lat.keys() | new_lat.keys(), key=_latency_key):
            subject = f"{name} p{latency}"
            old = base_lat.get(latency)
            cur = new_lat.get(latency)
            if old is None or cur is None:
                findings.append(Finding(
                    "info", "status", subject,
                    "present" if old else "missing",
                    "present" if cur else "missing",
                ))
                continue
            if old.get("trees") != cur.get("trees"):
                worse = cur.get("trees", 0) > old.get("trees", 0)
                findings.append(Finding(
                    "regression" if worse else "improvement",
                    "q", subject, old.get("trees"), cur.get("trees"),
                    "parity-tree count changed",
                ))
            rel = _rel_change(old.get("cost", 0.0), cur.get("cost", 0.0))
            if abs(rel) > COST_REL_THRESHOLD:
                findings.append(Finding(
                    "regression" if rel > 0 else "improvement",
                    "cost", subject,
                    round(old.get("cost", 0.0), 1),
                    round(cur.get("cost", 0.0), 1),
                    f"{100 * rel:+.1f}% (threshold {100 * COST_REL_THRESHOLD:.0f}%)",
                ))
    return findings


def _latency_key(value: str):
    try:
        return (0, int(value))
    except ValueError:
        return (1, value)


def _diff_manifests(base: dict, new: dict) -> list[Finding]:
    findings: list[Finding] = []
    base_jobs = {j["name"]: j for j in base.get("jobs", [])}
    new_jobs = {j["name"]: j for j in new.get("jobs", [])}
    for name in sorted(base_jobs.keys() & new_jobs.keys()):
        old, cur = base_jobs[name], new_jobs[name]
        if old.get("status") != cur.get("status"):
            worse = cur.get("status") in ("failed", "degraded")
            findings.append(Finding(
                "regression" if worse else "improvement",
                "status", name, old.get("status"), cur.get("status"),
            ))
        old_s = old.get("seconds", 0.0)
        cur_s = cur.get("seconds", 0.0)
        if max(old_s, cur_s) >= RUNTIME_MIN_SECONDS:
            rel = _rel_change(old_s, cur_s)
            if abs(rel) > RUNTIME_REL_THRESHOLD:
                findings.append(Finding(
                    "regression" if rel > 0 else "improvement",
                    "runtime", name,
                    f"{old_s:.1f}s", f"{cur_s:.1f}s",
                    f"{100 * rel:+.0f}% "
                    f"(threshold {100 * RUNTIME_REL_THRESHOLD:.0f}%, "
                    "wall time is noisy — advisory only)",
                ))
    old_wall = base.get("totals", {}).get("wall_seconds", 0.0)
    new_wall = new.get("totals", {}).get("wall_seconds", 0.0)
    if max(old_wall, new_wall) >= RUNTIME_MIN_SECONDS:
        rel = _rel_change(old_wall, new_wall)
        if abs(rel) > RUNTIME_REL_THRESHOLD:
            findings.append(Finding(
                "regression" if rel > 0 else "improvement",
                "runtime", "campaign wall",
                f"{old_wall:.1f}s", f"{new_wall:.1f}s",
                f"{100 * rel:+.0f}% (advisory)",
            ))
    return findings


def _diff_certificates(base: dict, new: dict) -> list[Finding]:
    """Certificate-vs-certificate findings.

    A lost bound or any new escape is a blocking regression; so is a
    worst-case latency increase (the certificate's headline number is
    exact, so there is no noise floor).  Mode changes (exhaustive →
    sampled means the claim got *weaker*) are reported as info.
    """
    findings: list[Finding] = []
    subject = new.get("circuit", base.get("circuit", "?"))
    old_summary = base.get("summary", {})
    new_summary = new.get("summary", {})
    old_holds = old_summary.get("bound_holds")
    new_holds = new_summary.get("bound_holds")
    if old_holds != new_holds:
        findings.append(Finding(
            "regression" if old_holds and not new_holds else "improvement",
            "status", subject,
            "bound holds" if old_holds else "bound violated",
            "bound holds" if new_holds else "bound violated",
        ))
    old_escaped = old_summary.get("escaped", 0)
    new_escaped = new_summary.get("escaped", 0)
    if old_escaped != new_escaped:
        findings.append(Finding(
            "regression" if new_escaped > old_escaped else "improvement",
            "escapes", subject, old_escaped, new_escaped,
            "escaping faults changed",
        ))
    old_worst = old_summary.get("worst_latency")
    new_worst = new_summary.get("worst_latency")
    if old_worst != new_worst and None not in (old_worst, new_worst):
        findings.append(Finding(
            "regression" if new_worst > old_worst else "improvement",
            "latency", subject, old_worst, new_worst,
            "exact worst-case detection latency changed",
        ))
    old_q = base.get("design", {}).get("q")
    new_q = new.get("design", {}).get("q")
    if old_q != new_q:
        findings.append(Finding(
            "regression" if (new_q or 0) > (old_q or 0) else "improvement",
            "q", subject, old_q, new_q, "parity-tree count changed",
        ))
    if base.get("mode") != new.get("mode"):
        findings.append(Finding(
            "info", "status", subject,
            f"mode={base.get('mode')}", f"mode={new.get('mode')}",
            "verification mode changed",
        ))
    if base.get("latency_histogram") != new.get("latency_histogram"):
        findings.append(Finding(
            "info", "latency", subject,
            base.get("latency_histogram"), new.get("latency_histogram"),
            "latency histogram changed",
        ))
    return findings


def format_diff(base: RunData, new: RunData, findings: list[Finding]) -> str:
    lines = [f"diff: {base.label} -> {new.label}"]
    if not findings:
        lines.append("no differences beyond thresholds")
        return "\n".join(lines)
    regressions = sum(1 for f in findings if f.severity == "regression")
    improvements = sum(1 for f in findings if f.severity == "improvement")
    lines.append(
        f"{len(findings)} finding(s): {regressions} regression(s), "
        f"{improvements} improvement(s)"
    )
    lines.extend(finding.format() for finding in findings)
    return "\n".join(lines)


def has_regressions(findings: list[Finding], include_runtime: bool = False) -> bool:
    """True when any blocking regression is present.

    Runtime findings are advisory by default (CI runners are noisy);
    ``include_runtime=True`` makes them blocking too.
    """
    return any(
        f.severity == "regression"
        and (include_runtime or f.metric != "runtime")
        for f in findings
    )
