"""Tests for run-artifact loading, summarising and diffing."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.runtime.report import (
    COST_REL_THRESHOLD,
    Finding,
    diff_runs,
    format_diff,
    has_regressions,
    journal_rollup,
    load_run,
    summarize_run,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
PREKERNEL = REPO_ROOT / "benchmarks" / "out" / "prekernel"
POSTKERNEL = REPO_ROOT / "benchmarks" / "out" / "postkernel"


def _table(rows: dict) -> dict:
    """A minimal table1.json payload: {circuit: {latency: (trees, cost)}}."""
    return {
        "config": {"latencies": [1, 2]},
        "rows": [
            {
                "name": name,
                "gates": 100,
                "cost": 300.0,
                "latencies": {
                    str(p): {"trees": trees, "gates": 100, "cost": cost}
                    for p, (trees, cost) in entries.items()
                },
            }
            for name, entries in rows.items()
        ],
    }


def _manifest(jobs: dict, wall: float = 10.0) -> dict:
    return {
        "campaign": "t",
        "totals": {"wall_seconds": wall},
        "jobs": [
            {"name": name, "status": status, "seconds": seconds}
            for name, (status, seconds) in jobs.items()
        ],
    }


class TestLoadRun:
    def test_directory_with_table_and_manifest(self, tmp_path):
        (tmp_path / "table1.json").write_text(json.dumps(_table({})))
        (tmp_path / "manifest.json").write_text(json.dumps(_manifest({})))
        run = load_run(tmp_path)
        assert run.table is not None
        assert run.manifest is not None
        assert run.journal is None

    def test_single_table_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(_table({"a": {1: (3, 100.0)}})))
        run = load_run(path)
        assert run.table is not None and run.manifest is None

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no journal"):
            load_run(tmp_path)

    def test_unrecognised_json_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="not a recognised"):
            load_run(path)


class TestDiff:
    def test_q_change_always_flagged(self, tmp_path):
        base = _run(tmp_path, "a", _table({"c": {1: (3, 100.0)}}))
        new = _run(tmp_path, "b", _table({"c": {1: (4, 100.0)}}))
        findings = diff_runs(base, new)
        assert [f.metric for f in findings] == ["q"]
        assert findings[0].severity == "regression"
        assert has_regressions(findings)

    def test_q_decrease_is_improvement(self, tmp_path):
        base = _run(tmp_path, "a", _table({"c": {1: (4, 100.0)}}))
        new = _run(tmp_path, "b", _table({"c": {1: (3, 100.0)}}))
        (finding,) = diff_runs(base, new)
        assert finding.severity == "improvement"
        assert not has_regressions([finding])

    def test_cost_below_threshold_ignored(self, tmp_path):
        wiggle = 1 + COST_REL_THRESHOLD / 2
        base = _run(tmp_path, "a", _table({"c": {1: (3, 100.0)}}))
        new = _run(tmp_path, "b", _table({"c": {1: (3, 100.0 * wiggle)}}))
        assert diff_runs(base, new) == []

    def test_cost_above_threshold_flagged(self, tmp_path):
        base = _run(tmp_path, "a", _table({"c": {1: (3, 100.0)}}))
        new = _run(tmp_path, "b", _table({"c": {1: (3, 105.0)}}))
        (finding,) = diff_runs(base, new)
        assert finding.metric == "cost"
        assert finding.severity == "regression"

    def test_runtime_regression_is_advisory(self, tmp_path):
        base = _run(tmp_path, "a", manifest=_manifest({"c": ("ok", 10.0)}))
        new = _run(tmp_path, "b", manifest=_manifest({"c": ("ok", 20.0)}))
        findings = diff_runs(base, new)
        assert any(f.metric == "runtime" for f in findings)
        assert not has_regressions(findings)
        assert has_regressions(findings, include_runtime=True)

    def test_tiny_runtimes_never_diffed(self, tmp_path):
        base = _run(
            tmp_path, "a", manifest=_manifest({"c": ("ok", 0.1)}, wall=0.1)
        )
        new = _run(
            tmp_path, "b", manifest=_manifest({"c": ("ok", 0.4)}, wall=0.4)
        )
        assert diff_runs(base, new) == []

    def test_status_regression_blocks(self, tmp_path):
        base = _run(tmp_path, "a", manifest=_manifest({"c": ("ok", 5.0)}))
        new = _run(tmp_path, "b", manifest=_manifest({"c": ("failed", 5.0)}))
        findings = diff_runs(base, new)
        assert has_regressions(findings)

    def test_missing_circuit_reported_as_info(self, tmp_path):
        base = _run(tmp_path, "a", _table({"c": {1: (3, 100.0)}}))
        new = _run(tmp_path, "b", _table({}))
        (finding,) = diff_runs(base, new)
        assert finding.severity == "info"

    def test_format_diff_renders(self, tmp_path):
        base = _run(tmp_path, "a", _table({"c": {1: (3, 100.0)}}))
        new = _run(tmp_path, "b", _table({"c": {1: (4, 100.0)}}))
        text = format_diff(base, new, diff_runs(base, new))
        assert "REGRESSION" in text
        assert "c p1" in text


class TestKnownBaselineDiff:
    """Acceptance: the PR-3 kernel change left known q/cost diffs."""

    @pytest.mark.skipif(
        not (PREKERNEL.is_dir() and POSTKERNEL.is_dir()),
        reason="committed benchmark outputs not present",
    )
    def test_prekernel_vs_postkernel_flags_known_rows(self):
        findings = diff_runs(load_run(PREKERNEL), load_run(POSTKERNEL))
        q_changes = {
            f.subject: (f.before, f.after)
            for f in findings
            if f.metric == "q"
        }
        assert q_changes["ex1 p1"] == (12, 14)
        assert q_changes["ex1 p2"] == (12, 13)
        assert q_changes["s1488 p1"] == (15, 17)
        cost_subjects = {f.subject for f in findings if f.metric == "cost"}
        assert "s1488 p2" in cost_subjects  # q unchanged, cost +6.3%
        assert has_regressions(findings)


class TestSummaries:
    def test_summarize_table_and_manifest(self, tmp_path):
        run = _run(
            tmp_path, "r",
            table=_table({"c": {1: (3, 100.0), 2: (2, 90.0)}}),
            manifest=_manifest({"c": ("ok", 5.0)}),
        )
        text = summarize_run(run)
        assert "table1.json results" in text
        assert "p1:Trees" in text
        assert "campaign 't'" in text

    def test_journal_rollup_and_summary(self, tmp_path):
        from repro.runtime.campaign import (
            CampaignOptions,
            design_matrix_jobs,
            run_campaign,
        )

        journal = tmp_path / "journal.jsonl"
        jobs = design_matrix_jobs(["traffic"], [1], max_faults=25)
        run_campaign(jobs, CampaignOptions(
            cache_dir=str(tmp_path / "cache"),
            manifest_path=str(tmp_path / "manifest.json"),
            journal_path=str(journal),
            name="unit",
        ))
        run = load_run(tmp_path)
        assert run.journal is not None
        rollup = journal_rollup(run.journal)
        assert [j["name"] for j in rollup["jobs"]] == ["traffic"]
        # Every LP solve is one lp.solve event inside some search; traffic
        # p=1's probes all sit below the proven floor, so none runs an LP.
        done = [
            r["attrs"] for r in run.journal
            if r.get("type") == "event" and r.get("name") == "search.done"
        ]
        assert done
        assert rollup["lp_solves"] == sum(d["lp_solves"] for d in done)
        assert rollup["proved_infeasible"] >= 1
        assert rollup["proved_infeasible"] == sum(d["proved"] for d in done)
        assert rollup["greedy_calls"] >= 1
        assert "solve" in rollup["stage_seconds"]
        text = summarize_run(run)
        assert "journal: unit" in text
        assert "LP solves" in text
        assert "probes proved infeasible" in text
        assert "stage time:" in text


def _run(tmp_path, label, table=None, manifest=None, certificate=None):
    directory = tmp_path / label
    directory.mkdir(exist_ok=True)
    if table is not None:
        (directory / "table1.json").write_text(json.dumps(table))
    if manifest is not None:
        (directory / "manifest.json").write_text(json.dumps(manifest))
    if certificate is not None:
        (directory / "certificate.json").write_text(json.dumps(certificate))
    return load_run(directory, label=label)


def _certificate(
    holds=True, escaped=0, worst=1, q=2, mode="exhaustive", histogram=None
):
    """A minimal but renderable bounded-latency certificate."""
    payload = {
        "schema": 2,
        "kind": "bounded-latency-certificate",
        "circuit": "c",
        "mode": mode,
        "config": {"latency": 2, "semantics": "checker", "encoding": "binary",
                   "max_faults": 800, "multilevel": False, "seed": 2004,
                   "state_budget": 65536},
        "fingerprint": "f" * 64,
        "design": {"q": q, "betas": [3, 5][:q], "source": "greedy",
                   "gates": 20, "cost": 60.0},
        "machine": {"inputs": 1, "state_bits": 2, "outputs": 1, "bits": 3,
                    "states": 4, "patterns": 8},
        "alphabet": {"size": 2, "mode": "exhaustive"},
        "faults": {"universe": 30, "collapsed": 20, "classes": 20,
                   "checked": 20, "checked_universe": 30,
                   "idle": 0, "proved": 20 - escaped, "escaped": escaped},
        "fault_classes": [],
        "reachable": {"good": [0, 1, 2], "good_count": 3,
                      "activation": [0, 1], "activation_count": 2},
        "latency_histogram": histogram or {"1": 20 - escaped},
        "worst_latency": worst,
        "escapes": [],
        "summary": {"bound_holds": holds, "proved": 20 - escaped,
                    "escaped": escaped, "worst_latency": worst},
    }
    if mode == "sampled":
        payload["sampled"] = {"runs": 10, "activated_runs": 8,
                              "detected_within_bound": 8, "violations": []}
    return payload


class TestCertificates:
    def test_load_certificate_directory_and_file(self, tmp_path):
        run = _run(tmp_path, "a", certificate=_certificate())
        assert run.certificate is not None and run.table is None
        loose = tmp_path / "loose.json"
        loose.write_text(json.dumps(_certificate()))
        assert load_run(loose).certificate is not None

    def test_summarize_renders_certificate(self, tmp_path):
        run = _run(tmp_path, "a", certificate=_certificate())
        text = summarize_run(run)
        assert "BOUND HOLDS" in text and "mode=exhaustive" in text

    def test_lost_bound_and_new_escape_block(self, tmp_path):
        base = _run(tmp_path, "a", certificate=_certificate())
        new = _run(
            tmp_path, "b",
            certificate=_certificate(holds=False, escaped=2),
        )
        findings = diff_runs(base, new)
        assert has_regressions(findings)
        metrics = {f.metric for f in findings if f.severity == "regression"}
        assert {"status", "escapes"} <= metrics

    def test_worst_latency_increase_blocks(self, tmp_path):
        base = _run(tmp_path, "a", certificate=_certificate(worst=1))
        new = _run(
            tmp_path, "b",
            certificate=_certificate(worst=2, histogram={"1": 19, "2": 1}),
        )
        findings = diff_runs(base, new)
        assert any(
            f.metric == "latency" and f.severity == "regression"
            for f in findings
        )
        assert has_regressions(findings)

    def test_mode_downgrade_is_info(self, tmp_path):
        base = _run(tmp_path, "a", certificate=_certificate())
        new = _run(tmp_path, "b", certificate=_certificate(mode="sampled"))
        findings = diff_runs(base, new)
        assert findings and all(f.severity == "info" for f in findings)
        assert not has_regressions(findings)

    def test_identical_certificates_diff_clean(self, tmp_path):
        base = _run(tmp_path, "a", certificate=_certificate())
        new = _run(tmp_path, "b", certificate=_certificate())
        assert diff_runs(base, new) == []


class TestFinding:
    def test_format_contains_fields(self):
        finding = Finding("regression", "q", "c p1", 3, 4, "detail")
        text = finding.format()
        assert "REGRESSION" in text and "3 -> 4" in text and "detail" in text
