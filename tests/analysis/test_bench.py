"""Unit tests for the ``repro bench`` comparison and rendering logic.

``run_bench`` itself is exercised by the CI quick-mode job (and takes
seconds); here we pin down the regression-gate semantics the job relies
on, with synthetic payloads.
"""

from repro.analysis.bench import (
    PRE_PR_BASELINE,
    STAGES,
    compare_bench,
    render_bench,
)


def _payload(stages=None, scalability=None):
    return {
        "schema": 2,
        "quick": True,
        "stages": stages or {},
        "scalability": scalability or {},
        "baseline": PRE_PR_BASELINE,
        "baseline_source": "pre-overhaul",
        "speedup_vs_baseline": {},
    }


class TestCompareBench:
    def test_no_regression_within_limit(self):
        baseline = _payload(stages={"cds": 0.010}, scalability={"corpus": 0.2})
        current = _payload(stages={"cds": 0.012}, scalability={"corpus": 0.24})
        assert compare_bench(current, baseline, max_regression_pct=25.0) == []

    def test_regression_detected_past_limit(self):
        baseline = _payload(stages={"cds": 0.010})
        current = _payload(stages={"cds": 0.020})
        problems = compare_bench(current, baseline, max_regression_pct=25.0)
        assert len(problems) == 1
        assert "stages.cds" in problems[0]
        assert "100.0%" in problems[0]

    def test_missing_keys_skipped(self):
        baseline = _payload(stages={"cds": 0.010, "lint": 0.001})
        current = _payload(stages={"cds": 0.010})
        assert compare_bench(current, baseline, max_regression_pct=25.0) == []

    def test_improvements_never_flagged(self):
        baseline = _payload(scalability={"cds_large": 0.013})
        current = _payload(scalability={"cds_large": 0.001})
        assert compare_bench(current, baseline, max_regression_pct=25.0) == []


class TestRenderBench:
    def test_lists_stages_and_speedups(self):
        payload = _payload(
            stages={stage: 0.001 for stage in STAGES},
            scalability={"cds_large": 0.0026, "corpus": 0.17},
        )
        payload["speedup_vs_baseline"] = {"cds_large": 5.0, "corpus": 3.2}
        text = render_bench(payload)
        for stage in STAGES:
            assert stage in text
        assert "vs pre-overhaul" in text
        assert "5.00x" in text


def test_committed_baseline_shape():
    """The embedded pre-overhaul baseline covers its era's stage keys.

    Stages introduced after the pre-overhaul snapshot
    (``simulate_traced``, ``analyze``) are legitimately absent — the
    render and the gate both skip keys missing on one side.
    """
    assert set(PRE_PR_BASELINE["stages"]) == set(STAGES) - {
        "simulate_traced", "analyze"
    }
    assert set(PRE_PR_BASELINE["scalability"]) == {"cds_large", "corpus"}


class TestMetricsSection:
    def test_render_shows_rollup_when_metrics_present(self):
        payload = _payload(stages={"cds": 0.001})
        payload["metrics"] = {
            "counters": {"driver/parallel.items": 20},
            "timers": {"pipeline.cds/schedule":
                       {"total_s": 0.5, "count": 20, "max_s": 0.1}},
        }
        text = render_bench(payload)
        assert "metrics rollup:" in text
        assert "pipeline.cds/schedule" in text
        assert "driver/parallel.items" in text

    def test_render_omits_rollup_when_absent_or_empty(self):
        assert "metrics rollup" not in render_bench(_payload())
        empty = _payload()
        empty["metrics"] = {"counters": {}, "timers": {}}
        assert "metrics rollup" not in render_bench(empty)

    def test_compare_bench_ignores_the_metrics_section(self):
        baseline = _payload(stages={"cds": 0.010})
        current = _payload(stages={"cds": 0.010})
        current["metrics"] = {"counters": {"n": 1}, "timers": {}}
        assert compare_bench(current, baseline, max_regression_pct=25.0) == []


def test_analyze_stage_analyzes_a_fresh_program_per_call(monkeypatch):
    """The analysis memo lives on the program: a reused program would
    time a dict lookup instead of the analyzer."""
    import repro.analysis.bench as bench
    from repro.workloads.spec import paper_experiments

    analyzed = []
    monkeypatch.setattr(bench, "analyze_program", analyzed.append)
    stage = bench._experiment_stage_fns(paper_experiments()[0])["analyze"]
    stage()
    stage()
    assert len(analyzed) == 2
    assert analyzed[0] is not analyzed[1]
