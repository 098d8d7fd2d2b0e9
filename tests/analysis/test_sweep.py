"""Tests for the frame-buffer-size sweep analysis."""

import pytest

from repro.analysis.sweep import render_sweep, sweep_fb_sizes
from repro.arch.params import Architecture


class TestSweep:
    @pytest.fixture(scope="class")
    def points(self):
        # Build inside the class to keep fixtures cheap at module scope.
        from repro.workloads.atr import atr_fi
        application, clustering = atr_fi()
        return sweep_fb_sizes(
            application, clustering, [512, "1K", "2K", "4K"]
        )

    def test_point_per_size(self, points):
        assert [p.fb_words for p in points] == [512, 1024, 2048, 4096]

    def test_infeasible_sizes_flagged_not_raised(self, points):
        assert not points[0].ds_feasible
        assert points[0].rf is None

    def test_rf_monotone(self, points):
        feasible = [p for p in points if p.ds_feasible]
        rf_values = [p.rf for p in feasible]
        assert rf_values == sorted(rf_values)
        assert rf_values[0] >= 1

    def test_cycles_never_increase_materially(self, points):
        feasible = [p for p in points if p.ds_feasible]
        cycles = [p.cds_cycles for p in feasible]
        assert all(b <= a * 1.02 for a, b in zip(cycles, cycles[1:]))

    def test_custom_architecture_factory(self):
        from repro.workloads.atr import atr_fi
        application, clustering = atr_fi()
        seen = []

        def factory(words):
            seen.append(words)
            return Architecture.m1(words)

        sweep_fb_sizes(application, clustering, ["1K"],
                       architecture_factory=factory)
        assert seen == [1024]

    def test_render(self, points):
        text = render_sweep(points, title="demo sweep")
        assert "demo sweep" in text
        assert "infeasible" in text
        assert "1K" in text


def test_sweep_computes_each_sweep_peak_once(monkeypatch):
    """Every FB size of a sweep, DS and CDS alike, shares one dataflow
    analysis and with it the occupancy sweep memo: no ``(cluster, rf,
    local kept names)`` sweep peak is computed twice."""
    import repro.schedule.occupancy as occupancy
    from repro.workloads.spec import paper_experiments

    calls = []
    real = occupancy.cluster_sweep_peak

    def counting(dataflow, cluster_index, rf, local_kept):
        calls.append((cluster_index, rf, frozenset(local_kept)))
        return real(dataflow, cluster_index, rf, local_kept)

    monkeypatch.setattr(occupancy, "cluster_sweep_peak", counting)
    spec = next(s for s in paper_experiments() if s.id == "MPEG")
    application, clustering = spec.build()
    points = sweep_fb_sizes(application, clustering, ["2K", "4K"])
    assert all(point.ds_feasible for point in points)
    assert any(point.kept_items for point in points)
    assert calls
    assert len(calls) == len(set(calls))
