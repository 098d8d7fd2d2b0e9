"""Tests for dataflow analysis (the information extractor)."""

import pytest

from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.core.dataflow import ObjectClass, analyze_dataflow
from repro.errors import DataflowError


class TestClassification:
    def test_external_data(self, sharing_dataflow):
        assert sharing_dataflow["d"].object_class is ObjectClass.EXTERNAL_DATA
        assert sharing_dataflow["d"].is_external
        assert sharing_dataflow["d"].producer is None

    def test_shared_result(self, sharing_dataflow):
        info = sharing_dataflow["r1"]
        assert info.object_class is ObjectClass.SHARED_RESULT
        assert info.producer == "k1"
        assert info.producer_cluster == 0
        assert info.consumer_clusters == (1, 2)

    def test_final_result(self, sharing_dataflow):
        info = sharing_dataflow["out"]
        assert info.object_class is ObjectClass.FINAL_RESULT
        assert info.is_final

    def test_intermediate_within_cluster(self, multi_kernel_app,
                                          multi_clustering):
        dataflow = analyze_dataflow(multi_kernel_app, multi_clustering)
        assert dataflow["t1"].object_class is ObjectClass.INTERMEDIATE_RESULT
        assert dataflow["t2"].object_class is ObjectClass.INTERMEDIATE_RESULT

    def test_final_and_consumed_later_is_shared(self, multi_kernel_app,
                                                multi_clustering):
        # c_out is final AND consumed by cluster 1.
        dataflow = analyze_dataflow(multi_kernel_app, multi_clustering)
        info = dataflow["c_out"]
        assert info.object_class is ObjectClass.SHARED_RESULT
        assert info.is_final

    def test_invariant_passthrough(self, invariant_app):
        clustering = Clustering.per_kernel(invariant_app)
        dataflow = analyze_dataflow(invariant_app, clustering)
        assert dataflow["table"].invariant
        assert not dataflow["d"].invariant

    def test_dead_result_rejected(self):
        app_builder = (
            Application.build("dead", total_iterations=1)
            .data("d", 8)
            .kernel("k", context_words=1, cycles=1, inputs=["d"],
                    outputs=["o", "waste"],
                    result_sizes={"o": 8, "waste": 8})
            .final("o")
        )
        app = app_builder.finish()
        with pytest.raises(DataflowError, match="dead on arrival"):
            analyze_dataflow(app, Clustering.per_kernel(app))


class TestPerClusterQueries:
    def test_inputs_of_cluster(self, sharing_dataflow):
        assert sharing_dataflow.inputs_of_cluster(0) == ("d", "shared")
        assert sharing_dataflow.inputs_of_cluster(1) == ("r1",)
        assert sharing_dataflow.inputs_of_cluster(2) == ("r2", "shared", "r1")

    def test_external_vs_imported(self, sharing_dataflow):
        assert sharing_dataflow.external_inputs_of_cluster(2) == ("shared",)
        assert sharing_dataflow.imported_results_of_cluster(2) == ("r2", "r1")

    def test_produced_by_cluster(self, sharing_dataflow):
        assert sharing_dataflow.produced_by_cluster(0) == ("r1",)

    def test_shared_results_of_cluster(self, sharing_dataflow):
        assert sharing_dataflow.shared_results_of_cluster(0) == ("r1",)
        assert sharing_dataflow.shared_results_of_cluster(2) == ()

    def test_final_results_of_cluster(self, sharing_dataflow):
        assert sharing_dataflow.final_results_of_cluster(2) == ("out",)

    def test_intermediates_of_cluster(self, multi_kernel_app,
                                      multi_clustering):
        dataflow = analyze_dataflow(multi_kernel_app, multi_clustering)
        assert set(dataflow.intermediates_of_cluster(0)) == {"t1", "t2"}


class TestLiveness:
    def test_last_use_in_cluster(self, multi_kernel_app, multi_clustering):
        dataflow = analyze_dataflow(multi_kernel_app, multi_clustering)
        assert dataflow.last_use_in_cluster("a", 0) == "k3"
        assert dataflow.last_use_in_cluster("t1", 0) == "k2"
        assert dataflow.last_use_in_cluster("a", 1) is None

    def test_dead_after_kernel_releases_inputs(self, multi_kernel_app,
                                               multi_clustering):
        dataflow = analyze_dataflow(multi_kernel_app, multi_clustering)
        assert dataflow.dead_after_kernel(0, "k2") == ("t1", "b")
        # 'a' is still needed by k3 after k1.
        assert "a" not in dataflow.dead_after_kernel(0, "k1")

    def test_dead_after_kernel_keeps_final(self, multi_kernel_app,
                                           multi_clustering):
        dataflow = analyze_dataflow(multi_kernel_app, multi_clustering)
        # c_out is final; not reported dead even at its last use.
        assert "c_out" not in dataflow.dead_after_kernel(1, "k4")

    def test_dead_after_kernel_wrong_cluster(self, multi_kernel_app,
                                             multi_clustering):
        dataflow = analyze_dataflow(multi_kernel_app, multi_clustering)
        with pytest.raises(DataflowError):
            dataflow.dead_after_kernel(0, "k4")

    def test_consumed_after(self, sharing_dataflow):
        assert sharing_dataflow["r1"].consumed_after(0)
        assert sharing_dataflow["r1"].consumed_after(1)
        assert not sharing_dataflow["r1"].consumed_after(2)

    def test_words_for_invariant(self, invariant_app):
        clustering = Clustering.per_kernel(invariant_app)
        dataflow = analyze_dataflow(invariant_app, clustering)
        assert dataflow["table"].words_for(4) == 128
        assert dataflow["d"].words_for(4) == 1024


class TestContainerProtocol:
    def test_getitem_missing(self, sharing_dataflow):
        with pytest.raises(KeyError):
            sharing_dataflow["nope"]

    def test_contains(self, sharing_dataflow):
        assert "d" in sharing_dataflow
        assert "nope" not in sharing_dataflow

    def test_iter_covers_all_objects(self, sharing_app, sharing_dataflow):
        names = {info.name for info in sharing_dataflow}
        assert names == set(sharing_app.objects)


def test_pickle_drops_memo_tables():
    """Pickled dataflows carry the analysis facts, not the memo tables
    the schedulers filled; the copy compares equal and starts with
    empty memos."""
    import pickle

    from repro.arch.params import Architecture
    from repro.schedule.complete import CompleteDataScheduler
    from repro.workloads.spec import paper_experiments

    spec = next(s for s in paper_experiments() if s.id == "MPEG")
    application, clustering = spec.build()
    dataflow = analyze_dataflow(application, clustering)
    CompleteDataScheduler(Architecture.m1(spec.fb)).schedule(
        application, clustering, dataflow=dataflow
    )
    memos = ("_last_use_memo", "_inputs_memo", "_produced_memo",
             "sweep_peak_memo")
    assert all(getattr(dataflow, name) for name in memos)

    fresh = pickle.dumps(analyze_dataflow(application, clustering))
    payload = pickle.dumps(dataflow)
    assert len(payload) == len(fresh)
    copy = pickle.loads(payload)
    assert copy == dataflow
    assert not any(getattr(copy, name) for name in memos)
    assert copy.inputs_of_cluster(0) == dataflow.inputs_of_cluster(0)
