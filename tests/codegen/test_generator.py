"""Tests for program generation."""

import pytest

from repro.alloc.allocator import FrameBufferAllocator
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.core.cluster import Clustering
from repro.obs.events import DecisionTrace
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.workloads import paper_experiments


def _program(app, clustering, scheduler_cls=CompleteDataScheduler, fb="2K"):
    schedule = scheduler_cls(Architecture.m1(fb)).schedule(app, clustering)
    return generate_program(schedule), schedule


class TestStructure:
    def test_visit_count(self, sharing_app, sharing_clustering):
        program, schedule = _program(sharing_app, sharing_clustering)
        assert len(program) == schedule.rounds * len(sharing_clustering)

    def test_visits_round_major(self, sharing_app, sharing_clustering):
        program, _ = _program(sharing_app, sharing_clustering)
        rounds = [ops.visit.round_index for ops in program]
        assert rounds == sorted(rounds)
        indexes = [ops.visit.index for ops in program]
        assert indexes == list(range(len(program)))

    def test_cm_blocks_alternate(self, sharing_app, sharing_clustering):
        program, _ = _program(sharing_app, sharing_clustering)
        blocks = [ops.visit.cm_block for ops in program]
        assert blocks[:4] == [0, 1, 0, 1]

    def test_iterations_partition_total(self, sharing_app,
                                         sharing_clustering):
        program, schedule = _program(sharing_app, sharing_clustering)
        seen = set()
        for ops in program:
            if ops.visit.cluster_index == 0:
                seen.update(ops.visit.iterations)
        assert seen == set(range(sharing_app.total_iterations))

    def test_compute_is_kernel_outer(self, multi_kernel_app,
                                     multi_clustering):
        program, schedule = _program(
            multi_kernel_app, multi_clustering, DataScheduler, "8K"
        )
        assert schedule.rf > 1
        first_visit = program.visits[0]
        kernels = [run.kernel for run in first_visit.compute]
        # Loop fission: k1 x RF, then k2 x RF, ...
        assert kernels[:schedule.rf] == ["k1"] * schedule.rf

    def test_loads_per_iteration_for_variant_data(self, sharing_app,
                                                  sharing_clustering):
        program, schedule = _program(
            sharing_app, sharing_clustering, DataScheduler
        )
        first_visit = program.visits[0]
        d_loads = [l for l in first_visit.data_loads if l.name == "d"]
        assert len(d_loads) == schedule.rf

    def test_invariant_loaded_once_per_visit(self, invariant_app):
        clustering = Clustering.per_kernel(invariant_app)
        program, schedule = _program(
            invariant_app, clustering, DataScheduler, "8K"
        )
        assert schedule.rf > 1
        first_visit = program.visits[0]
        table_loads = [
            l for l in first_visit.data_loads if l.name == "table"
        ]
        assert len(table_loads) == 1
        assert table_loads[0].iteration == 0

    def test_kept_inputs_generate_no_loads(self, sharing_app,
                                           sharing_clustering):
        program, schedule = _program(sharing_app, sharing_clustering)
        assert "shared" in schedule.keep_names()
        # Cluster 2's visits must not load 'shared'.
        for ops in program:
            if ops.visit.cluster_index == 2:
                assert all(l.name != "shared" for l in ops.data_loads)

    def test_load_order_matches_allocator(self, sharing_app,
                                          sharing_clustering):
        """Every cluster loads its inputs in the order the Figure-4
        allocator places them (kept shared data first, then inputs by
        last consumer), on the sharing fixture and every paper
        experiment under all three schedulers."""
        cases = [(sharing_app, sharing_clustering, "2K")] + [
            (*spec.build(), spec.fb) for spec in paper_experiments()
        ]
        checked = 0
        for app, clustering, fb in cases:
            for scheduler_cls in (BasicScheduler, DataScheduler,
                                  CompleteDataScheduler):
                program, schedule = _program(app, clustering, scheduler_cls, fb)
                trace = DecisionTrace()
                FrameBufferAllocator(schedule, decisions=trace).allocate()
                for cluster in clustering:
                    loaded = set(schedule.plan_for(cluster.index).loads)
                    placed = [
                        event.subject for event in trace.of_kind("alloc.place")
                        if event.detail["cluster_index"] == cluster.index
                        and event.subject in loaded
                    ]
                    ops = next(
                        ops for ops in program
                        if ops.visit.cluster_index == cluster.index
                    )
                    names = [load.name for load in ops.data_loads]
                    assert list(dict.fromkeys(names)) == \
                        list(dict.fromkeys(placed)), (app.name, cluster.name)
                    checked += bool(names)
        assert checked > 100
        # 'shared' is kept with first consumer = cluster 0 -> leads.
        program, _ = _program(sharing_app, sharing_clustering)
        assert program.visits[0].data_loads[0].name == "shared"

    def test_stores_emitted_per_iteration(self, sharing_app,
                                          sharing_clustering):
        program, schedule = _program(sharing_app, sharing_clustering)
        last_cluster_visits = [
            ops for ops in program if ops.visit.cluster_index == 2
        ]
        for ops in last_cluster_visits:
            outs = [s for s in ops.stores if s.name == "out"]
            assert len(outs) == len(ops.visit.iterations)

    def test_totals(self, sharing_app, sharing_clustering):
        program, schedule = _program(sharing_app, sharing_clustering)
        assert program.total_compute_cycles == sum(
            k.cycles for k in sharing_app.kernels
        ) * sharing_app.total_iterations
        assert program.total_load_words > 0
        assert program.total_store_words > 0
        assert program.total_context_words > 0

    def test_listing(self, sharing_app, sharing_clustering):
        program, _ = _program(sharing_app, sharing_clustering)
        listing = program.listing(max_visits=2)
        assert "visit 0" in listing
        assert "ldctx" in listing and "run" in listing
        assert "more visits" in listing


class TestContextTraffic:
    def test_basic_reloads_every_visit(self, sharing_app,
                                       sharing_clustering):
        basic_program, _ = _program(
            sharing_app, sharing_clustering, BasicScheduler
        )
        ds_program, ds_schedule = _program(
            sharing_app, sharing_clustering, DataScheduler
        )
        assert ds_schedule.rf > 1
        assert basic_program.total_context_words > \
            ds_program.total_context_words
        ratio = (basic_program.total_context_words
                 / ds_program.total_context_words)
        assert ratio == pytest.approx(ds_schedule.rf, rel=0.2)
