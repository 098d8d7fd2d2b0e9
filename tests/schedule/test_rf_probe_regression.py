"""The RF search must never probe the same reuse factor twice.

Regression for the gallop hand-off bug: after the gallop loop exited on
a failed ``check(min(high * 2, cap))``, the binary-search seeding
re-probed that same value — a wasted occupancy sweep and a duplicate
``rf.probe`` decision-trace event (seed 7 at 2K emitted ``(4, False)``
twice).  Both the naive-sweep search
(:func:`repro.schedule.rf.max_common_rf`) and the occupancy engine
(:meth:`repro.schedule.occupancy.OccupancyEngine.max_common_rf`) had
the bug.  The schedulers run the engine; the naive search re-derives
their RF in the ``engine`` fuzz oracle and the lint passes.
"""

import pytest

from repro.arch.params import Architecture
from repro.core.dataflow import analyze_dataflow
from repro.core.metrics import cluster_data_size_naive
from repro.fuzz.case import FuzzCase
from repro.fuzz.oracles import run_oracles
from repro.schedule.base import ScheduleOptions
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.schedule.occupancy import OccupancyEngine
from repro.schedule.rf import fits, max_common_rf
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments


def _probe_sequence(seed, fb_words, *, scheduler_cls=DataScheduler):
    """The engine's ``rf.probe`` trace for one scheduled workload."""
    application, clustering = random_application(seed)
    architecture = Architecture.m1(fb_words)
    options = ScheduleOptions(decision_trace=True)
    schedule = scheduler_cls(architecture, options).schedule(
        application, clustering
    )
    return [
        (event.detail["rf"], event.detail["fits"])
        for event in schedule.decisions.of_kind("rf.probe")
    ], schedule


def _naive_probe_sequence(seed, fb_words):
    """``(rf, fits)`` per feasibility check of the naive-sweep search,
    and its result.  A check always sweeps the first cluster, so each
    first-cluster sweep marks one probe."""
    application, clustering = random_application(seed)
    dataflow = analyze_dataflow(application, clustering)
    fb_words = Architecture.m1(fb_words).fb_set_words
    first = dataflow.clustering[0].index
    probed = []

    def recording(dataflow_, index, rf, keeps):
        if index == first:
            probed.append(rf)
        return cluster_data_size_naive(dataflow_, index, rf, keeps)

    rf = max_common_rf(dataflow, fb_words, occupancy_fn=recording)
    return [
        (value, fits(dataflow, value, fb_words,
                     occupancy_fn=cluster_data_size_naive))
        for value in probed
    ], rf


def test_seed7_at_2k_probes_each_rf_once():
    """The exact reproducer: the old code probed (4, False) twice."""
    probes, schedule = _probe_sequence(7, 2048)
    assert probes == [(1, True), (2, True), (4, False), (3, False)]
    assert schedule.rf == 2


@pytest.mark.parametrize("engine", ["incremental", "naive"])
@pytest.mark.parametrize("scheduler_cls", [DataScheduler,
                                           CompleteDataScheduler])
def test_rf_search_never_probes_twice(engine, scheduler_cls):
    """``incremental``: the scheduler's own trace.  ``naive``: the
    naive-sweep search over the same workload, which must also land
    on the scheduler's RF."""
    for seed in range(20):
        for fb_words in (1024, 2048, 4096):
            try:
                probes, schedule = _probe_sequence(
                    seed, fb_words, scheduler_cls=scheduler_cls,
                )
            except Exception:
                continue  # infeasible at this size: no trace to check
            if engine == "naive":
                probes, rf = _naive_probe_sequence(seed, fb_words)
                assert rf == schedule.rf, f"seed {seed} at {fb_words}"
            rf_values = [rf for rf, _ in probes]
            assert len(rf_values) == len(set(rf_values)), (
                f"seed {seed} at {fb_words}: duplicate probe in {probes}"
            )


@pytest.mark.parametrize("scheduler_cls", [DataScheduler,
                                           CompleteDataScheduler])
def test_both_engines_emit_identical_probe_traces(scheduler_cls):
    """The engine probes the same RF values, with the same verdicts,
    as the naive-sweep search, and lands on the same RF."""
    for seed in range(12):
        engine_probes, schedule = _probe_sequence(
            seed, 2048, scheduler_cls=scheduler_cls
        )
        naive_probes, rf = _naive_probe_sequence(seed, 2048)
        assert engine_probes == naive_probes
        assert schedule.rf == rf


def test_engine_oracle_flags_off_by_one_rf_search(monkeypatch):
    """Plant: the engine's RF search stops one level short."""
    spec = next(s for s in paper_experiments() if s.id == "E3")
    application, clustering = spec.build()
    case = FuzzCase.from_workload(
        application, clustering, spec.fb_words, name="paper-E3"
    )
    assert run_oracles(case, oracles=("engine",)) == []
    original = OccupancyEngine.max_common_rf

    def short_by_one(self, keeps=(), max_rf=0):
        return max(original(self, keeps, max_rf) - 1, 1)

    monkeypatch.setattr(OccupancyEngine, "max_common_rf", short_by_one)
    failures = run_oracles(case, oracles=("engine",))
    assert {f.scheduler for f in failures} == {"ds", "cds"}
    assert all("'rf'" in f.message for f in failures)
