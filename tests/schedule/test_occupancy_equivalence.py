"""Property-based equivalence: the occupancy engine vs. the naive sweep.

The schedulers serve RF search, keep acceptance and capacity
validation from the memoised
:class:`~repro.schedule.occupancy.OccupancyEngine`.  Its contract is
that every decision equals a from-scratch recomputation with the naive
``DS(C_c)`` event sweep: the same RF, the same keeps in the same order,
the same cluster plans, and the same infeasibility verdicts, so
everything downstream (allocation) is identical too.  These tests
enforce that contract over random workloads across frame-buffer sizes
and scheduler policies, with the ``engine`` fuzz oracle's own check
(:func:`repro.fuzz.oracles.naive_sweep_mismatch`).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc.allocator import FrameBufferAllocator
from repro.arch.params import Architecture
from repro.core.dataflow import analyze_dataflow
from repro.core.metrics import cluster_data_size, cluster_data_size_naive
from repro.errors import InfeasibleScheduleError
from repro.fuzz.case import FuzzCase
from repro.fuzz.oracles import (
    naive_keep_selection,
    naive_sweep_mismatch,
    naive_sweep_schedule,
    run_oracles,
)
from repro.lint.runner import lint_schedule
from repro.schedule.base import ScheduleOptions
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.schedule.occupancy import OccupancyEngine
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments


def _outcome(scheduler_cls, application, clustering, architecture,
             **option_overrides):
    """Schedule once; ``None`` when infeasible."""
    options = ScheduleOptions(**option_overrides)
    try:
        schedule = scheduler_cls(architecture, options).schedule(
            application, clustering
        )
    except InfeasibleScheduleError:
        return None
    return schedule


def _assert_engines_agree(scheduler_cls, application, clustering,
                          architecture, **option_overrides):
    """Schedule, then require the naive sweep to reproduce the outcome;
    returns ``(schedule, naive_schedule)`` or ``None`` if infeasible."""
    scheduler = scheduler_cls(architecture, ScheduleOptions(**option_overrides))
    dataflow = analyze_dataflow(application, clustering)
    try:
        schedule, error = scheduler.schedule(
            application, clustering, dataflow=dataflow
        ), None
    except InfeasibleScheduleError as exc:
        schedule, error = None, exc
    mismatch = naive_sweep_mismatch(scheduler, dataflow, schedule, error)
    assert mismatch is None, mismatch
    if schedule is None:
        return None
    return schedule, naive_sweep_schedule(scheduler, schedule)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.sampled_from(["1K", "2K", "4K"]),
    st.sampled_from(["max_then_keep", "joint"]),
    st.sampled_from(["tf", "size", "fifo"]),
)
def test_cds_engines_byte_identical(seed, fb, rf_policy, keep_policy):
    application, clustering = random_application(seed, iterations=4)
    architecture = Architecture.m1(fb)
    _assert_engines_agree(
        CompleteDataScheduler, application, clustering, architecture,
        rf_policy=rf_policy, keep_policy=keep_policy,
    )


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.sampled_from(["1K", "2K", "4K"]),
)
def test_data_scheduler_engines_byte_identical(seed, fb):
    application, clustering = random_application(seed, iterations=4)
    architecture = Architecture.m1(fb)
    _assert_engines_agree(
        DataScheduler, application, clustering, architecture
    )


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.sampled_from(["2K", "4K"]),
)
def test_allocations_identical_across_engines(seed, fb):
    application, clustering = random_application(seed, iterations=4)
    architecture = Architecture.m1(fb)
    schedules = _assert_engines_agree(
        CompleteDataScheduler, application, clustering, architecture
    )
    if schedules is None:
        return
    schedule, naive = schedules
    maps_engine = FrameBufferAllocator(schedule).allocate()
    maps_naive = FrameBufferAllocator(naive).allocate()
    for map_a, map_b in zip(maps_engine, maps_naive):
        assert map_a.records == map_b.records


def test_paper_experiments_engines_byte_identical():
    """The bundled experiments, including the rf_cap variants."""
    for spec in paper_experiments():
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        _assert_engines_agree(
            CompleteDataScheduler, application, clustering, architecture
        )


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=1, max_value=12),
)
def test_closed_form_occupancy_matches_naive_sweep(seed, rf):
    """``cluster_data_size`` closed form vs. the original event sweep,
    with and without the CDS's own keep decisions in effect."""
    application, clustering = random_application(seed, iterations=4)
    dataflow = analyze_dataflow(application, clustering)
    schedule = _outcome(
        CompleteDataScheduler, application, clustering,
        Architecture.m1("4K"),
    )
    keep_sets = [()]
    if schedule is not None:
        keep_sets.append(schedule.keeps)
    for keeps in keep_sets:
        for cluster in clustering:
            assert cluster_data_size(
                dataflow, cluster.index, rf, keeps
            ) == cluster_data_size_naive(dataflow, cluster.index, rf, keeps)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.sampled_from(["2K", "4K"]),
)
def test_cds_schedules_are_lint_clean(seed, fb):
    """Acceptance criterion: every schedule the CDS hands out passes
    the application- and schedule-layer lint with no errors."""
    schedule = _outcome(
        CompleteDataScheduler, *random_application(seed, iterations=4),
        Architecture.m1(fb),
    )
    if schedule is None:
        return
    collector = lint_schedule(schedule)
    assert not collector.has_errors, [str(d) for d in collector.errors]


def test_naive_engine_rejected_values():
    """The occupancy engine is not selectable: ``occupancy_engine`` is
    no longer a :class:`ScheduleOptions` field."""
    with pytest.raises(TypeError, match="occupancy_engine"):
        ScheduleOptions(occupancy_engine="naive")


def test_engine_oracle_flags_off_by_one_sweep_peak(monkeypatch):
    """Plant: every memoised sweep peak comes back one word high."""
    spec = next(s for s in paper_experiments() if s.id == "ATR-FI")
    application, clustering = spec.build()
    case = FuzzCase.from_workload(
        application, clustering, spec.fb_words, name="paper-ATR-FI"
    )
    assert run_oracles(case, oracles=("engine",)) == []
    original = OccupancyEngine.sweep_peak
    monkeypatch.setattr(
        OccupancyEngine, "sweep_peak",
        lambda self, index, rf, local: original(self, index, rf, local) + 1,
    )
    failures = run_oracles(case, oracles=("engine",))
    assert failures, "an off-by-one occupancy engine must fire"
    assert all(f.oracle == "engine" for f in failures)
    assert any("cluster_plans" in f.message for f in failures)


def test_engine_oracle_flags_wrong_joint_rf(monkeypatch):
    """Plant: keep acceptance rejects every candidate below RF 4.  Under
    ``rf_policy="joint"`` ATR-FI* then wins at RF 4, whose keeps are
    right, instead of RF 3; only re-deriving the whole joint sweep on
    the naive side catches the wrong pick."""
    spec = next(s for s in paper_experiments() if s.id == "ATR-FI*")
    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb)
    _assert_engines_agree(
        CompleteDataScheduler, application, clustering, architecture,
        rf_policy="joint",
    )
    original = OccupancyEngine.try_keep
    monkeypatch.setattr(
        OccupancyEngine, "try_keep",
        lambda self, candidate: self._rf >= 4 and original(self, candidate),
    )
    scheduler = CompleteDataScheduler(
        architecture, ScheduleOptions(rf_policy="joint")
    )
    dataflow = analyze_dataflow(application, clustering)
    schedule = scheduler.schedule(application, clustering, dataflow=dataflow)
    naive = naive_sweep_schedule(scheduler, schedule)
    assert (schedule.rf, naive.rf) == (4, 3)
    assert schedule.keeps == naive_keep_selection(
        dataflow, architecture.fb_set_words, schedule.rf,
        scheduler._ranked_candidates(dataflow),
    )
    mismatch = naive_sweep_mismatch(scheduler, dataflow, schedule)
    assert mismatch is not None and "'rf'" in mismatch
