"""Trace-off bulk path vs. traced simulation: identical reports.

``Simulator(machine, trace=False)`` skips recording the per-transfer
DMA trace and issues each visit's context / load / store group as one
contiguous block (the analysis drivers and service requests run this
way); the timing model must be unaffected.  Every field of the report —
the per-visit :class:`~repro.sim.report.VisitTiming` rows, makespan,
stalls, DMA busy time, traffic words and operation counts — must match
the traced run exactly; only the trace itself may differ.  Checked
across the paper experiments, the fuzz generator matrix, every DMA
policy and the serial (non-pipelined) Basic schedule shape.  On top,
the timing invariants any correct report must satisfy are
property-tested on the trace-off path.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.errors import InfeasibleScheduleError
from repro.fuzz.generator import generate_case, regime_names
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.context_scheduler import DmaPolicy
from repro.schedule.data_scheduler import DataScheduler
from repro.sim.engine import Simulator
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments

SCHEDULERS = (BasicScheduler, DataScheduler, CompleteDataScheduler)


def _programs(application, clustering, architecture):
    """One lowered program per feasible scheduler."""
    programs = []
    for scheduler_cls in SCHEDULERS:
        try:
            schedule = scheduler_cls(architecture).schedule(
                application, clustering
            )
        except InfeasibleScheduleError:
            continue
        programs.append((scheduler_cls.name, generate_program(schedule)))
    return programs


def _run(program, architecture, trace, policy=DmaPolicy.CONTEXTS_FIRST):
    return Simulator(
        MorphoSysM1(architecture), dma_policy=policy, trace=trace,
        verify=False,
    ).run(program)


def _assert_identical(
    program, architecture, label, policy=DmaPolicy.CONTEXTS_FIRST
):
    traced = _run(program, architecture, True, policy)
    untraced = _run(program, architecture, False, policy)
    assert traced.transfers, label
    assert not untraced.transfers, label
    assert traced.visits == untraced.visits, (
        f"{label}: per-visit timings diverge"
    )
    assert dataclasses.replace(traced, transfers=()) == untraced, (
        f"{label}: reports diverge"
    )


def test_paper_experiments_trace_off_aggregates_match():
    for spec in paper_experiments():
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        for name, program in _programs(
            application, clustering, architecture
        ):
            _assert_identical(program, architecture, f"{spec.id}/{name}")


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.sampled_from(["2K", "4K"]),
)
def test_random_workloads_trace_off_aggregates_match(seed, fb):
    application, clustering = random_application(seed, iterations=4)
    architecture = Architecture.m1(fb)
    try:
        schedule = CompleteDataScheduler(architecture).schedule(
            application, clustering
        )
    except InfeasibleScheduleError:
        return
    _assert_identical(generate_program(schedule), architecture, seed)


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("regime", regime_names())
    @pytest.mark.parametrize("seed", [0, 3, 11, 42])
    def test_fuzz_matrix(self, regime, seed):
        case = generate_case(regime, seed)
        try:
            application, clustering = case.build()
        except Exception:
            pytest.skip("case does not build")
        architecture = case.architecture()
        for name, program in _programs(
            application, clustering, architecture
        ):
            _assert_identical(program, architecture, f"{regime}/{seed}/{name}")

    @pytest.mark.parametrize(
        "spec", paper_experiments(), ids=lambda spec: spec.id
    )
    def test_paper_experiments(self, spec):
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        for name, program in _programs(
            application, clustering, architecture
        ):
            _assert_identical(program, architecture, f"{spec.id}/{name}")

    @pytest.mark.parametrize("policy", list(DmaPolicy))
    def test_every_dma_policy(self, policy):
        spec = next(
            s for s in paper_experiments() if s.id.upper() == "MPEG"
        )
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        for name, program in _programs(
            application, clustering, architecture
        ):
            _assert_identical(
                program, architecture, f"{policy.value}/{name}", policy
            )


class TestTimingInvariants:
    """Properties any valid report must satisfy, on the trace-off path."""

    def _reports(self):
        for spec in paper_experiments():
            application, clustering = spec.build()
            architecture = Architecture.m1(spec.fb)
            for name, program in _programs(
                application, clustering, architecture
            ):
                yield (
                    f"{spec.id}/{name}",
                    architecture,
                    _run(program, architecture, False),
                )

    def test_total_at_least_compute(self):
        for label, _, report in self._reports():
            assert report.total_cycles >= report.compute_cycles, label

    def test_dma_busy_matches_summed_transfer_costs(self):
        """``dma_busy_cycles`` is exactly the linear timing model summed
        over every transfer: one setup per transfer plus the per-word
        cost of each kind."""
        for label, architecture, report in self._reports():
            timing = architecture.timing
            count = (
                report.data_load_count
                + report.data_store_count
                + report.context_load_count
            )
            expected = (
                timing.dma_setup_cycles * count
                + (report.data_load_words + report.data_store_words)
                * timing.data_word_cycles
                + report.context_words * timing.context_word_cycles
            )
            assert report.dma_busy_cycles == expected, label

    def test_total_bounded_by_serial_sum(self):
        """Overlap can only shorten a run: the makespan never exceeds
        compute + all DMA traffic + stalls laid end to end."""
        for label, _, report in self._reports():
            assert (
                report.total_cycles
                <= report.compute_cycles
                + report.dma_busy_cycles
                + report.rc_stall_cycles
            ), label
