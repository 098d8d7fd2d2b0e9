"""A brute-force residency model, written independently of the shared
residency replay that the verifier, the hazard IR and the functional
simulator all run on.

The model derives, from plan loads and kernel reads alone, which object
names each FB set holds once a visit ends: the visit's set gains the
visit's loads and outputs, then keeps only the kept items that a later
cluster of the round still reads without loading them; the round's last
visit empties both sets.  The value lifetimes of the lowered IR (each
value is resident after the visits ``def_visit .. end_visit - 1``) must
agree with it visit by visit.
"""

import pytest

from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.dataflow.ir import lower_program
from repro.schedule.base import ScheduleOptions
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.workloads import paper_experiments

SCHEDULERS = (BasicScheduler, DataScheduler, CompleteDataScheduler)


def _cross_app(invariant):
    return (
        Application.build("cross", total_iterations=8)
        .data("d1", 128).data("d2", 128)
        .data("both", 96, invariant=invariant)
        .kernel("k1", context_words=16, cycles=200,
                inputs=["d1", "both"],
                outputs=["r1"], result_sizes={"r1": 64})
        .kernel("k2", context_words=16, cycles=200,
                inputs=["d2", "both", "r1"],
                outputs=["out"], result_sizes={"out": 64})
        .final("out")
        .finish()
    )


def _schedules():
    for spec in paper_experiments():
        app, clustering = spec.build()
        for scheduler_cls in SCHEDULERS:
            yield scheduler_cls(Architecture.m1(spec.fb)).schedule(
                app, clustering
            )
    cross_arch = Architecture.m1("1K", fb_cross_set_access=True)
    for invariant in (False, True):
        app = _cross_app(invariant)
        yield CompleteDataScheduler(
            cross_arch, ScheduleOptions(cross_set_retention=True)
        ).schedule(app, Clustering.per_kernel(app))


def model_resident(schedule):
    """Names per set after each visit, derived from the plans."""
    clusters = list(schedule.clustering)
    kernels = {
        cluster.index: schedule.clustering.kernels_of(cluster)
        for cluster in clusters
    }
    loads = {
        cluster.index: set(schedule.plan_for(cluster.index).loads)
        for cluster in clusters
    }
    read_in_place = {
        index: {name for kernel in kernels[index] for name in kernel.inputs}
        - loads[index]
        for index in kernels
    }
    homes = {keep.name: keep.fb_set for keep in schedule.keeps}
    content = [set(), set()]
    after = []
    for _ in range(schedule.rounds):
        for cluster in clusters:
            fb_set = cluster.fb_set
            content[fb_set] |= loads[cluster.index]
            content[fb_set] |= {
                name for kernel in kernels[cluster.index]
                for name in kernel.outputs
            }
            later = [c.index for c in clusters if c.index > cluster.index]
            content[fb_set] = {
                name for name in content[fb_set]
                if homes.get(name) == fb_set
                and any(name in read_in_place[index] for index in later)
            }
            if not later:
                content = [set(), set()]
            after.append((frozenset(content[0]), frozenset(content[1])))
    return after


def ir_resident(program):
    """Names per set after each visit, read off the IR's lifetimes."""
    after = [(set(), set()) for _ in program.visits]
    for value in lower_program(program).values:
        for visit in range(value.def_visit, value.end_visit):
            after[visit][value.fb_set].add(value.name)
    return [(frozenset(zero), frozenset(one)) for zero, one in after]


def _mismatches():
    found = []
    for schedule in _schedules():
        program = generate_program(schedule)
        if model_resident(schedule) != ir_resident(program):
            found.append(
                (schedule.application.name, schedule.scheduler)
            )
    return found


def test_replay_matches_brute_force_model():
    assert _mismatches() == []


def test_model_catches_survivor_off_by_one(monkeypatch):
    """A survivor rule that keeps items through their last consumer's
    visit (``first <= c <= last``) disagrees with the model."""

    def one_visit_too_long(rules, cluster_index, fb_set):
        return frozenset(
            keep.name for keep in rules.schedule.keeps
            if keep.fb_set == fb_set
            and keep.span[0] <= cluster_index <= keep.span[1]
        )

    monkeypatch.setattr(
        "repro.codegen.residency.ResidencyRules.survivors", one_visit_too_long
    )
    assert _mismatches()


@pytest.mark.parametrize("invariant", [False, True])
def test_cross_set_keeps_survive_until_their_reader(invariant):
    """The model itself: a cross-set keep stays in its home set until
    the reading cluster of the other set has run."""
    app = _cross_app(invariant)
    schedule = CompleteDataScheduler(
        Architecture.m1("1K", fb_cross_set_access=True),
        ScheduleOptions(cross_set_retention=True),
    ).schedule(app, Clustering.per_kernel(app))
    after = model_resident(schedule)
    assert after[0] == (frozenset({"both", "r1"}), frozenset())
    assert after[1] == (frozenset(), frozenset())
