"""``compile_many`` vs. one scheduler call per request.

:func:`repro.schedule.batch.compile_many` must return, for every
request, exactly what the request's scheduler returns on its own: the
same schedule, or the same :class:`~repro.errors.InfeasibleScheduleError`
payload (message, cluster, word counts).  Infeasible cases must never
poison their batch neighbors.  These tests cover the batch shapes:
empty, single, all-infeasible and mixed.
"""

import pytest

from repro.arch.params import Architecture
from repro.errors import InfeasibleScheduleError
from repro.fuzz.case import FuzzCase
from repro.fuzz.generator import generate_case
from repro.schedule.basic import BasicScheduler
from repro.schedule.batch import CompileRequest, compile_many
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.workloads.random_gen import random_application

_SCHEDULERS = {
    "basic": BasicScheduler,
    "ds": DataScheduler,
    "cds": CompleteDataScheduler,
}


def _error_payload(error):
    return (str(error), error.cluster, error.required, error.available)


def _solo(request):
    """The request's scheduler run on its own."""
    scheduler = _SCHEDULERS[request.scheduler](
        request.architecture, request.options
    )
    try:
        return scheduler.schedule(request.application, request.clustering)
    except InfeasibleScheduleError as exc:
        return exc


def _assert_matches_solo_runs(requests):
    results = compile_many(requests)
    assert len(results) == len(requests)
    for index, (result, request) in enumerate(zip(results, requests)):
        solo = _solo(request)
        if isinstance(solo, InfeasibleScheduleError):
            assert result.schedule is None, f"request {index} feasible"
            assert _error_payload(result.error) == _error_payload(solo)
        else:
            assert result.error is None, f"request {index} infeasible"
            assert result.schedule == solo, f"request {index} diverged"
    return results


def _case_requests(case: FuzzCase):
    application, clustering = case.build()
    architecture = case.architecture()
    return [
        CompileRequest(name, application, architecture,
                       clustering=clustering)
        for name in _SCHEDULERS
    ]


def test_empty_batch():
    assert compile_many([]) == []


def test_single_case_batch():
    application, clustering = random_application(7, iterations=4)
    results = _assert_matches_solo_runs([
        CompileRequest("cds", application, Architecture.m1("4K"),
                       clustering=clustering)
    ])
    assert len(results) == 1 and results[0].feasible


def test_all_infeasible_batch():
    """Every case infeasible: identical error payloads, no schedule."""
    requests = []
    for seed in range(5):
        case = generate_case("tiny_fb", seed)
        case.fb_words = 64
        requests.extend(_case_requests(case))
    results = _assert_matches_solo_runs(requests)
    assert all(not r.feasible for r in results)
    for result in results:
        assert isinstance(result.error, InfeasibleScheduleError)
        with pytest.raises(InfeasibleScheduleError):
            result.unwrap()


def test_mixed_batch_no_neighbor_poisoning():
    """Feasible cases schedule identically whether or not infeasible
    cases share their batch."""
    feasible_app, feasible_cl = random_application(11, iterations=4)
    architecture = Architecture.m1("4K")
    feasible = [
        CompileRequest(name, feasible_app, architecture,
                       clustering=feasible_cl)
        for name in _SCHEDULERS
    ]
    doomed_case = generate_case("tiny_fb", 0)
    doomed_case.fb_words = 64
    doomed = _case_requests(doomed_case)

    alone = compile_many(feasible)
    # Infeasible requests interleaved before, between, and after.
    mixed_requests = [doomed[0], feasible[0], doomed[1], feasible[1],
                      feasible[2], doomed[2]]
    mixed = compile_many(mixed_requests)
    survivors = [mixed[1], mixed[3], mixed[4]]
    for solo, shared in zip(alone, survivors):
        assert solo.feasible and shared.feasible
        assert solo.schedule == shared.schedule
    for index in (0, 2, 5):
        assert not mixed[index].feasible
    _assert_matches_solo_runs(mixed_requests)
