"""Compile many scheduling problems in one call.

:func:`compile_many` runs each :class:`CompileRequest` through its
per-case scheduler and captures infeasibility per request, so one
infeasible case never aborts its neighbors.  Each request is timed as
stage ``schedule`` of metrics scope ``pipeline.<scheduler>``, like
:func:`~repro.analysis.compare.run_scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.arch.params import Architecture
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.core.dataflow import DataflowInfo
from repro.errors import InfeasibleScheduleError
from repro.obs.metrics import time_stage
from repro.schedule.base import ScheduleOptions
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.schedule.plan import Schedule

__all__ = ["CompileRequest", "CompileResult", "compile_many"]

_SCHEDULERS = {
    "basic": BasicScheduler,
    "ds": DataScheduler,
    "cds": CompleteDataScheduler,
}


@dataclass
class CompileRequest:
    """One scheduling problem: which scheduler, on what, under which
    options.  ``clustering`` defaults to one cluster per kernel and
    ``dataflow`` is analyzed on demand, as in
    :meth:`~repro.schedule.base.DataSchedulerBase.schedule`."""

    scheduler: str
    application: Application
    architecture: Architecture
    clustering: Optional[Clustering] = None
    options: Optional[ScheduleOptions] = None
    dataflow: Optional[DataflowInfo] = None

    def __post_init__(self) -> None:
        if self.scheduler not in _SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"expected one of {sorted(_SCHEDULERS)}"
            )


@dataclass
class CompileResult:
    """Outcome of one request: a schedule or the infeasibility error."""

    schedule: Optional[Schedule]
    error: Optional[InfeasibleScheduleError]

    @property
    def feasible(self) -> bool:
        return self.schedule is not None

    def unwrap(self) -> Schedule:
        """The schedule, raising the captured error when infeasible."""
        if self.error is not None:
            raise self.error
        assert self.schedule is not None
        return self.schedule


def compile_many(requests: Sequence[CompileRequest]) -> List[CompileResult]:
    """One :class:`CompileResult` per request, in request order."""
    results: List[CompileResult] = []
    for request in requests:
        scheduler = _SCHEDULERS[request.scheduler](
            request.architecture, request.options
        )
        try:
            with time_stage("schedule", scope=f"pipeline.{scheduler.name}"):
                schedule = scheduler.schedule(
                    request.application, request.clustering,
                    dataflow=request.dataflow,
                )
        except InfeasibleScheduleError as exc:
            results.append(CompileResult(None, exc))
        else:
            results.append(CompileResult(schedule, None))
    return results
