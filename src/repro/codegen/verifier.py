"""Static verification of generated programs.

The verifier replays a program symbolically on the shared residency
walk (:class:`~repro.codegen.residency.ResidencyReplay`), which tracks
frame-buffer-set contents and context-memory residency across visits,
and rejects any program that:

* launches a kernel whose contexts are not in the visit's CM block, or
  overflows a CM block;
* launches a kernel before one of its input instances is present in
  the executing FB set (use-before-load — the bug class retention
  decisions could introduce);
* stores an instance that is not present, or was never produced;
* fails to store some final output instance, or stores one twice;
* skips or duplicates an iteration of any kernel.

Two entry points share one replay:

* :func:`verify_program` raises :class:`ProgramVerificationError` on
  the **first** violation (the historical contract — callers gate on
  it before simulation);
* :func:`collect_program_violations` replays the whole program and
  returns every violation as a structured :class:`ProgramViolation`,
  which the lint framework (:mod:`repro.lint`) converts into
  diagnostics with rule codes ``PROG001``-``PROG006``.

A program that passes the verifier is guaranteed to be *functionally*
executable; the simulator then adds timing (and, in functional mode,
actually computes values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Tuple

from repro.codegen.fastverify import fast_violation_free
from repro.codegen.ops import VisitOps
from repro.codegen.program import Program
from repro.codegen.residency import ResidencyReplay
from repro.errors import ProgramVerificationError

__all__ = [
    "ProgramViolation",
    "verify_program",
    "collect_program_violations",
    "iter_program_violations",
]


@dataclass(frozen=True)
class ProgramViolation:
    """One invariant violation found while replaying a program.

    Attributes:
        code: lint rule code (``PROG001``-``PROG006``, see
            ``docs/lint_rules.md``).
        message: human-readable description (identical wording to the
            historical :class:`ProgramVerificationError` messages).
        location: where in the program, e.g. ``"visit 7"``.
        cost_words: words of traffic or capacity implicated.
        details: JSON-safe extra facts.
    """

    code: str
    message: str
    location: str
    cost_words: int = 0
    details: Mapping[str, object] = field(default_factory=dict)


def verify_program(program: Program) -> None:
    """Raise :class:`ProgramVerificationError` on the first violation.

    Template-compiled programs take the vectorized clean-check first
    (:mod:`repro.codegen.fastverify`); anything it cannot prove clean
    falls back to the reference replay, so raised payloads are always
    the reference's.
    """
    if fast_violation_free(program):
        return
    for violation in iter_program_violations(program):
        raise ProgramVerificationError(violation.message)


def collect_program_violations(program: Program) -> List[ProgramViolation]:
    """Replay the whole program and return every violation found.

    Unlike :func:`verify_program` the replay continues past a violation
    (assuming the intended state where possible), so one broken visit
    does not hide later, independent bugs.  Template-compiled programs
    short-circuit through the vectorized clean-check; the violation
    list itself always comes from the reference replay.
    """
    if fast_violation_free(program):
        return []
    return list(iter_program_violations(program))


def iter_program_violations(program: Program) -> Iterator[ProgramViolation]:
    """Lazily yield violations in replay order (visit by visit)."""
    replay = _ViolationReplay(program)
    found = replay.violations
    for ops in program.visits:
        replay.step(ops)
        if found:
            yield from found
            found.clear()
    yield from replay.totals()


class _ViolationReplay(ResidencyReplay[bool]):
    """The residency replay, reporting what breaks the rules."""

    def __init__(self, program: Program) -> None:
        schedule = program.schedule
        super().__init__(schedule)
        self.application = schedule.application
        self.violations: List[ProgramViolation] = []
        self.stored: Dict[Tuple[str, int], int] = {}
        self.runs: Dict[Tuple[str, int], int] = {}
        self.block_capacity = self.rules.block_capacity(
            ops.context_words for ops in program.visits
        )
        self.external_names = set(self.application.external_inputs())

    def _report(self, code: str, ops: VisitOps, message: str,
                cost_words: int = 0, **details: object) -> None:
        self.violations.append(ProgramViolation(
            code, f"visit {ops.visit.index}: {message}",
            f"visit {ops.visit.index}", cost_words=cost_words,
            details=details,
        ))

    def begin_visit(self, ops: VisitOps) -> None:
        visit = ops.visit
        cluster = self.rules.schedule.clustering[visit.cluster_index]
        if cluster.fb_set != visit.fb_set:
            self._report(
                "PROG006", ops,
                f"cluster {cluster.name} is on set {cluster.fb_set}, "
                f"visit claims set {visit.fb_set}",
                cluster=cluster.name,
            )

    def on_context_load(self, ops: VisitOps, load, extent) -> None:
        words = extent.end
        if words > self.block_capacity:
            block = ops.visit.cm_block
            self._report(
                "PROG002", ops,
                f"CM block {block} overflows "
                f"({words} > {self.block_capacity} words)",
                cost_words=words - self.block_capacity, cm_block=block,
            )

    def on_load(self, ops: VisitOps, load, previous) -> bool:
        if previous is not None:
            self._report(
                "PROG005", ops,
                f"redundant load of {load.name}#{load.iteration} "
                f"(already in set{ops.visit.fb_set})",
                cost_words=load.words,
                object=load.name, iteration=load.iteration,
            )
        if (load.name not in self.external_names
                and (load.name, load.iteration) not in self.stored):
            self._report(
                "PROG005", ops,
                f"load of result {load.name}#{load.iteration} which was "
                f"never stored to external memory",
                cost_words=load.words,
                object=load.name, iteration=load.iteration,
            )
        return True

    def begin_run(self, ops: VisitOps, run, region) -> None:
        if region is None:
            block = ops.visit.cm_block
            self._report(
                "PROG002", ops,
                f"kernel {run.kernel!r} launched without contexts in CM "
                f"block {block}",
                kernel=run.kernel, cm_block=block,
            )
        key = (run.kernel, run.iteration)
        self.runs[key] = self.runs.get(key, 0) + 1

    def on_missing_operand(self, ops: VisitOps, run, name: str,
                           instance: int) -> None:
        dataflow = self.rules.schedule.dataflow
        self._report(
            "PROG001", ops,
            f"kernel {run.kernel!r} iteration {run.iteration} reads "
            f"{name}#{instance} which is not in set{ops.visit.fb_set}",
            cost_words=dataflow[name].size if name in dataflow else 0,
            kernel=run.kernel, object=name, iteration=run.iteration,
        )

    def on_output(self, ops: VisitOps, run, name: str, previous) -> bool:
        return True

    def on_store(self, ops: VisitOps, store, value) -> None:
        if value is None:
            self._report(
                "PROG003", ops,
                f"store of {store.name}#{store.iteration} which is not in "
                f"set{ops.visit.fb_set}",
                cost_words=store.words,
                object=store.name, iteration=store.iteration,
            )
        if self.application.producer_of(store.name) is None:
            self._report(
                "PROG003", ops, f"store of external data {store.name!r}",
                cost_words=store.words, object=store.name,
            )
        key = (store.name, store.iteration)
        self.stored[key] = self.stored.get(key, 0) + 1

    def totals(self) -> Iterator[ProgramViolation]:
        """PROG004: every kernel iteration ran, and every final output
        instance was stored, exactly once."""
        application = self.application
        iterations = range(application.total_iterations)
        for kernel in application.kernels:
            for iteration in iterations:
                count = self.runs.get((kernel.name, iteration), 0)
                if count != 1:
                    yield ProgramViolation(
                        "PROG004",
                        f"kernel {kernel.name!r} iteration {iteration} "
                        f"executed {count} times (expected once)",
                        "program",
                        details={"kernel": kernel.name,
                                 "iteration": iteration, "count": count},
                    )
        objects = application.objects
        for name in application.final_outputs:
            size = objects[name].size if name in objects else 0
            for iteration in iterations:
                count = self.stored.get((name, iteration), 0)
                if count != 1:
                    yield ProgramViolation(
                        "PROG004",
                        f"final output {name!r} iteration {iteration} "
                        f"stored {count} times (expected once)",
                        "program",
                        cost_words=size * abs(count - 1),
                        details={"object": name, "iteration": iteration,
                                 "count": count},
                    )
