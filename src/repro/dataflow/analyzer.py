"""Driving the hazard passes over programs and schedules.

:func:`analyze_program` is the one-stop entry point: lower the program
to the def-use IR, build the happens-before graph for the requested DMA
policy, run all five hazard passes, and return the findings in a
standard :class:`~repro.lint.diagnostics.DiagnosticCollector` so the
lint reporters (text and JSON) render them unchanged.

The lint imports happen lazily inside the functions: the lint package
itself imports :mod:`repro.lint.hazard_passes`, which imports this
package, and module-level imports in the other direction would cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.codegen.program import Program
from repro.dataflow.hazards import HappensBefore
from repro.dataflow.ir import ProgramIR, lower_program
from repro.dataflow.passes import HAZARD_RULES, run_hazard_passes
from repro.schedule.context_scheduler import DmaPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.diagnostics import DiagnosticCollector
    from repro.schedule.plan import Schedule

__all__ = [
    "analyze_program",
    "analyze_schedule",
    "build_ir",
    "hazard_errors",
    "parse_policy",
]

_POLICY_NAMES = {policy.name.lower(): policy for policy in DmaPolicy}


class _ProgramAnalysis:
    """Memoized default-allocation IR and happens-before graphs for one
    program object.

    Analyzing one program under several DMA policies (``repro analyze
    --policy sound``, the ``hazards`` fuzz oracle) used to rebuild the
    allocation maps and the whole def-use IR per policy; the IR is
    policy-independent, and the happens-before closure only depends on
    (program, policy).  The entry lives on the program it describes
    (``Program`` is not hashable, but its lowering is pure), so it dies
    with the program: the IR points back at its program, and a memo
    held anywhere else would keep every analyzed program alive.
    Pickling drops the memoized state.
    """

    __slots__ = ("allocations", "ir", "hb_by_policy")

    def __init__(self) -> None:
        self.allocations: Optional[Sequence[object]] = None
        self.ir: Optional[ProgramIR] = None
        self.hb_by_policy: Dict[DmaPolicy, HappensBefore] = {}

    def __reduce__(self):
        return (_ProgramAnalysis, ())


_MEMO_ATTRIBUTE = "_hazard_analysis"


def _analysis_for(program: Program) -> _ProgramAnalysis:
    entry = program.__dict__.get(_MEMO_ATTRIBUTE)
    if entry is None:
        entry = _ProgramAnalysis()
        # Program is a frozen dataclass; the memo is not a field, so
        # equality, hashing and repr are unaffected.
        object.__setattr__(program, _MEMO_ATTRIBUTE, entry)
    return entry


def _ir_for(program: Program) -> ProgramIR:
    """The default-allocation IR of *program*, memoized per program."""
    entry = _analysis_for(program)
    if entry.ir is None:
        from repro.alloc.allocator import FrameBufferAllocator

        entry.allocations = FrameBufferAllocator(program.schedule).allocate()
        entry.ir = lower_program(program, allocations=entry.allocations)
    return entry.ir


def _happens_before_for(program: Program, ir: ProgramIR,
                        policy: DmaPolicy) -> HappensBefore:
    """The happens-before closure for (program, policy), memoized."""
    entry = _analysis_for(program)
    hb = entry.hb_by_policy.get(policy)
    if hb is None:
        hb = entry.hb_by_policy[policy] = HappensBefore.build(ir, policy=policy)
    return hb


def parse_policy(text: str) -> DmaPolicy:
    """Parse a DMA policy name (case-insensitive)."""
    try:
        return _POLICY_NAMES[text.strip().lower()]
    except KeyError:
        known = ", ".join(sorted(_POLICY_NAMES))
        raise ValueError(
            f"unknown DMA policy {text!r}; expected one of: {known}"
        ) from None


def analyze_program(
    program: Program,
    *,
    allocations: Optional[Sequence[object]] = None,
    policy: DmaPolicy = DmaPolicy.CONTEXTS_FIRST,
    collector: Optional["DiagnosticCollector"] = None,
) -> "DiagnosticCollector":
    """Run the hazard passes over one compiled program.

    Args:
        program: the program to analyze.
        allocations: ``(set0, set1)`` allocation maps; computed with the
            default :class:`~repro.alloc.allocator.FrameBufferAllocator`
            when omitted.
        policy: the DMA serialization policy to build the happens-before
            graph for.
        collector: collector to accumulate into (fresh when omitted);
            carries severity overrides and suppressions.
    """
    import repro.lint  # noqa: F401  (registers the HAZ/DFA rules)
    from repro.lint.diagnostics import Diagnostic, DiagnosticCollector
    from repro.lint.registry import RULES

    if allocations is None:
        # Default-allocation analysis: share the IR and the per-policy
        # happens-before graphs across calls on the same program.
        ir = _ir_for(program)
        hb = _happens_before_for(program, ir, policy)
    else:
        ir = lower_program(program, allocations=allocations)
        hb = HappensBefore.build(ir, policy=policy)
    if collector is None:
        collector = DiagnosticCollector()
    for code in HAZARD_RULES:
        collector.mark_checked(code)

    def emit(code: str, message: str, *, location: str = "",
             cost_words: int = 0, **details: object):
        rule = RULES[code]
        return collector.add(Diagnostic(
            code=code,
            severity=rule.severity,
            layer=rule.layer,
            location=location,
            message=message,
            cost_words=cost_words,
            details=details,
        ))

    run_hazard_passes(ir, hb, emit)
    return collector


def analyze_schedule(
    schedule: "Schedule",
    *,
    policy: DmaPolicy = DmaPolicy.CONTEXTS_FIRST,
    collector: Optional["DiagnosticCollector"] = None,
) -> Tuple[Program, "DiagnosticCollector"]:
    """Lower *schedule* and analyze the generated program."""
    from repro.codegen.generator import generate_program

    program = generate_program(schedule)
    return program, analyze_program(
        program, policy=policy, collector=collector
    )


def hazard_errors(collector: "DiagnosticCollector") -> Tuple[object, ...]:
    """The error-severity HAZ findings in *collector* (the CI gate)."""
    return tuple(
        diagnostic for diagnostic in collector.errors
        if diagnostic.code.startswith("HAZ")
    )


def build_ir(
    program: Program,
    *,
    allocations: Optional[Sequence[object]] = None,
) -> ProgramIR:
    """Convenience wrapper: allocations + lowering in one call."""
    if allocations is None:
        return _ir_for(program)
    return lower_program(program, allocations=allocations)
