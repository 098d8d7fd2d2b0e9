"""Code generation: lowering a schedule to an op-level program.

The code generator plays the role of the last stage of the paper's
compilation framework (Figure 2): it turns a :class:`Schedule` into an
explicit sequence of *visits* — (round, cluster) pairs — each carrying
its context loads, data loads, kernel launches and result stores.  The
program is what the event-driven simulator executes and what the static
verifier checks.
"""

from repro.codegen.fastverify import fast_violation_free
from repro.codegen.generator import TemplateVisits, generate_program
from repro.codegen.ops import (
    LoadContext,
    LoadData,
    RunKernel,
    StoreData,
    Visit,
    VisitOps,
)
from repro.codegen.program import Program
from repro.codegen.verifier import (
    ProgramViolation,
    collect_program_violations,
    iter_program_violations,
    verify_program,
)

__all__ = [
    "LoadContext",
    "LoadData",
    "Program",
    "ProgramViolation",
    "RunKernel",
    "StoreData",
    "TemplateVisits",
    "Visit",
    "VisitOps",
    "collect_program_violations",
    "fast_violation_free",
    "generate_program",
    "iter_program_violations",
    "verify_program",
]
