"""The fuzz campaign driver: regimes x seeds, shrink, persist, report.

``run_fuzz`` fans the case matrix out over
:func:`~repro.analysis.parallel.parallel_map` (each worker generates
its case and runs the full oracle stack), then shrinks every failure in
the parent and persists the minimal reproducers as JSON ready to drop
into ``tests/corpus/``.  Campaign counters land in the observability
metrics registry under scope ``fuzz`` when collection is on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.parallel import parallel_map
from repro.fuzz.case import FuzzCase
from repro.fuzz.generator import generate_case, regime_names
from repro.fuzz.oracles import ORACLE_NAMES, OracleFailure, run_oracles
from repro.fuzz.shrink import shrink_case
from repro.obs import metrics
from repro.workloads.spec import paper_experiments

__all__ = ["FuzzReport", "FuzzFinding", "run_fuzz"]


@dataclass
class FuzzFinding:
    """One oracle violation, with its shrunk reproducer."""

    failure: OracleFailure
    case: FuzzCase
    shrunk: Optional[FuzzCase] = None
    reproducer_path: Optional[str] = None

    def to_dict(self) -> Dict:
        return {
            "failure": self.failure.to_dict(),
            "case": self.case.to_dict(),
            "shrunk": self.shrunk.to_dict() if self.shrunk else None,
            "reproducer_path": self.reproducer_path,
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    cases_run: int = 0
    regimes: Tuple[str, ...] = ()
    findings: List[FuzzFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.cases_run} cases across "
            f"{len(self.regimes)} regimes ({', '.join(self.regimes)}): "
            f"{'all oracles clean' if self.ok else f'{len(self.findings)} violations'}"
        ]
        for finding in self.findings:
            failure = finding.failure
            where = f" [{failure.scheduler}]" if failure.scheduler else ""
            lines.append(
                f"  [{failure.oracle}] {failure.case}{where}: "
                f"{failure.message}"
            )
            if finding.reproducer_path:
                lines.append(f"    reproducer: {finding.reproducer_path}")
        return "\n".join(lines)


def _fuzz_worker(task):
    """Generate one case and run the oracle stack (picklable worker)."""
    regime, seed, functional, cache_dir, oracles = task
    case = generate_case(regime, seed)
    cache = None
    if cache_dir is not None:
        from repro.cache import CacheStore

        cache = CacheStore(cache_dir)
    failures = run_oracles(
        case, oracles=oracles, functional=functional, cache=cache
    )
    return case.to_dict(), [failure.to_dict() for failure in failures]


def _paper_cases() -> List[FuzzCase]:
    """The Table-1 experiments as fuzz cases (the known-good anchors)."""
    cases = []
    for spec in paper_experiments():
        application, clustering = spec.build()
        cases.append(FuzzCase.from_workload(
            application, clustering, spec.fb_words,
            name=f"paper-{spec.id}", regime="paper",
        ))
    return cases


def _task_matrix(seeds: Sequence[int], regimes: Sequence[str],
                 quick: bool, functional: bool,
                 cache_dir: Optional[str],
                 oracles: Optional[Tuple[str, ...]]) -> List[Tuple]:
    if quick:
        # Round-robin: each seed exercises one regime, so a quick run
        # of N seeds costs N cases while still sweeping every regime.
        return [
            (regimes[index % len(regimes)], seed, functional, cache_dir,
             oracles)
            for index, seed in enumerate(seeds)
        ]
    return [
        (regime, seed, functional, cache_dir, oracles)
        for regime in regimes for seed in seeds
    ]


def run_fuzz(
    seeds: Sequence[int],
    *,
    regimes: Optional[Sequence[str]] = None,
    quick: bool = False,
    jobs: Optional[int] = None,
    shrink: bool = True,
    failures_dir: Optional[str] = None,
    include_paper: bool = True,
    functional: bool = True,
    cache_dir: Optional[str] = None,
    oracles: Optional[Sequence[str]] = None,
) -> FuzzReport:
    """Run one fuzz campaign.

    Args:
        seeds: generator seeds to sweep.
        regimes: regime subset (default: the whole matrix).
        quick: round-robin seeds across regimes (N cases) instead of
            the full cross product (N x regimes cases).
        jobs: :func:`~repro.analysis.parallel.parallel_map` fan-out
            (``0`` = one worker per CPU).
        shrink: shrink failures to minimal reproducers.
        failures_dir: directory to write reproducer JSON into (created
            on first failure).
        include_paper: also run the Table-1 experiment workloads
            through the oracle stack.
        functional: include the functional-simulation oracle.
        cache_dir: persistent pipeline-cache directory; oracle
            verdicts of unchanged cases are replayed from disk on
            warm reruns (byte-identical to a cold run).
        oracles: restrict the campaign to a subset of
            :data:`~repro.fuzz.oracles.ORACLE_NAMES` — e.g.
            ``("progequiv",)`` runs the wide codegen-backend sweep
            without simulation, cheap enough for a 5k-case CI pass.

    Returns:
        A :class:`FuzzReport`; ``report.ok`` is the pass/fail verdict.
    """
    chosen = tuple(regimes) if regimes else regime_names()
    unknown = set(chosen) - set(regime_names())
    if unknown:
        raise ValueError(f"unknown regimes: {sorted(unknown)}")
    oracle_subset = tuple(oracles) if oracles is not None else None
    if oracle_subset is not None:
        # Validate here, before any worker spawns: a bad name would
        # otherwise surface as one KeyError traceback per worker.
        unknown_oracles = set(oracle_subset) - set(ORACLE_NAMES)
        if unknown_oracles:
            raise ValueError(
                f"unknown oracles: {sorted(unknown_oracles)}; known: "
                f"{', '.join(ORACLE_NAMES)}"
            )
    tasks = _task_matrix(
        list(seeds), chosen, quick, functional, cache_dir, oracle_subset
    )
    outcomes = parallel_map(_fuzz_worker, tasks, jobs=jobs, chunksize=4)

    report = FuzzReport(regimes=chosen)
    raw: List[Tuple[FuzzCase, List[OracleFailure]]] = []
    for case_dict, failure_dicts in outcomes:
        raw.append((
            FuzzCase.from_dict(case_dict),
            [OracleFailure(**failure) for failure in failure_dicts],
        ))
    if include_paper:
        cache = None
        if cache_dir is not None:
            from repro.cache import CacheStore

            cache = CacheStore(cache_dir)
        for case in _paper_cases():
            raw.append((
                case,
                run_oracles(
                    case, oracles=oracle_subset, functional=functional,
                    cache=cache,
                ),
            ))

    report.cases_run = len(raw)
    metrics.inc("cases", len(raw), scope="fuzz")
    for case, failures in raw:
        if failures:
            metrics.inc("failing_cases", scope="fuzz")
        for failure in failures:
            metrics.inc(f"oracle.{failure.oracle}", scope="fuzz")
            finding = FuzzFinding(failure=failure, case=case)
            if shrink:
                finding.shrunk = shrink_case(case, failure.oracle)
            reproducer = finding.shrunk or case
            if failures_dir is not None:
                directory = Path(failures_dir)
                directory.mkdir(parents=True, exist_ok=True)
                path = directory / f"{case.name}-{failure.oracle}.json"
                reproducer.failing_oracle = failure.oracle
                reproducer.save(path)
                finding.reproducer_path = str(path)
            report.findings.append(finding)
    return report
