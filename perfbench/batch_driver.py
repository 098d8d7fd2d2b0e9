"""The batch workloads' program process: ``corpus_cold`` and ``fb_sweep``.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Protocol on stdout: one ``READY`` line once ``import repro``
has finished (the parent times set-up up to it), then one JSON object
with the run's measurements.  ``--setup-only`` exits after ``READY``.

Each operation is one call of a public driver — ``corpus_study`` over
one seeded workload, or ``sweep_fb_sizes`` over one workload's FB
grid — and its outputs are checked against the paper and a recorded
digest.  The machine's speed index is measured before each call (see
``speed.py``).  With ``--trace 1`` the same operations run twice: untraced
for the first half of the time, then traced over exactly the same
inputs, which gives both the per-layer spans and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

import repro

print("READY", flush=True)

import speed  # noqa: E402
from workloads import REFERENCE_ROWS, corpus_seed, sweep_inputs  # noqa: E402

#: sha256 of :func:`_stats_digest_payload` over the reference corpus
#: (generator seeds 0..59) that every ``corpus_cold`` run starts with.
CORPUS_DIGEST = "15974f4ff3df2a8750b880d14f8bb3f8175297d4387d28ff46152428c526fff0"


def _stats_digest_payload(stats) -> dict:
    return {
        "seeds_total": stats.seeds_total,
        "feasible": stats.feasible,
        "infeasible": stats.infeasible,
        "with_keeps": stats.with_keeps,
        "cds_strictly_faster_than_ds": stats.cds_strictly_faster_than_ds,
        "cds_regressions_vs_ds": stats.cds_regressions_vs_ds,
        "ds_improvements_pct": [round(v, 9) for v in stats.ds_improvements_pct],
        "cds_improvements_pct": [round(v, 9) for v in stats.cds_improvements_pct],
        "hazard_flagged": stats.hazard_flagged,
        "dead_transfer_words": stats.dead_transfer_words,
        "retention_waste_words": stats.retention_waste_words,
    }


def _merge(total: dict, part: dict) -> dict:
    if not total:
        return dict(part)
    merged = {}
    for key, value in part.items():
        merged[key] = total[key] + value
    return merged


class CorpusCold:
    """``corpus_study`` at FB 16K, 48 iterations, serial, no cache, one
    workload per call so that each call's latency is one workload's."""

    def __init__(self, seed: int) -> None:
        from repro.analysis.corpus import corpus_study

        self.seed = seed
        self.study = corpus_study
        self.digest_rows: dict = {}
        self.digest_done = False

    def inputs(self, index: int):
        return [corpus_seed(self.seed, index)]

    def run(self, seeds):
        return self.study(seeds, fb="16K", iterations=48)

    def check(self, index: int, seeds, stats) -> int:
        """Rows failing the checks: CDS regressions vs DS and
        hazard-flagged rows; the reference rows must also match the
        recorded digest."""
        failed = stats.cds_regressions_vs_ds + stats.hazard_flagged
        if not self.digest_done:
            self.digest_rows = _merge(
                self.digest_rows, _stats_digest_payload(stats)
            )
            if self.digest_rows["seeds_total"] >= REFERENCE_ROWS:
                self.digest_done = True
                text = json.dumps(self.digest_rows, sort_keys=True)
                if hashlib.sha256(text.encode()).hexdigest() != CORPUS_DIGEST:
                    print(f"corpus digest mismatch: {text}", file=sys.stderr)
                    failed += REFERENCE_ROWS
        return failed

    def items(self, seeds) -> int:
        return len(seeds)

    def fixed_ops(self) -> int:
        """Operations always run: the reference corpus.  Peak RSS is
        read after them, so it does not grow with run length."""
        return REFERENCE_ROWS

    def is_reference(self, seeds) -> bool:
        return seeds[0] < REFERENCE_ROWS


class FbSweep:
    """``sweep_fb_sizes`` over Table 1 plus seeded random workloads."""

    def __init__(self, seed: int) -> None:
        from repro.analysis.sweep import sweep_fb_sizes

        self.seed = seed
        self.sweep = sweep_fb_sizes
        self.built: dict = {}

    def inputs(self, index: int):
        return sweep_inputs(self.seed, index, self.built)

    def run(self, item):
        _, application, clustering, sizes, _ = item
        return self.sweep(application, clustering, sizes)

    def check(self, index: int, item, points) -> int:
        """At the experiment's paper FB size: the paper's RF and
        CDS >= DS >= Basic.  Random workloads have no paper row."""
        name, _, _, sizes, spec = item
        if len(points) != len(sizes):
            return len(sizes)
        if spec is None:
            return 0
        point = next(p for p in points if p.fb_words == spec.fb_words)
        ok = (
            point.basic_feasible and point.ds_feasible
            and point.rf == spec.paper_rf
            and point.cds_improvement_pct >= point.ds_improvement_pct - 1e-9
            and point.ds_improvement_pct >= -1e-9
            and point.cds_improvement_pct > 0
        )
        if not ok:
            print(f"fb_sweep check failed for {name}: {point}", file=sys.stderr)
        return 0 if ok else 1

    def items(self, item) -> int:
        return len(item[3])

    def fixed_ops(self) -> int:
        """The first pass over Table 1, before any random workload."""
        from repro.workloads.spec import paper_experiments

        return len(paper_experiments())

    def is_reference(self, item) -> bool:
        return item[4] is not None


WORKLOADS = {"corpus_cold": CorpusCold, "fb_sweep": FbSweep}


#: Operations reuse the last speed index for this long.
CALIBRATION_PERIOD_S = 0.5


def run_ops(workload, tracer, *, deadline=None, count=None):
    """Run operations until *deadline* (perf_counter) or *count* ops,
    and at least ``workload.fixed_ops()``.

    Returns ``(latencies_s, speed_indices, reference, items, failed,
    peak_rss_kb, wall_s)``: each operation's wall time, the machine's
    speed index measured at most ``CALIBRATION_PERIOD_S`` before it and
    whether its inputs are the same on every seed; the peak RSS read
    after the fixed operations, and the loop's wall time without the
    calibrations.
    """
    latencies = []
    indices = []
    reference = []
    items = failed = 0
    peak_rss_kb = 0
    wall = 0.0
    index = 0
    next_calibration = 0.0
    while True:
        if count is not None and index >= count:
            break
        if (count is None and index >= workload.fixed_ops()
                and time.perf_counter() >= deadline):
            break
        if time.perf_counter() >= next_calibration:
            speed_index = speed.speed_index()
            next_calibration = time.perf_counter() + CALIBRATION_PERIOD_S
        step = time.perf_counter()
        item = workload.inputs(index)
        began = time.perf_counter()
        if tracer is None:
            result = workload.run(item)
        else:
            with tracer.span("analysis.driver"):
                result = workload.run(item)
        latencies.append(time.perf_counter() - began)
        indices.append(speed_index)
        reference.append(workload.is_reference(item))
        items += workload.items(item)
        failed += workload.check(index, item, result)
        index += 1
        if index == workload.fixed_ops():
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wall += time.perf_counter() - step
    return latencies, indices, reference, items, failed, peak_rss_kb, wall


def _scaled_s(latencies, indices) -> float:
    return sum(l * i for l, i in zip(latencies, indices))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        return 0
    workload = WORKLOADS[args.workload](args.seed)
    result = {"repro_file": repro.__file__}
    if not args.trace:
        latencies, indices, reference, items, failed, peak_rss_kb, _ = run_ops(
            workload, None, deadline=time.perf_counter() + args.seconds
        )
        result.update(
            latencies_s=latencies, speed_indices=indices,
            reference=reference, items=items, failed=failed,
            peak_rss_kb=peak_rss_kb,
        )
    else:
        import spans

        plain = run_ops(
            workload, None, deadline=time.perf_counter() + args.seconds / 2
        )
        tracer = spans.Tracer()
        spans.install(tracer)
        traced = run_ops(workload, tracer, count=len(plain[0]))
        wall = traced[6]
        result.update(
            items=traced[3], failed=plain[4] + traced[4], wall_s=wall,
            overhead_ratio=(
                _scaled_s(traced[0], traced[1]) / _scaled_s(plain[0], plain[1])
            ),
            layers=spans.layer_metrics(tracer.spans, wall),
        )
        if args.trace_out:
            payload = spans.chrome_events(
                {tracer.pid: tracer.spans},
                {tracer.pid: f"{args.workload} driver"},
            )
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
