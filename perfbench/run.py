"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

Run from the root of a checkout.  Workloads (see ``BENCHMARK.json`` and
``perfbench/README.md``):

* ``corpus_cold`` — ``corpus_study`` over seeded random workloads at FB
  16K / 48 iterations, serial, no cache;
* ``fb_sweep`` — ``sweep_fb_sizes`` over the twelve Table-1 experiments
  plus seeded random workloads on a 1K..32K grid;
* ``service_mix`` — a ``repro serve`` subprocess under an open-loop
  hot/fresh request mix, then a closed-loop capacity phase.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced and then traced over the same inputs, prints every
per-layer metric and writes the spans as a Chrome ``trace_event`` file
under ``.perfbench/``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import service_mix
import speed

BATCH_WORKLOADS = ("corpus_cold", "fb_sweep")
WORKLOADS = BATCH_WORKLOADS + ("service_mix",)
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _source_digest(root: Path) -> str:
    """Content hash of the program's sources (the checkout is not a
    git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="latin-1") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "source_digest": _source_digest(root),
        "seed": seed,
    }


# -- batch workloads ------------------------------------------------------------


def _spawn_until_ready(command, root: Path):
    """Start a batch child; returns ``(process, seconds to READY)``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    began = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE,
    )
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        ready = selector.select(CHILD_TIMEOUT_S)
    line = proc.stdout.readline() if ready else b""
    elapsed = time.perf_counter() - began
    if line.strip() != b"READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"batch child failed to start: {line!r}")
    return proc, elapsed


def run_batch(root: Path, out_dir: Path, args) -> dict:
    script = str(root / "perfbench" / "batch_driver.py")
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        index = speed.speed_index()
        proc, elapsed = _spawn_until_ready(
            [sys.executable, script, "--setup-only"], root
        )
        proc.communicate(timeout=CHILD_TIMEOUT_S)
        setups.append((elapsed, index))
    command = [
        sys.executable, script, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    trace_out = out_dir / f"trace_{args.workload}_{args.seed}.json"
    if args.trace:
        command += ["--trace-out", str(trace_out)]
    index = speed.speed_index()
    proc, elapsed = _spawn_until_ready(command, root)
    setups.append((elapsed, index))
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"batch child exited with {proc.returncode}")
    result = json.loads(stdout.decode().strip().splitlines()[-1])
    if not Path(result["repro_file"]).resolve().is_relative_to(
        (root / "src").resolve()
    ):
        raise RuntimeError(f"imported repro from {result['repro_file']}")
    if args.trace:
        layers = result["layers"]
        wall = result["wall_s"]
        attributed = sum(
            value for key, value in layers.items()
            if key.endswith("_s")
        )
        layers["trace.unattributed_s"] = wall - attributed
        layers["trace.coverage"] = attributed / wall
        layers["trace.overhead_ratio"] = result["overhead_ratio"]
        return {"attempted": result["items"], "failed": result["failed"],
                "layers": layers, "trace_file": str(trace_out)}
    raw_ms = [value * 1e3 for value in result["latencies_s"]]
    indices = result["speed_indices"]
    scaled_ms = [value * index for value, index in zip(raw_ms, indices)]
    # Latency percentiles come from the calls whose inputs every seed
    # shares; the seeded calls vary too much in size for a steady tail.
    reference = result["reference"]
    raw_ref = [v for v, ref in zip(raw_ms, reference) if ref]
    scaled_ref = [v for v, ref in zip(scaled_ms, reference) if ref]
    return {
        "attempted": result["items"],
        "failed": result["failed"],
        "samples": {"driver_calls": len(raw_ms),
                    "latency_calls": len(scaled_ref)},
        "speed_index": statistics.median(indices),
        "metrics": {
            "setup_s": statistics.median(t * i for t, i in setups),
            "throughput_per_s": result["items"] * 1e3 / sum(scaled_ms),
            "p50_ms": service_mix.percentile(scaled_ref, 0.50),
            "p99_ms": service_mix.percentile(scaled_ref, 0.99),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        },
        "raw": {
            "setup_s": statistics.median(t for t, _ in setups),
            "throughput_per_s": result["items"] * 1e3 / sum(raw_ms),
            "p50_ms": service_mix.percentile(raw_ref, 0.50),
            "p99_ms": service_mix.percentile(raw_ref, 0.99),
        },
    }


# -- reporting ------------------------------------------------------------------


def _print_breakdown(workload: str, layers: dict, spec: dict) -> None:
    print(f"per-layer breakdown of {workload} (traced run):")
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name.endswith("_share"):
            continue  # printed beside its self time
        line = f"  {name:<34} {layers.get(name, 0.0):>14.6g} {entry['unit']}"
        share = layers.get(name[:-2] + "_share")
        if share is not None:
            line += f"  ({share:6.1%} of wall)"
        print(line)
    print(
        f"  trace.coverage {layers['trace.coverage']:.3f}, unattributed "
        f"{layers['trace.unattributed_s']:.4f} s, overhead ratio "
        f"{layers['trace.overhead_ratio']:.3f}"
    )
    print("  note: Program stamps visits lazily, so most code generation "
          "cost is spent inside sim.run and dataflow.lower_program, not "
          "codegen.generate_program.")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program sources under {root / 'src'}; run from "
                     f"the root of a checkout")
    try:
        with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    sys.path.insert(0, str(root / "src"))

    if args.workload in BATCH_WORKLOADS:
        result = run_batch(root, out_dir, args)
    else:
        trace_out = out_dir / f"trace_{args.workload}_{args.seed}.json"
        result = service_mix.run(
            root, out_dir, args.seed, args.seconds, bool(args.trace),
            trace_out if args.trace else None,
        )
        if not args.trace:
            raw = result["raw"]
            print(f"service counters over the timed phases: "
                  f"{json.dumps(result['counter_summary'])}")
            print(f"open loop, raw: p99 over the whole phase "
                  f"{raw['p99_whole_phase_ms']:.3f} ms, max "
                  f"{raw['max_ms']:.3f} ms, generator late p99 "
                  f"{raw['late_p99_ms']:.3f} ms")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["layers"] if args.trace else result["metrics"]
    if args.trace:
        _print_breakdown(args.workload, values, spec)
    else:
        print(f"{args.workload}: samples {json.dumps(result['samples'])}, "
              f"machine speed index {result['speed_index']:.3f} "
              f"(times below are at reference speed; raw in brackets)")
        units = {entry["name"]: entry["unit"] for entry in wanted}
        for name, value in values.items():
            raw = result["raw"].get(name)
            line = f"  {name:<18} {value:>12.6g} {units.get(name, 'ms')}"
            if raw is not None:
                line += f"  [{raw:.6g}]"
            if name not in units:
                line += "  (reported, no bound: too noisy to gate)"
            print(line)
    failed = int(result["failed"])
    attempted = int(result["attempted"])
    print(f"  failed_ratio {failed / attempted:.6f} ({failed} of {attempted})")
    print(json.dumps({"provenance": provenance(root, args.seed),
                      "workload": args.workload}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": float(values.get(entry["name"], 0.0)),
                            "unit": entry["unit"]}
            for entry in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
