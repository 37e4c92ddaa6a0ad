"""End-to-end, layer-by-layer benchmark of the reproduction.

One run is one fresh process that sets a workload up, measures whole
rounds of closed-loop ops for ``--seconds``, checks every output and
prints, as the last line of standard output, one JSON object::

    {"correct": true, "attempted": 160, "failed": 0,
     "metrics": {"ops_per_s": {"value": 10.6, "unit": "1/s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones (tracing off).
With ``--trace 1`` the run measures half the time untraced, replays the
same rounds with a span around every call into a layer's public entry
points (tracing.py), and reports the per-layer metrics, the tracing
overhead and a per-layer self-time table (standard error).

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload fig10-cold --seed 0 \\
        --seconds 20 --trace 0 [--json run.json] [--trace-out t.json]

See README.md for the workloads, metrics and how to compare two
commits (compare.py).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

WORKLOAD_NAMES = ("fig10-cold", "fuzz-compile", "campaign-warm",
                  "service-zipf")

#: workloads whose set-up spans several processes: their set-up is
#: scaled by the slowdown of every CPU (speed.py)
MULTI_PROCESS = ("service-zipf",)

#: end-to-end metric -> unit (BENCHMARK.json holds the bounds)
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_share": "ratio",
    "as_configured_share": "ratio",
    "sim_cycles_vs_base": "ratio",
    "sim_mem_loads_vs_base": "ratio",
    "peak_rss_mb": "MB",
}

#: computed over the first ``min_rounds`` rounds only: two runs with
#: one seed must report them identically
DETERMINISTIC = ("ok_share", "as_configured_share", "sim_cycles_vs_base",
                 "sim_mem_loads_vs_base")

#: per-layer metric -> unit
PER_LAYER = {
    "lang.parse_lower_ms": "ms",
    "lang.ir_stmts": "count",
    "profiling.train_ms": "ms",
    "profiling.train_share": "ratio",
    "profiling.oracle_ms": "ms",
    "profiling.oracle_share": "ratio",
    "ir.module_passes_ms": "ms",
    "ssa.build_ssa_ms": "ms",
    "ssa.verify_ssa_ms": "ms",
    "ssa.lower_ssa_ms": "ms",
    "core.register_promotion_ms": "ms",
    "core.expression_pre_ms": "ms",
    "core.strength_reduction_ms": "ms",
    "core.lftr_ms": "ms",
    "core.dce_ms": "ms",
    "core.promotion_reloads": "count",
    "core.promotion_checks": "count",
    "pipeline.compile_ms": "ms",
    "pipeline.self_ms": "ms",
    "pipeline.failed_pass_ms": "ms",
    "pipeline.degraded_fns": "count",
    "pipeline.ladder_retries": "count",
    "analysis.hits": "count",
    "analysis.misses": "count",
    "target.codegen_ms": "ms",
    "target.schedule_ms": "ms",
    "target.verify_machine_ms": "ms",
    "target.machine_instrs": "count",
    "target.sim_ms": "ms",
    "target.sim_share": "ratio",
    "target.dyn_instr": "count",
    "target.sim_mips.predecode": "Minstr/s",
    "target.sim_mips.trace": "Minstr/s",
    "target.trace.first_run_ms": "ms",
    "target.trace.warm_run_ms": "ms",
    "target.trace.coverage": "ratio",
    "target.trace.side_exits": "count",
    "target.trace.traces_compiled": "count",
    "hazards.spec_recoveries": "count",
    "hazards.check_misses": "count",
    "hazards.deferred_faults": "count",
    "service.daemon_ms_p50": "ms",
    "service.wire_ms_p50": "ms",
    "service.cache_hit_share": "ratio",
    "service.compiles": "count",
    "service.deduped": "count",
    "service.shed": "count",
    "service.queue_depth_peak": "count",
    "service.worker_restarts": "count",
    "bench.op_wall_ms": "ms",
    "bench.unattributed_share": "ratio",
    "bench.trace_overhead_ms": "ms",
    "bench.trace_overhead_share": "ratio",
}

#: daemon counters reported as deltas over the traced pass
SERVICE_COUNTERS = ("compiles", "deduped", "shed", "worker_restarts")

#: set-ups per run (the run's own plus fresh child processes); the
#: median is ``setup_s``
SETUP_REPS = {"full": 3, "smoke": 1}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="end-to-end, layer-by-layer benchmark (README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per run (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced replay, per-layer metrics")
    parser.add_argument("--scale", choices=tuple(SETUP_REPS),
                        default="full",
                        help="smoke: a few small programs, one round "
                             "(the smoke test)")
    parser.add_argument("--json", metavar="FILE",
                        help="also write the result and run details")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="with --trace 1: Chrome trace-event JSON")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def quantile(values: List[float], p: float) -> float:
    """The Harrell-Davis estimate of quantile ``p``: a mean of all the
    order statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density
    (midpoint rule).  Where a percentile falls between two groups of
    ops with different costs, it moves smoothly instead of jumping
    between the two groups' extreme samples."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((i + 0.5) / n for i in range(n))]
    top = max(logs)
    weights = [math.exp(w - top) for w in logs]
    return math.fsum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def percentiles_ms(latencies_s: List[float]) -> Dict[str, float]:
    values = [1000.0 * t for t in latencies_s]
    return {"op_p50_ms": quantile(values, 0.5),
            "op_p90_ms": quantile(values, 0.9)}


def setup_sample(args: argparse.Namespace) -> float:
    """One set-up in a fresh process, timed from before its imports."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--scale", args.scale, "--setup-only"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def quality_payloads(phase, min_rounds: int) -> List[dict]:
    return [r.payload for r in phase.records
            if r.payload is not None and r.round < min_rounds]


def report_failures(phase, errors: List[str]) -> None:
    for record in phase.failures[:5]:
        print(f"FAILED op: {record.error}", file=sys.stderr)
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)


def metrics_run(wl, args, setup_samples: List[float]):
    """The untraced run: end-to-end metrics."""
    from tracing import NullRecorder

    phase = wl.measure(args.seconds, NullRecorder())
    errors = wl.close()
    rss = wl.peak_rss_mb()
    quality, quality_errors = wl.quality(
        quality_payloads(phase, wl.min_rounds))
    errors += quality_errors
    n = len(phase.records)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": n / phase.busy_s,
        **percentiles_ms([r.norm_s for r in phase.records]),
        "ok_share": 1.0 - len(phase.failures) / n,
        **quality,
        "peak_rss_mb": rss,
    }
    report_failures(phase, errors)
    p99 = quantile([1000.0 * r.norm_s for r in phase.records], 0.99)
    print(f"{wl.name} seed {args.seed}: {n} ops in {phase.rounds} rounds, "
          f"{phase.wall_s:.2f}s busy ({phase.busy_s:.2f}s at calibrated "
          f"speed); {n // 10} samples beyond p90; p99 {p99:.2f} ms with "
          f"{n // 100} beyond; setup samples "
          f"{[round(s, 3) for s in setup_samples]}", file=sys.stderr)
    details = {"rounds": phase.rounds, "op_p99_ms": p99,
               "wall_s": phase.wall_s,
               "busy_s": phase.busy_s, "setup_samples": setup_samples,
               "deterministic": quality,
               "ops": [[r.latency_s, r.norm_s, r.round, r.payload is not None]
                       for r in phase.records],
               "speed_samples": phase.speed_samples}
    return [phase], errors, metrics, END_TO_END, details


def traced_run(wl, args):
    """Untraced pass, then a traced replay of the same rounds: per-layer
    metrics, tracing overhead and the self-time table."""
    from tracing import (NullRecorder, Recorder, format_layer_table,
                         instrumented, layer_metrics, write_chrome_trace)

    untraced = wl.measure(args.seconds / 2, NullRecorder())
    wl.replay_reset()
    rec = Recorder()
    before = wl.counters()
    with (instrumented(rec) if wl.wraps_pipeline
          else contextlib.nullcontext()):
        traced = wl.measure(args.seconds, rec, rounds=untraced.rounds)
    after = wl.counters()
    errors = wl.close()
    quality, quality_errors = wl.quality(
        quality_payloads(untraced, wl.min_rounds))
    errors += quality_errors

    rec.scale = {r.op: r.norm_s / r.latency_s for r in traced.records}
    n = len(traced.records)
    metrics = layer_metrics(rec, n)
    for name in SERVICE_COUNTERS:
        metrics[f"service.{name}"] = after.get(name, 0) - before.get(name, 0)
    metrics["service.queue_depth_peak"] = after.get("queue_depth_peak", 0)
    plain = statistics.fmean(r.norm_s for r in untraced.records)
    traced_mean = statistics.fmean(r.norm_s for r in traced.records)
    metrics["bench.trace_overhead_ms"] = 1000.0 * (traced_mean - plain)
    metrics["bench.trace_overhead_share"] = traced_mean / plain - 1.0

    report_failures(untraced, [])
    report_failures(traced, errors)
    print(f"{wl.name} seed {args.seed}: traced replay of {n} ops "
          f"({traced.rounds} rounds); tracing overhead "
          f"{metrics['bench.trace_overhead_ms']:+.3f} ms/op "
          f"({metrics['bench.trace_overhead_share']:+.1%}); "
          f"unattributed {metrics['bench.unattributed_share']:.2%} of op "
          f"wall", file=sys.stderr)
    print(format_layer_table(rec, n), file=sys.stderr)
    if args.trace_out:
        write_chrome_trace(rec, args.trace_out)
    details = {"rounds": untraced.rounds, "deterministic": quality,
               "layers": {layer: {"self_s": row[0], "spans": row[1]}
                          for layer, row in rec.layer_table().items()}}
    return [untraced, traced], errors, metrics, PER_LAYER, details


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC} — run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    samples: List[float] = []
    if not args.setup_only and not args.trace:
        samples = [setup_sample(args)
                   for _ in range(SETUP_REPS[args.scale] - 1)]
    from speed import SpeedProbe, spread_probe

    probe = (spread_probe() if args.workload in MULTI_PROCESS
             else SpeedProbe())
    probe.sample(3)
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.scale)
    try:
        wl.setup()
        setup_s = time.perf_counter() - t0
        probe.sample(3)
        samples.append(setup_s / probe.slowdown())
        if args.setup_only:
            errors = wl.close()
            print(json.dumps({"setup_s": samples[-1]}))
            return 1 if errors else 0
        if args.trace:
            outcome = traced_run(wl, args)
        else:
            outcome = metrics_run(wl, args, samples)
    finally:
        wl.close()

    phases, errors, metrics, units, details = outcome
    attempted = sum(len(p.records) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "scale": args.scale,
                       "trace": args.trace, "result": result,
                       "errors": errors, **details}, f, indent=1)
            f.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
