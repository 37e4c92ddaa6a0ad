"""Spans recorded from outside the program under test.

The traced run wraps the public entry points ``compile_and_run``
reaches — ``driver.compile_program``, ``manager.compile_source``, the
train-run profilers, the oracle ``run_module`` and the simulator
``run_program`` — and records one span per call, tagged with the id of
the benchmark op that caused it.  The pass manager's own
``CompileResult.pass_trace`` records become child spans of
``pipeline.compile_program``, laid end to end after the real children
and marked ``derived``: their durations are measured, their placement
is not.

A layer's self time is its spans' durations minus the part their child
spans cover; the op's own self time is the time no layer accounts for.
Per-layer times are scaled by their op's calibrated-speed factor
(speed.py), like the end-to-end latencies; the Chrome trace keeps the
raw timeline.  Nothing here runs during the untraced metrics run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

#: pass-manager pass -> the repository module (layer) that implements it
PASS_LAYERS = {
    "split-critical-edges": "ir", "verify-module": "ir",
    "build-ssa": "ssa", "verify-ssa": "ssa", "lower-ssa": "ssa",
    "lower-module": "ssa",
    "strength-reduction": "core", "register-promotion": "core",
    "expression-pre": "core", "lftr": "core", "dce": "core",
    "codegen": "target.codegen", "schedule": "target.codegen",
    "superblock-form": "target.codegen",
    "superblock-schedule": "target.codegen",
    "superblock-layout": "target.codegen",
    "verify-machine": "target.codegen",
}

SPAN_LAYERS = {
    "op": "bench.unattributed",
    "pipeline.compile_program": "pipeline",
    "lang.compile_source": "lang",
    "profiling.collect_alias_profile": "profiling.train",
    "profiling.collect_edge_profile": "profiling.train",
    "profiling.run_module": "profiling.oracle",
    "target.run_program": "target.sim",
    "service.request": "service.wire",
    "service.daemon": "service.daemon",
}


@dataclass
class Span:
    name: str
    op: int
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    derived: bool = False
    tid: int = 0
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        if self.name.startswith("pass:"):
            return PASS_LAYERS.get(self.name[5:], "pipeline.other-passes")
        return SPAN_LAYERS.get(self.name, self.name)


class Recorder:
    """In-memory span store.  Nested spans of the single-threaded
    in-process workloads find their parent on a stack; the service
    workload adds its (flat, concurrent) spans with :meth:`add`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op = 0
        #: op id -> its latency's calibrated-speed factor (speed.py), so
        #: layer times come in the units of the end-to-end metrics
        self.scale: Dict[int, float] = {}

    def dur(self, span: Span) -> float:
        """``span``'s duration at the calibrated machine speed."""
        return span.dur * self.scale.get(span.op, 1.0)

    def add(self, name: str, start: float, end: float, *, op: int,
            parent: Optional[int] = None, derived: bool = False,
            tid: int = 0, **args: object) -> int:
        self.spans.append(Span(name, op, start, end, parent, derived, tid,
                               dict(args)))
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name: str, **args: object) -> Iterator[Span]:
        span = Span(name, self.op, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None,
                    args=dict(args))
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, annotate=None):
        """``fn`` recording one span per call; ``annotate(recorder,
        index, args, kwargs, result)`` copies what the metrics need off
        the result, so no result object outlives its span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                index = len(self.spans) - 1
                result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(self, index, args, kwargs, result)
            return result

        return traced

    # ---- analysis --------------------------------------------------------
    def self_times(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += self.dur(span)
        return [self.dur(s) - c for s, c in zip(self.spans, covered)]

    def layer_table(self) -> Dict[str, List[float]]:
        """layer -> [self seconds, span count]."""
        table: Dict[str, List[float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = table.setdefault(span.layer, [0.0, 0])
            row[0] += own
            row[1] += 1
        return table

    def chrome_trace(self) -> Dict[str, object]:
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [{
            "name": s.name, "cat": s.layer, "ph": "X", "pid": pid,
            "tid": s.tid, "ts": round((s.start - t0) * 1e6, 3),
            "dur": round(s.dur * 1e6, 3),
            "args": {"op": s.op, "derived": s.derived, **s.args},
        } for s in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class NullRecorder(Recorder):
    """Records nothing: the untraced metrics run."""

    def add(self, *args, **kwargs) -> int:
        return -1

    @contextlib.contextmanager
    def span(self, name: str, **args: object) -> Iterator[Span]:
        yield Span(name, self.op, 0.0)


# ---------------------------------------------------------------------------
# The wrapped entry points
# ---------------------------------------------------------------------------


def _annotate_compile(rec: Recorder, index: int, args, kwargs,
                      result) -> None:
    """Counters off the CompileResult, and its pass_trace as derived
    children laid out after the real children (lang, train runs)."""
    span = rec.spans[index]
    stats = result.analyses.stats() if result.analyses is not None \
        else {"hits": 0, "misses": 0}
    promotions = [s.promotion for s in result.opt_stats.values()
                  if s.promotion is not None]
    span.args.update(
        degraded=len(result.degraded),
        ladder_retries=sum(1 for d in result.diagnostics
                           if d.stage == "optimize"),
        analysis_hits=stats["hits"], analysis_misses=stats["misses"],
        promotion_reloads=sum(p.reloads for p in promotions),
        promotion_checks=sum(p.checks for p in promotions),
        machine_instrs=result.program.counts()[0])
    children = [s for s in rec.spans[index + 1:] if s.parent == index]
    cursor = max((s.end for s in children), default=span.start)
    records = result.pass_trace.records if result.pass_trace else []
    for record in records:
        rec.add(f"pass:{record.pass_name}", cursor, cursor + record.wall_s,
                op=span.op, parent=index, derived=True,
                function=record.function, rung=record.rung,
                failed=record.failed)
        cursor += record.wall_s


def _annotate_lang(rec: Recorder, index: int, args, kwargs,
                   module) -> None:
    rec.spans[index].args["ir_stmts"] = module.counts()[0]


def annotate_sim(span: Span, stats, engine: str) -> None:
    """Simulator counters of one ``run_program`` call."""
    span.args.update(engine=engine, instructions=stats.instructions,
                     spec_recoveries=stats.spec_recoveries,
                     check_misses=stats.check_misses,
                     deferred_faults=stats.deferred_faults,
                     **stats.engine_dict())


def _annotate_run_program(rec: Recorder, index: int, args, kwargs,
                          result) -> None:
    annotate_sim(rec.spans[index], result[0],
                 kwargs.get("engine", "predecode"))


@contextlib.contextmanager
def instrumented(rec: Recorder) -> Iterator[None]:
    """Route ``compile_and_run``'s layer calls through ``rec`` (the
    driver and pass manager resolve these module globals at call time;
    they are the same seams the test suite patches)."""
    from repro.pipeline import driver
    from repro.pipeline.passes import manager

    targets = [
        (driver, "compile_program", "pipeline.compile_program",
         _annotate_compile),
        (manager, "compile_source", "lang.compile_source", _annotate_lang),
        (driver, "collect_alias_profile", "profiling.collect_alias_profile",
         None),
        (driver, "collect_edge_profile", "profiling.collect_edge_profile",
         None),
        (driver, "run_module", "profiling.run_module", None),
        (driver, "run_program", "target.run_program",
         _annotate_run_program),
    ]
    saved = []
    try:
        for module, attr, name, annotate in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, rec.wrap(original, name, annotate))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(rec: Recorder, n_ops: int) -> Dict[str, float]:
    """The per-layer metrics of one traced pass over ``n_ops`` ops.
    Times and counts are per-op means unless the name says otherwise;
    a layer the workload never reaches reads 0."""
    spans = rec.spans
    own = rec.self_times()
    dur = rec.dur
    n = max(1, n_ops)
    roots = [s for s in spans if s.parent is None]
    op_wall = sum(dur(s) for s in roots) or 1e-12

    def self_of(pred) -> float:
        return sum(t for s, t in zip(spans, own) if pred(s))

    def arg_sum(name: str, key: str) -> float:
        return sum(float(s.args.get(key, 0)) for s in spans
                   if s.name == name)

    def ms(seconds: float) -> float:
        return 1000.0 * seconds / n

    def passes(*names: str) -> float:
        return ms(self_of(lambda s: s.name[5:] in names
                          and s.name.startswith("pass:")))

    compile_name = "pipeline.compile_program"
    sims = [s for s in spans if s.name == "target.run_program"]
    trace_sims = [s for s in sims if s.args.get("engine") == "trace"]
    train = self_of(lambda s: s.layer == "profiling.train")
    oracle = self_of(lambda s: s.layer == "profiling.oracle")
    sim = self_of(lambda s: s.layer == "target.sim")

    def mips(engine: str) -> float:
        chosen = [s for s in sims if s.args.get("engine") == engine]
        seconds = sum(dur(s) for s in chosen)
        instrs = sum(s.args.get("instructions", 0) for s in chosen)
        return instrs / seconds / 1e6 if seconds else 0.0

    seen_programs = set()
    first_runs, warm_runs = [], []
    for s in trace_sims:
        program = s.args.get("program")
        runs = warm_runs if program in seen_programs else first_runs
        runs.append(dur(s))
        seen_programs.add(program)
    trace_instrs = sum(s.args.get("instructions", 0) for s in trace_sims)
    requests = [s for s in spans if s.name == "service.request"]

    def daemon_ms(s: Span) -> float:
        return s.args["elapsed_ms"] * rec.scale.get(s.op, 1.0)

    def p50(values) -> float:
        return statistics.median(values) if values else 0.0

    metrics = {
        "lang.parse_lower_ms": ms(self_of(lambda s: s.layer == "lang")),
        "lang.ir_stmts": arg_sum("lang.compile_source", "ir_stmts") / n,
        "profiling.train_ms": ms(train),
        "profiling.train_share": train / op_wall,
        "profiling.oracle_ms": ms(oracle),
        "profiling.oracle_share": oracle / op_wall,
        "ir.module_passes_ms": passes("split-critical-edges",
                                      "verify-module"),
        "ssa.build_ssa_ms": passes("build-ssa"),
        "ssa.verify_ssa_ms": passes("verify-ssa"),
        "ssa.lower_ssa_ms": passes("lower-ssa", "lower-module"),
        "core.register_promotion_ms": passes("register-promotion"),
        "core.expression_pre_ms": passes("expression-pre"),
        "core.strength_reduction_ms": passes("strength-reduction"),
        "core.lftr_ms": passes("lftr"),
        "core.dce_ms": passes("dce"),
        "core.promotion_reloads":
            arg_sum(compile_name, "promotion_reloads") / n,
        "core.promotion_checks":
            arg_sum(compile_name, "promotion_checks") / n,
        "pipeline.compile_ms": ms(sum(dur(s) for s in spans
                                      if s.name == compile_name)),
        "pipeline.self_ms": ms(self_of(lambda s: s.layer == "pipeline")),
        "pipeline.failed_pass_ms": ms(sum(
            dur(s) for s in spans if s.args.get("failed"))),
        "pipeline.degraded_fns": arg_sum(compile_name, "degraded") / n,
        "pipeline.ladder_retries":
            arg_sum(compile_name, "ladder_retries") / n,
        "analysis.hits": arg_sum(compile_name, "analysis_hits") / n,
        "analysis.misses": arg_sum(compile_name, "analysis_misses") / n,
        "target.codegen_ms": passes("codegen"),
        "target.schedule_ms": passes("schedule", "superblock-form",
                                     "superblock-schedule",
                                     "superblock-layout"),
        "target.verify_machine_ms": passes("verify-machine"),
        "target.machine_instrs": arg_sum(compile_name, "machine_instrs") / n,
        "target.sim_ms": ms(sim),
        "target.sim_share": sim / op_wall,
        "target.dyn_instr": sum(s.args.get("instructions", 0)
                                for s in sims) / n,
        "target.sim_mips.predecode": mips("predecode"),
        "target.sim_mips.trace": mips("trace"),
        "target.trace.first_run_ms":
            1000.0 * statistics.fmean(first_runs) if first_runs else 0.0,
        "target.trace.warm_run_ms":
            1000.0 * statistics.fmean(warm_runs) if warm_runs else 0.0,
        "target.trace.coverage": (sum(s.args.get("trace_dyn_instr", 0)
                                      for s in trace_sims) / trace_instrs
                                  if trace_instrs else 0.0),
        "target.trace.side_exits": (sum(s.args.get("side_exits", 0)
                                        for s in trace_sims)
                                    / max(1, len(trace_sims))),
        "target.trace.traces_compiled": (
            sum(s.args.get("traces_compiled", 0) for s in trace_sims)
            / max(1, len(trace_sims))),
        "hazards.spec_recoveries":
            arg_sum("target.run_program", "spec_recoveries") / n,
        "hazards.check_misses":
            arg_sum("target.run_program", "check_misses") / n,
        "hazards.deferred_faults":
            arg_sum("target.run_program", "deferred_faults") / n,
        "service.daemon_ms_p50": p50([daemon_ms(s) for s in requests]),
        "service.wire_ms_p50": p50([1000.0 * dur(s) - daemon_ms(s)
                                    for s in requests]),
        "service.cache_hit_share": (sum(1 for s in requests
                                        if s.args.get("cached"))
                                    / len(requests) if requests else 0.0),
        "bench.op_wall_ms": ms(op_wall),
        "bench.unattributed_share":
            self_of(lambda s: s.layer == "bench.unattributed") / op_wall,
    }
    return metrics


def format_layer_table(rec: Recorder, n_ops: int) -> str:
    """The per-layer self-time and count table printed after a traced
    run; its rows sum to the traced op wall time."""
    table = rec.layer_table()
    total = sum(row[0] for row in table.values()) or 1e-12
    n = max(1, n_ops)
    lines = [f"{'layer':<24} {'self ms/op':>11} {'share':>7} "
             f"{'spans':>7}"]
    for layer, (seconds, count) in sorted(table.items(),
                                          key=lambda kv: -kv[1][0]):
        lines.append(f"{layer:<24} {1000.0 * seconds / n:>11.3f} "
                     f"{seconds / total:>7.1%} {count:>7d}")
    lines.append(f"{'total (op wall)':<24} {1000.0 * total / n:>11.3f} "
                 f"{1.0:>7.1%} {n:>7d} ops")
    return "\n".join(lines)


def write_chrome_trace(rec: Recorder, path: str) -> None:
    with open(path, "w") as f:
        json.dump(rec.chrome_trace(), f)
        f.write("\n")
