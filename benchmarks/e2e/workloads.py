"""The four workloads of the end-to-end benchmark (see README.md).

Every workload is closed-loop: the next op starts when the previous one
returns.  Ops come in *rounds* — fixed, seeded batches — and a run
measures whole rounds until its time is up.  The first ``min_rounds``
rounds always run; the deterministic metrics (code quality, ladder
degradations) are computed over exactly those, so two runs with one
seed report them identically whatever the machine's speed.

Each workload leans on a different layer, so a gain in one layer that
costs another shows up somewhere:

* ``fig10-cold``    — cold ``compile_and_run`` of the paper's eight
  Figure-10 programs: every compile layer, the train interpreter, the
  simulator and the oracle interpreter together;
* ``fuzz-compile``  — cold ``compile_and_run`` of fresh generated
  programs: the compile layers dominate, simulation is idle;
* ``campaign-warm`` — injected simulations of precompiled programs on
  two engines: the simulator only, compile idle;
* ``service-zipf``  — a real ``repro serve`` daemon under skewed
  traffic: wire protocol, dedup and the sharded compile cache.
"""

from __future__ import annotations

import asyncio
import copy
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import SpecConfig
from repro.hazards import make_injector
from repro.lang import compile_source
from repro.pipeline import (OutputMismatch, compile_and_run, compile_program,
                            shard_of)
from repro.profiling import InterpError, run_module
from repro.service.backoff import wait_ready
from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.protocol import request_key
from repro.service.registry import resolve_config
from repro.target import run_program
from repro.workloads import all_workloads, machine_kwargs, recovery_workloads
from repro.workloads.fuzz import random_program

from speed import SpeedProbe, spread_probe
from tracing import NullRecorder, Recorder, annotate_sim

FUEL = 50_000_000
HOST = "127.0.0.1"


@dataclass
class OpRecord:
    """One op as the client saw it."""

    latency_s: float
    round: int
    payload: Optional[dict] = None      # None: the op failed
    error: str = ""
    #: the op id its spans carry (tracing.py)
    op: int = 0
    #: the latency at the machine's calibrated speed (speed.py)
    norm_s: float = 0.0


@dataclass
class Phase:
    """One measured pass over whole rounds."""

    records: List[OpRecord]
    rounds: int
    #: wall time the loop spent in ops
    wall_s: float
    #: the same at the calibrated machine speed
    busy_s: float
    #: the speed-kernel samples taken during the pass (speed.py)
    speed_samples: List[float]

    @property
    def failures(self) -> List[OpRecord]:
        return [r for r in self.records if r.payload is None]


def geomean(values: List[float]) -> float:
    return math.exp(math.fsum(map(math.log, values)) / len(values))


def banded_program(rng: random.Random, max_stmts: int, lines: range,
                   accept=lambda source: True):
    """``(source, module)`` of a generated program whose length falls in
    ``lines``, that ``accept`` takes, and that the reference interpreter
    runs cleanly.  The generator's output length has a long tail, and
    compile time grows faster than length; drawing each op's program
    from a fixed length band keeps one run's mix of cheap and costly
    compiles the same from seed to seed.  Some generated programs are
    not C-like inputs at all: their integers grow past 64 bits (the
    mini-C interpreter's integers are unbounded) until even the
    interpreter fails to convert or print them."""
    while True:
        source = random_program(rng.getrandbits(32), max_stmts=max_stmts)
        if source.count("\n") + 1 not in lines or not accept(source):
            continue
        module = compile_source(source)
        try:
            output = run_module(module, fuel=1_000_000)
        except (ArithmeticError, ValueError, InterpError):
            continue
        # |value| < 10**18 < 2**63
        if all(len(value.lstrip("-")) <= 18 for line in output
               for value in line.split()):
            return source, module


def base_reference(source: str, train_inputs=(), ref_inputs=(),
                   machine: Optional[dict] = None) -> Tuple[int, int]:
    """(cycles, memory loads) of the ``base`` build of ``source``: the
    reference the code-quality ratios divide by."""
    compiled = compile_program(source, SpecConfig.base(),
                               train_inputs=train_inputs, fuel=FUEL)
    stats, _ = run_program(compiled.program, inputs=ref_inputs,
                           fuel=4 * FUEL, **(machine or {}))
    return stats.cycles, stats.memory_loads


def quality_metrics(entries: List[dict],
                    refs: Dict[object, Tuple[int, int]]) -> Dict[str, float]:
    """Code quality over distinct simulated runs: cycles and memory
    loads as ratios to the same program's ``base`` build (geometric
    means — the paper's Figure 10 quantities), and the share of
    compiled functions that kept the configured pipeline."""
    cycles, loads = [], []
    for p in entries:
        if p["config"] != "base" and p["program"] in refs:
            base_cycles, base_loads = refs[p["program"]]
            cycles.append(p["cycles"] / base_cycles)
            # +1: generated programs may perform no memory load at all
            loads.append((p["loads"] + 1) / (base_loads + 1))
    functions = sum(p["functions"] for p in entries)
    degraded = sum(p["degraded"] for p in entries)
    return {"as_configured_share": 1.0 - degraded / functions,
            "sim_cycles_vs_base": geomean(cycles),
            "sim_mem_loads_vs_base": geomean(loads)}


def run_payload(program, config: str, result) -> dict:
    """What a ``compile_and_run`` op keeps for the quality metrics."""
    return {"program": program, "config": config,
            "cycles": result.stats.cycles,
            "loads": result.stats.memory_loads,
            "functions": len(result.program.functions),
            "degraded": len(result.degraded)}


class Workload:
    name = ""
    #: rounds every run completes; the deterministic metrics use these
    min_rounds = 1
    #: route compile_and_run's layer calls through the recorder
    wraps_pipeline = True

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.scale = scale

    def rng(self, *parts: object) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed)
                                          + parts)))

    def setup(self) -> None:
        """Everything before the first timed op."""

    def round(self, r: int) -> list:
        raise NotImplementedError

    def run_op(self, op, rec: Recorder) -> dict:
        raise NotImplementedError

    def quality(self, payloads: List[dict]) -> Tuple[Dict[str, float],
                                                     List[str]]:
        """Deterministic metrics over the first ``min_rounds`` rounds'
        successful ops, plus any correctness errors found on the way."""
        raise NotImplementedError

    def replay_reset(self) -> None:
        """Restore cold state before the traced replay of the rounds."""

    def close(self) -> List[str]:
        """Tear down; returns correctness errors (a failed drain)."""
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def counters(self) -> Dict[str, float]:
        """Program-side counters snapshotted around the traced pass."""
        return {}

    def done(self, r: int, start: float, seconds: float,
             rounds: Optional[int]) -> bool:
        if rounds is not None:
            return r >= rounds
        return r >= self.min_rounds and time.perf_counter() - start >= seconds

    def measure(self, seconds: float, rec: Recorder,
                rounds: Optional[int] = None) -> Phase:
        """Run whole rounds until ``seconds`` have passed (and at least
        ``min_rounds``), or exactly ``rounds`` when replaying.  Speed
        samples bracket every op."""
        probe = SpeedProbe()
        records: List[OpRecord] = []
        start = time.perf_counter()
        r = 0
        while not r or not self.done(r, start, seconds, rounds):
            for op in self.round(r):
                probe.sample()
                rec.op += 1
                t0 = time.perf_counter()
                try:
                    with rec.span("op", what=repr(op)):
                        payload = self.run_op(op, rec)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    records.append(OpRecord(time.perf_counter() - t0, r,
                                            error=f"{op!r}: {exc!r}",
                                            op=rec.op))
                else:
                    records.append(OpRecord(time.perf_counter() - t0, r,
                                            payload, op=rec.op))
            r += 1
        probe.sample()
        for i, record in enumerate(records):
            record.norm_s = record.latency_s / probe.slowdown_at(i)
        return Phase(records, r, sum(x.latency_s for x in records),
                     sum(x.norm_s for x in records), probe.samples)


# ---------------------------------------------------------------------------
# fig10-cold
# ---------------------------------------------------------------------------


class Fig10Cold(Workload):
    """Reproducing the paper: every (Figure-10 program, config) pair once
    per round, in seeded order, compiled cold and checked by the oracle."""

    name = "fig10-cold"
    CONFIGS = ("base", "heuristic", "profile", "static")
    SMOKE_PROGRAMS = ("art", "ammp")

    def setup(self) -> None:
        self.programs = {w.name: w for w in all_workloads()
                         if self.scale == "full"
                         or w.name in self.SMOKE_PROGRAMS}
        # warm lazy imports and first-call paths of every config once,
        # on the smallest program, so the first timed ops do not pay them
        smallest = min(self.programs.values(), key=lambda w: len(w.source))
        for config in self.CONFIGS:
            self.run_op((smallest.name, config), NullRecorder())

    def round(self, r: int) -> list:
        ops = [(name, c) for name in self.programs for c in self.CONFIGS]
        self.rng("round", r).shuffle(ops)
        return ops

    def run_op(self, op, rec: Recorder) -> dict:
        name, config = op
        workload = self.programs[name]
        return run_payload(name, config, compile_and_run(
            workload.source, resolve_config(config),
            train_inputs=workload.train_inputs,
            ref_inputs=workload.ref_inputs,
            machine_kwargs=machine_kwargs(engine="predecode"), cache=False))

    def quality(self, payloads):
        entries = {(p["program"], p["config"]): p for p in payloads}
        refs = {p["program"]: (p["cycles"], p["loads"])
                for p in entries.values() if p["config"] == "base"}
        return quality_metrics(list(entries.values()), refs), []


# ---------------------------------------------------------------------------
# fuzz-compile
# ---------------------------------------------------------------------------


class FuzzCompile(Workload):
    """A fresh generated program per op, compiled cold: the compile
    layers dominate, and the failsafe ladder meets code no golden
    covers.  Code quality is measured against ``base`` builds of the
    first rounds' programs, made after the timed phase."""

    name = "fuzz-compile"
    min_rounds = 20
    #: the first rounds whose programs get a base build for the quality
    #: ratios (each costs a compile after the timed phase)
    ref_rounds = 10
    CONFIGS = ("heuristic", "profile+superblock", "static")
    #: band -> (generator max_stmts, accepted source lines)
    BANDS = {"S": (12, range(30, 61)), "M": (24, range(70, 111)),
             "L": (36, range(140, 201))}
    #: one round's programs: two medium programs put the median op in
    #: the middle of a band instead of on the edge between two
    ROUND_BANDS = {"full": ("S", "M", "M", "L"), "smoke": ("S", "M")}

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        if scale == "smoke":
            self.min_rounds = self.ref_rounds = 1
        self.bands = self.ROUND_BANDS[scale]
        self._programs: Dict[int, str] = {}

    def program(self, index: int) -> str:
        if index not in self._programs:
            max_stmts, lines = self.BANDS[self.bands[index % len(self.bands)]]
            self._programs[index], _ = banded_program(
                self.rng("program", index), max_stmts, lines)
        return self._programs[index]

    def setup(self) -> None:
        for r in range(self.min_rounds):
            self.round(r)
        warm = random_program(0, max_stmts=6)
        for config in self.CONFIGS:
            compile_and_run(warm, resolve_config(config),
                            machine_kwargs=machine_kwargs(), cache=False)

    def round(self, r: int) -> list:
        n = len(self.bands)
        indices = range(r * n, (r + 1) * n)
        for i in indices:   # generated here, outside the timed ops
            self.program(i)
        return [(i, self.CONFIGS[i % len(self.CONFIGS)]) for i in indices]

    def run_op(self, op, rec: Recorder) -> dict:
        index, config = op
        return run_payload(index, config, compile_and_run(
            self.program(index), resolve_config(config),
            machine_kwargs=machine_kwargs(engine="predecode"), cache=False))

    def quality(self, payloads):
        refs = {i: base_reference(self.program(i), machine=machine_kwargs())
                for i in range(self.ref_rounds * len(self.bands))}
        return quality_metrics(payloads, refs), []


# ---------------------------------------------------------------------------
# campaign-warm
# ---------------------------------------------------------------------------


@dataclass
class _Compiled:
    workload: object
    program: object
    expected: List[str]
    functions: int
    degraded: int


class CampaignWarm(Workload):
    """The fault-injection campaign's inner loop: programs compiled once
    in setup, then simulated under seeded injection on the predecode and
    trace engines, each run checked against the oracle.  The trace
    engine's first run of each program (cold JIT) is timed, as it is in
    a real campaign."""

    name = "campaign-warm"
    min_rounds = 3
    SCENARIOS = ("poison", "storm", "chaos")
    ENGINES = ("predecode", "trace")
    SMOKE_PROGRAMS = ("art", "parser")
    wraps_pipeline = False

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        if scale == "smoke":
            self.min_rounds = 1

    def setup(self) -> None:
        # the run_campaign default config: alias-profile data
        # speculation, static control speculation
        config = SpecConfig.profile().but(use_edge_profile=False)
        programs = [w for w in all_workloads() + recovery_workloads()
                    if self.scale == "full"
                    or w.name in self.SMOKE_PROGRAMS]
        self.compiled: Dict[str, _Compiled] = {}
        for w in programs:
            compiled = compile_program(w.source, config,
                                       train_inputs=w.train_inputs,
                                       fuel=FUEL)
            expected = run_module(compiled.original, fuel=FUEL,
                                  inputs=w.ref_inputs)
            self.compiled[w.name] = _Compiled(
                w, compiled.program, expected,
                len(compiled.program.functions), len(compiled.degraded))
        self.machine = machine_kwargs()

    def round(self, r: int) -> list:
        rng = self.rng("round", r)
        injector_seed = rng.randrange(2 ** 31)
        ops = [(name, scenario, engine, injector_seed)
               for name in self.compiled for scenario in self.SCENARIOS
               for engine in self.ENGINES]
        rng.shuffle(ops)
        return ops

    def run_op(self, op, rec: Recorder) -> dict:
        name, scenario, engine, injector_seed = op
        entry = self.compiled[name]
        with rec.span("target.run_program", program=name) as span:
            stats, output = run_program(
                entry.program, inputs=entry.workload.ref_inputs,
                fuel=4 * FUEL, injector=make_injector(scenario,
                                                      injector_seed),
                engine=engine, **self.machine)
        annotate_sim(span, stats, engine)
        if output != entry.expected:
            raise OutputMismatch(entry.expected, output)
        return {"program": name, "config": "profile",
                "run": (name, scenario, injector_seed),
                "cycles": stats.cycles, "loads": stats.memory_loads,
                "functions": entry.functions, "degraded": entry.degraded,
                "arch": stats.arch_dict()}

    def replay_reset(self) -> None:
        # fresh program objects: the trace engine caches compiled traces
        # per program object, and the replay must start cold as well
        for entry in self.compiled.values():
            entry.program = copy.deepcopy(entry.program)

    def quality(self, payloads):
        runs: Dict[tuple, dict] = {}
        errors = []
        for p in payloads:
            seen = runs.setdefault(p["run"], p)
            if seen["arch"] != p["arch"]:
                errors.append(f"engines disagree on {p['run']}")
        refs = {name: base_reference(e.workload.source,
                                     e.workload.train_inputs,
                                     e.workload.ref_inputs, self.machine)
                for name, e in self.compiled.items()}
        return quality_metrics(list(runs.values()), refs), errors


# ---------------------------------------------------------------------------
# service-zipf
# ---------------------------------------------------------------------------


def spawn_daemon(workers: int) -> Tuple[subprocess.Popen, int]:
    """``repro serve`` as a real subprocess: (process, port)."""
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(sys.modules["repro"].__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", HOST,
         "--port", "0", "--workers", str(workers)],
        env=env, stdout=subprocess.PIPE, text=True)
    banner = proc.stdout.readline()
    # "repro service listening on HOST:PORT (N workers, pid P)"
    if "listening on" not in banner:
        drain(proc)
        raise RuntimeError(f"daemon did not start: {banner!r}")
    port = int(banner.split("listening on ", 1)[1].split()[0]
               .rsplit(":", 1)[1])
    wait_ready(HOST, port, budget_s=60.0)
    return proc, port


def drain(proc: subprocess.Popen) -> int:
    """SIGTERM, then wait for the graceful drain; the exit code."""
    proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    return proc.returncode


class ServiceZipf(Workload):
    """Two closed-loop connections to a two-worker daemon, keys drawn
    Zipf(1.0).  96 keys — each its own generated program — outnumber
    the two shards' 32-entry LRU caches, so hits, compiles and
    evictions all occur; hot keys also reuse cached machine programs,
    so ``+trace`` runs are warm on hits and cold on misses."""

    name = "service-zipf"
    min_rounds = 8
    wraps_pipeline = False
    CONFIGS = ("heuristic", "profile", "static", "profile+superblock",
               "profile+trace")
    #: one narrow size band (generator max_stmts, source lines): a hit
    #: re-simulates and re-interprets its program, so with mixed sizes
    #: the median request would track which sizes a seed made hot
    BAND = (16, range(56, 67))
    KEYS = 96
    WORKERS = CLIENTS = 2
    ROUND_REQUESTS = {"full": 50, "smoke": 10}     # per client
    #: tiny programs whose runs reach both workers' lazily imported
    #: modules under every config before the timed phase
    WARMUP_SOURCE = "void main() {{ int a; a = {}; print(a * 3); }}"

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        if scale == "smoke":
            self.min_rounds = 1
        self.proc: Optional[subprocess.Popen] = None
        self._outputs: Dict[int, List[str]] = {}

    def setup(self) -> None:
        # The key at each Zipf rank has a fixed config, op and worker
        # shard, so every seed offers the same traffic shape and only
        # the programs change: one key in three is a `compile`, and the
        # shards alternate by rank, which splits the keys and the
        # traffic evenly between the two workers' caches.
        rng = self.rng("corpus")
        self.keys, self.functions = [], []
        for rank in range(self.KEYS):
            config = self.CONFIGS[rank % len(self.CONFIGS)]
            op = "compile" if rank // 3 % 3 == 2 else "run"

            def on_shard(source: str) -> bool:
                key = request_key({"op": op, "source": source,
                                   "config": config})
                return shard_of(key, self.WORKERS) == rank % self.WORKERS

            source, module = banded_program(rng, *self.BAND,
                                            accept=on_shard)
            self.keys.append((source, config, op))
            self.functions.append(len(module.functions))
        self.weights = [1.0 / (rank + 1) for rank in range(self.KEYS)]
        self.start_daemon()

    def start_daemon(self) -> None:
        self.proc, self.port = spawn_daemon(self.WORKERS)
        with ServiceClient(HOST, self.port, timeout=120.0) as conn:
            for config in self.CONFIGS:
                served, i = set(), 0
                while len(served) < self.WORKERS:
                    resp = conn.request({
                        "op": "run", "source": self.WARMUP_SOURCE.format(i),
                        "config": config})
                    served.add(resp["worker"])
                    i += 1

    def sequence(self, client: int, r: int) -> List[int]:
        """The Zipf ranks ``client`` requests in round ``r``.  The
        schedule is the same at every seed, which picks only the
        programs behind the ranks: drawn per seed, the schedule alone
        moves the cache-miss count, and with it the throughput, by
        about 4% from seed to seed."""
        return random.Random(f"{self.name}:{client}:{r}").choices(
            range(self.KEYS), self.weights,
            k=self.ROUND_REQUESTS[self.scale])

    def measure(self, seconds, rec, rounds=None) -> Phase:
        return asyncio.run(self._measure(seconds, rec, rounds))

    async def _measure(self, seconds, rec, rounds) -> Phase:
        """Rounds run in lockstep: both clients finish round r before
        either starts r + 1.  The load spans several processes and both
        CPUs, so no in-process sample tracks it op by op; instead the
        all-CPU speed samples taken either side of a round, while the
        daemon is idle, set the slowdown of that round's requests."""
        probe = spread_probe()
        records: List[OpRecord] = []
        wall_s = busy_s = 0.0
        conns = [AsyncServiceClient(HOST, self.port, timeout=120.0)
                 for _ in range(self.CLIENTS)]
        try:
            for conn in conns:
                await conn.connect()
            probe.sample(3)
            start = time.perf_counter()
            r = 0
            while not r or not self.done(r, start, seconds, rounds):
                before = len(probe.samples) - 1
                t0 = time.perf_counter()
                batches = await asyncio.gather(
                    *(self._client_round(conns[c], c, r, rec)
                      for c in range(self.CLIENTS)))
                round_s = time.perf_counter() - t0
                probe.sample(3)
                slowdown = probe.slowdown(before, before + 2)
                wall_s += round_s
                busy_s += round_s / slowdown
                for batch in batches:
                    for record in batch:
                        record.norm_s = record.latency_s / slowdown
                        records.append(record)
                r += 1
        finally:
            for conn in conns:
                await conn.close()
        return Phase(records, r, wall_s, busy_s, probe.samples)

    async def _client_round(self, conn, c: int, r: int,
                            rec: Recorder) -> List[OpRecord]:
        return [await self._request(conn, c, r, k, rec)
                for k in self.sequence(c, r)]

    async def _request(self, conn, c: int, r: int, k: int,
                       rec: Recorder) -> OpRecord:
        source, config, op = self.keys[k]
        rec.op += 1
        op_id = rec.op
        t0 = time.perf_counter()
        try:
            resp = await conn.request({"op": op, "source": source,
                                       "config": config})
        except Exception as exc:  # noqa: BLE001 - typed errors count
            return OpRecord(time.perf_counter() - t0, r,
                            error=f"key {k} ({config}, {op}): {exc!r}",
                            op=op_id)
        t1 = time.perf_counter()
        result = resp["result"]
        elapsed = resp.get("elapsed_ms", 0.0)
        index = rec.add("service.request", t0, t1, op=op_id, tid=c,
                        key=k, kind=op, elapsed_ms=elapsed,
                        cached=bool(resp.get("cached")),
                        dedup=bool(resp.get("dedup")))
        wire = (t1 - t0) - elapsed / 1000.0
        rec.add("service.daemon", t0 + wire / 2, t1 - wire / 2, op=op_id,
                parent=index, derived=True, tid=c)
        payload = {"program": k, "config": config,
                   "functions": self.functions[k],
                   "degraded": len(result.get("degraded", []))}
        if op == "run":
            output = result["output"]
            if self._outputs.setdefault(k, output) != output:
                return OpRecord(t1 - t0, r,
                                error=f"key {k}: output changed between "
                                      f"requests", op=op_id)
            payload.update(cycles=result["stats"]["cycles"],
                           loads=result["stats"]["memory_loads"])
        return OpRecord(t1 - t0, r, payload, op=op_id)

    def counters(self) -> Dict[str, float]:
        with ServiceClient(HOST, self.port, timeout=60.0) as conn:
            return conn.stats()

    def replay_reset(self) -> None:
        errors = self.close()
        if errors:
            raise RuntimeError("; ".join(errors))
        self._outputs.clear()
        self.start_daemon()

    def close(self) -> List[str]:
        if self.proc is None:
            return []
        code = drain(self.proc)
        self.proc = None
        return [] if code == 0 else [f"daemon drain exited {code}"]

    def peak_rss_mb(self) -> float:
        # the daemon and its workers, all reaped by the drain
        return resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def quality(self, payloads):
        entries = {p["program"]: p for p in payloads}
        refs = {k: base_reference(self.keys[k][0])
                for k, p in entries.items() if "cycles" in p}
        return quality_metrics(list(entries.values()), refs), []


WORKLOADS = {cls.name: cls for cls in (Fig10Cold, FuzzCompile, CampaignWarm,
                                       ServiceZipf)}
