"""The traced run: each workload's time split across the ``repro`` layers.

``run.py --trace 1`` lands here.  The cold workloads are replayed in
this process through the layers' public entry points (``load_bench``,
``NetworkEngine``, ``FaultSweep.sweep``, ``run_atpg``,
``SynthCampaign.run``), each call timed from outside, with the metrics
registry and an in-memory flight recorder on.  Only spans and counters
the program already emits are read: ``sweep.chunk``, ``kernel.compile``,
``atpg.target``, ``synth.batch`` and the ``repro_*`` counters.  The one
addition is a timing wrapper, installed from here, around the ATPG
engine's pattern-simulation seam.  ``serve-closed`` is traced from the
client side plus ``/metrics`` scrapes.

Each request's traced wall is split into layer times plus an
``unattributed_s`` remainder, so the two always sum to the traced
wall (``trace.wall_s``).  A second traced pass over the first round
(one request of every slot of the round's plan) must reproduce the
exact counts request by request, and a matching untraced pass gives
``obs.trace_overhead``.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter
from typing import Dict, List

import run

# The traced run imports the program from the checkout, like the children.
sys.path.insert(0, run.SRC)

#: Layer times; with ``unattributed_s`` they sum to ``trace.wall_s``.
LAYER_TIMES = (
    "cli.import_s", "logic.parse_s", "compiled.compile_s",
    "engine.baseline_s", "kernels.codegen_s", "block.sim_s",
    "supervisor.overhead_s", "transport.fanout_s", "atpg.podem_s",
    "atpg.sim_s", "synth.fitness_s", "serve.exec_s", "serve.replay_s",
)
#: Counts that must repeat exactly between two traced passes.
EXACT = ("engine.ops_total", "engine.words_total", "atpg.targets",
         "synth.evaluations", "store.hits")
#: Registry totals read after each request, by per-layer name.
COUNTERS = {
    "engine.ops_total": "repro_engine_ops_total",
    "engine.words_total": "repro_engine_words_total",
    "kernels.compiles": "repro_kernel_compiles_total",
    "kernels.hits": "repro_kernel_cache_hits_total",
    "kernels.misses": "repro_kernel_cache_misses_total",
    "supervisor.chunks": "repro_campaign_chunks_total",
    "supervisor.retries": "repro_campaign_retries_total",
    "supervisor.degradations": "repro_campaign_degradations_total",
    "atpg.targets": "repro_atpg_targets_total",
    "atpg.candidates": "repro_atpg_candidates_total",
    "atpg.dropped": "repro_atpg_dropped_total",
    "synth.evaluations": "repro_synth_evaluations_total",
    "synth.generations": "repro_synth_generations_total",
    "store.hits": "repro_store_hits_total",
    "store.misses": "repro_store_misses_total",
    "serve.journal_records": "repro_serve_journal_records_total",
    "serve.shed": "repro_serve_shed_total",
}
#: Layers the server runs inside ``serve.exec_s``, out of a client's sight.
SERVER_INSIDE = ("logic.parse_s", "compiled.compile_s", "engine.baseline_s",
                 "kernels.codegen_s", "block.sim_s", "supervisor.overhead_s",
                 "synth.fitness_s", "compiled.ops", "block.faults",
                 "block.faults_per_s")
UNITS = {"compiled.ops": "count", "block.faults": "count",
         "block.faults_per_s": "1/s", "kernels.cache_hit_ratio": "ratio",
         "atpg.dropped_ratio": "ratio", "store.hit_ratio": "ratio",
         "obs.trace_overhead": "ratio", "trace.wall_s": "s",
         "unattributed_s": "s"}


def import_probe() -> float:
    """Seconds a fresh interpreter takes to ``import repro.cli``."""
    import subprocess

    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.cli"],
                   env=run.child_env(), check=True)
    return time.perf_counter() - started


def span_wall(events, name: str) -> float:
    return sum(e["wall"] for e in events
               if e.get("k") == "span" and e["name"] == name)


class Tracer:
    """Runs requests in process and accumulates layer times and counts."""

    def __init__(self, workdir: str, expected: dict) -> None:
        from repro import obs

        self.obs = obs
        self.workdir = workdir
        self.expected = expected
        self.layers: Counter = Counter()
        self.counts: Counter = Counter()
        self.wall = 0.0
        self.problems: List[str] = []
        self._sim_calls: List[tuple] = []
        import repro.engine.atpg as engine_atpg

        # Time the ATPG engine's pattern-simulation seam from outside.
        inner = engine_atpg.chunk_pattern_bits

        def timed(*args, **kwargs):
            t0, p0 = time.time(), time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self._sim_calls.append((t0, time.perf_counter() - p0))

        engine_atpg.chunk_pattern_bits = timed

    # -- one request -------------------------------------------------
    def request(self, request: dict, cold: bool, traced: bool = True) -> dict:
        """Run ``request`` once; returns its layer times and exact counts.

        ``cold`` adds a fresh-interpreter import probe (what each cold
        CLI process pays).  ``traced=False`` runs with telemetry off and
        only the wall is meaningful."""
        obs = self.obs
        layers: Counter = Counter()
        started = time.perf_counter()
        if cold:
            layers["cli.import_s"] = import_probe()
        obs.REGISTRY.reset()
        recorder = obs.MemoryRecorder() if traced else None
        counts: Counter = Counter()
        self._sim_calls.clear()
        with obs.recording(recorder=recorder, metrics=traced):
            result, side = getattr(self, "_" + request["kind"])(
                request, layers, counts, recorder.events if traced else None
            )
        wall = time.perf_counter() - started - side
        problem = run.check(request, result, self.expected)
        if problem:
            self.problems.append(problem)
        if traced:
            for name, metric in COUNTERS.items():
                counts[name] = obs.REGISTRY.total(metric)
        return {"wall": wall, "layers": layers, "counts": counts}

    def _load(self, request, layers):
        from repro.engine import NetworkEngine
        from repro.logic.benchfmt import load_bench

        t0 = time.perf_counter()
        network = load_bench(run.bench_path(request["name"], self.workdir))
        t1 = time.perf_counter()
        engine = NetworkEngine(network)
        layers["logic.parse_s"] += t1 - t0
        layers["compiled.compile_s"] += time.perf_counter() - t1
        return network, engine

    def _campaign(self, request, layers, counts, events):
        from repro.core.collapse import collapsed_single_faults
        from repro.engine import KERNEL_MAX_INPUTS, FaultSweep, select_backend

        network, engine = self._load(request, layers)
        universe = list(collapsed_single_faults(network))
        sweep = FaultSweep(network, engine=engine)
        t0 = time.perf_counter()
        backend = select_backend(sweep.n, len(universe))
        if backend in ("kernel", "vectorized") and sweep.n <= KERNEL_MAX_INPUTS:
            # The full-table baseline both block backends build on first
            # use; wider circuits build theirs per word slab inside the
            # sweep, so there it lands in block.sim_s.
            block = getattr(engine, backend)
            build = getattr(block, "_baseline", None) or getattr(
                block, "_full_baseline", None)
            if build is not None:
                build()
        t1 = time.perf_counter()
        pairs = sweep.sweep(universe)
        t2 = time.perf_counter()
        layers["engine.baseline_s"] += t1 - t0
        if events is not None:
            chunks = span_wall(events, "sweep.chunk")
            codegen = span_wall(events, "kernel.compile")
            layers["kernels.codegen_s"] += codegen
            layers["block.sim_s"] += chunks - codegen
            layers["supervisor.overhead_s"] += (t2 - t1) - chunks
            counts["compiled.ops"] += len(engine.compiled.ops)
            counts["block.faults"] += len(universe)
        side = 0.0
        if request.get("processes", 1) > 1:
            side = self._fanout(request, layers, (t2 - t0))
        statuses = Counter(status for _f, status in pairs)
        total = max(len(universe), 1)
        result = {"faults": float(len(universe))}
        for status in ("detected", "silent", "dangerous"):
            result[status] = statuses[status] / total
        return result, side

    def _fanout(self, request, layers, inline_wall) -> float:
        """``transport.fanout_s``: the same sweep fanned out over two
        worker lanes, minus its inline wall.  The side run itself is
        excluded from the traced wall (only its excess counts)."""
        from repro.core.collapse import collapsed_single_faults
        from repro.engine import FaultSweep, NetworkEngine
        from repro.logic.benchfmt import load_bench

        obs = self.obs
        started = time.perf_counter()
        recorder, enabled = obs.get_recorder(), obs.REGISTRY.enabled
        obs.set_recorder(None)
        obs.REGISTRY.enabled = False
        try:
            network = load_bench(run.bench_path(request["name"], self.workdir))
            sweep = FaultSweep(network, engine=NetworkEngine(network))
            universe = list(collapsed_single_faults(network))
            t0 = time.perf_counter()
            sweep.sweep(universe, processes=request["processes"])
            fanned = time.perf_counter() - t0
        finally:
            obs.set_recorder(recorder)
            obs.REGISTRY.enabled = enabled
        layers["transport.fanout_s"] += fanned - inline_wall
        return (time.perf_counter() - started) - (fanned - inline_wall)

    def _atpg(self, request, layers, counts, events):
        from repro.engine.atpg import run_atpg

        network, engine = self._load(request, layers)
        report = run_atpg(network, engine=engine)
        if events is not None:
            targets = [(e["t"], e["t"] + e["wall"]) for e in events
                       if e.get("k") == "span" and e["name"] == "atpg.target"]
            in_targets = sum(
                dur for t0, dur in self._sim_calls
                if any(a <= t0 <= b for a, b in targets)
            )
            layers["atpg.podem_s"] += sum(b - a for a, b in targets) - in_targets
            layers["atpg.sim_s"] += sum(dur for _t, dur in self._sim_calls)
            counts["atpg.requested"] += report.requested
        return report.to_dict(), 0.0

    def _synth(self, request, layers, counts, events):
        from repro.synth import SPECS, SynthCampaign

        fields = run.synth_fields(request["name"])
        spec = SPECS[fields.pop("spec")]
        report = SynthCampaign(spec, **fields).run()
        if events is not None:
            layers["synth.fitness_s"] += span_wall(events, "synth.batch")
        return report.to_dict(), 0.0

    # -- bookkeeping -------------------------------------------------
    def add(self, record: dict) -> None:
        self.wall += record["wall"]
        self.layers.update(record["layers"])
        self.counts.update(record["counts"])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def finish(workload, layers, counts, wall, overhead) -> Dict[str, dict]:
    """Every per-layer metric of ``BENCHMARK.json``, with its unit."""
    metrics = {name: layers.get(name, 0.0) for name in LAYER_TIMES}
    metrics["unattributed_s"] = wall - sum(metrics.values())
    metrics["trace.wall_s"] = wall
    for name in ("compiled.ops", "block.faults", "engine.ops_total",
                 "engine.words_total", "kernels.compiles",
                 "supervisor.chunks", "supervisor.retries",
                 "supervisor.degradations", "atpg.targets",
                 "atpg.candidates", "synth.evaluations",
                 "synth.generations", "store.hits", "store.misses",
                 "serve.journal_records", "serve.shed"):
        metrics[name] = counts.get(name, 0)
    metrics["block.faults_per_s"] = ratio(
        counts.get("block.faults", 0), layers.get("block.sim_s", 0.0))
    metrics["kernels.cache_hit_ratio"] = ratio(
        counts.get("kernels.hits", 0),
        counts.get("kernels.hits", 0) + counts.get("kernels.misses", 0))
    metrics["atpg.dropped_ratio"] = ratio(
        counts.get("atpg.dropped", 0), counts.get("atpg.requested", 0))
    metrics["store.hit_ratio"] = ratio(
        counts.get("store.hits", 0),
        counts.get("store.hits", 0) + counts.get("store.misses", 0))
    metrics["obs.trace_overhead"] = overhead
    print_table(workload, metrics)
    return {
        name: {"value": value,
               "unit": UNITS.get(name, "s" if name.endswith("_s") else "count")}
        for name, value in metrics.items()
    }


def note(workload: str, name: str, value: float) -> str:
    if workload == "serve-closed" and name in SERVER_INSIDE:
        return "  (inside serve.exec_s; not measurable from the client)"
    if workload == "serve-closed" and name == "obs.trace_overhead":
        return ("  (cost of the per-round /metrics scrapes; the server's "
                "own telemetry is always on)")
    if name in LAYER_TIMES and not value:
        return "  (not exercised by this workload)"
    return ""


def print_table(workload: str, metrics: dict) -> None:
    wall = metrics["trace.wall_s"]
    print(f"traced run: {workload}, traced wall {wall:.3f}s")
    for name in LAYER_TIMES + ("unattributed_s",):
        value = metrics[name]
        print(f"  {name:<24} {value:9.4f}s {ratio(value, wall):7.1%}"
              f"{note(workload, name, value)}")
    for name, value in metrics.items():
        if name not in LAYER_TIMES and name not in ("unattributed_s", "trace.wall_s"):
            print(f"  {name:<24} {value:g}{note(workload, name, value)}")


# ----------------------------------------------------------------------
# the cold workloads, in process
# ----------------------------------------------------------------------
def trace_cold(workload, seed, seconds, workdir, expected):
    tracer = Tracer(workdir, expected)
    records, walls = run.timed_rounds(
        workload, seed, seconds / 2,
        lambda request: tracer.request(request, cold=True),
    )
    for record in records:
        tracer.add(record)
    # Second pass over the first round, which holds one request of every
    # slot of the plan: the exact counts must repeat request by request,
    # and an untraced twin gives the telemetry overhead.
    first_round = records[:len(records) // len(walls)]
    traced = untraced = 0.0
    for record in first_round:
        request = record["request"]
        plain = tracer.request(request, cold=False, traced=False)
        again = tracer.request(request, cold=False)
        untraced += plain["wall"] - plain["layers"]["transport.fanout_s"]
        traced += again["wall"] - again["layers"]["transport.fanout_s"]
        for name in EXACT:
            if again["counts"][name] != record["counts"][name]:
                tracer.problems.append(
                    f"{name} did not repeat on {request['name']}: "
                    f"{record['counts'][name]} then {again['counts'][name]}")
    metrics = finish(workload, tracer.layers, tracer.counts, tracer.wall,
                     ratio(traced, untraced))
    return len(records) + 2 * len(first_round), tracer.problems, metrics


# ----------------------------------------------------------------------
# serve-closed, from the client side
# ----------------------------------------------------------------------
def scrape(server) -> Counter:
    """Totals of every ``repro_*`` metric on ``/metrics``, by name."""
    status, text = server.get("/metrics")
    if status != 200:
        raise run.RunError(f"/metrics answered {status}")
    totals: Counter = Counter()
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        sample, value = line.rsplit(" ", 1)
        totals[sample.split("{", 1)[0]] += float(value)
    return totals


def serve_pass(workdir, expected, seed, rounds, tag, scrape_each_round,
               import_s):
    """One server from spawn through a fixed number of rounds; returns
    layers, counts, wall.

    The wall starts at the server's spawn, so it holds the import the
    server pays at set-up; ``import_s`` (timed beforehand in a fresh
    interpreter) is that share of it."""
    server = run.Server(workdir, tag)
    layers: Counter = Counter()
    layers["cli.import_s"] = min(import_s, server.ready_s)
    problems: List[str] = []
    try:
        pick = run.Picker(random.Random(f"perfbench:serve-closed:{seed}"))
        for index in range(rounds):
            for request in run.plan_round("serve-closed", index, pick):
                record = run.serve_request(server, request, expected)
                if record["problem"]:
                    problems.append(record["problem"])
                key = "serve.replay_s" if record["replayed"] else "serve.exec_s"
                layers[key] += record["seconds"]
            if scrape_each_round:
                scrape(server)
        wall = time.perf_counter() - server.started
        totals = scrape(server)
    finally:
        server.stop()
    counts = Counter({name: totals.get(metric, 0.0)
                      for name, metric in COUNTERS.items()})
    return layers, counts, wall, problems


def trace_serve(workload, seed, seconds, workdir, expected):
    # Size the passes from one timed round so both fit in --seconds.
    probe = run.Server(workdir, "probe")
    try:
        pick = run.Picker(random.Random(f"perfbench:serve-closed:{seed}"))
        started = time.perf_counter()
        plan = run.plan_round("serve-closed", 0, pick)
        probed = [run.serve_request(probe, request, expected) for request in plan]
        round_s = time.perf_counter() - started
    finally:
        probe.stop()
    rounds = max(1, int(seconds * 0.4 / round_s))
    import_s = import_probe()
    layers, counts, wall, problems = serve_pass(
        workdir, expected, seed, rounds, "trace-a", True, import_s)
    _layers, counts_b, wall_b, problems_b = serve_pass(
        workdir, expected, seed, rounds, "trace-b", False, import_s)
    for name in EXACT:
        if counts[name] != counts_b[name]:
            problems.append(f"{name} did not repeat: {counts[name]} then "
                            f"{counts_b[name]}")
    problems += problems_b + [r["problem"] for r in probed if r["problem"]]
    metrics = finish(workload, layers, counts, wall, ratio(wall, wall_b))
    return (2 * rounds + 1) * len(plan), problems, metrics


def run_trace(workload, seed, seconds, workdir, expected):
    if workload == "serve-closed":
        return trace_serve(workload, seed, seconds, workdir, expected)
    return trace_cold(workload, seed, seconds, workdir, expected)
