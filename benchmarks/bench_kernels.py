"""E-KERNELS — the codegen kernel rung vs the bitmask rung
(ROADMAP item 5).

One workload, three runs: the randlogic single-fault universe (shared
with bench_campaigns) classified by the scalar bitmask rung (Python
ints), the program-specialized kernel rung, and the kernel again on a
tiled word axis.  The gate asserts statuses are byte-identical across
all three and that the kernel's steady-state sweep beats the bitmask
rung by at least ``MIN_KERNEL_SPEEDUP`` — measured on whichever tier is
live (the exec'd-NumPy rung alone must hold the floor; Numba, when
importable, only raises it).

The cold first sweep (kernel generation included) is reported but not
gated.
"""

import time
from collections import Counter

from _harness import benchmark_elapsed, record

from bench_campaigns import (
    RANDLOGIC_GATES,
    RANDLOGIC_INPUTS,
    RANDLOGIC_OUTPUTS,
    RANDLOGIC_SEED,
)

import random

from repro import obs
from repro.engine import FaultSweep, engine_for
from repro.engine.vectorized import HAVE_NUMPY, chunk_statuses
from repro.workloads.randomlogic import random_mixed_network

#: The floor: the kernel rung's steady-state randlogic sweep must beat
#: the bitmask rung on the same circuit by at least this factor.
MIN_KERNEL_SPEEDUP = 2.0

#: Words per mirror half-tile of the tiled kernel run (the 12-input
#: table has 64 words, so this makes 4 slabs).
TILED_WORDS = 8

#: Steady-state timings are best-of-N to damp scheduler noise.
ROUNDS = 5


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def kernels_report():
    rng = random.Random(RANDLOGIC_SEED)
    net = random_mixed_network(
        rng,
        n_inputs=RANDLOGIC_INPUTS,
        n_gates=RANDLOGIC_GATES,
        n_outputs=RANDLOGIC_OUTPUTS,
    )
    eng = engine_for(net)
    sweep = FaultSweep(net, engine=eng)
    universe = sweep.single_fault_universe()

    was_enabled = obs.metrics_enabled()
    obs.enable_metrics(False)
    try:
        scalar = [
            s for _, s in sweep.sweep(universe, backend="bitmask")
        ]
        bitmask_seconds = _best_of(
            lambda: chunk_statuses(eng, universe, "bitmask")
        )
        if HAVE_NUMPY:
            from repro.engine.kernels import HAVE_NUMBA, KernelBackend

            start = time.perf_counter()
            kern = KernelBackend(eng.compiled)
            kernel_statuses = kern.sweep_statuses(universe)
            cold_seconds = time.perf_counter() - start
            kern_seconds = _best_of(
                lambda: kern.sweep_statuses(universe)
            )
            tiled_statuses = KernelBackend(
                eng.compiled, tile_words=TILED_WORDS
            ).sweep_statuses(universe)
            cache = kern.cache_stats()
            tier = "numba" if (HAVE_NUMBA and kern.use_numba) else "numpy"
        else:
            kernel_statuses = tiled_statuses = scalar
            kern_seconds = cold_seconds = 0.0
            cache = {"kernels": 0, "blocks": 0, "tiles": 0}
            tier = "unavailable"
    finally:
        obs.enable_metrics(was_enabled)

    identical = scalar == kernel_statuses == tiled_statuses
    speedup = bitmask_seconds / kern_seconds if kern_seconds > 0 else 0.0
    counts = Counter(scalar)
    lines = [
        "Program-specialized kernel rung vs bitmask rung "
        f"({RANDLOGIC_INPUTS} inputs, {RANDLOGIC_GATES} gates, "
        f"{len(universe)} live faults)",
        f"  statuses: {counts['detected']} detected, "
        f"{counts['silent']} silent, {counts['dangerous']} dangerous",
        f"  byte-identical across bitmask/kernel/kernel tiled: "
        f"{identical}",
        f"  bitmask steady-state:     {bitmask_seconds * 1e3:8.2f} ms",
        f"  kernel steady-state:      {kern_seconds * 1e3:8.2f} ms   "
        f"({speedup:.2f}x, floor {MIN_KERNEL_SPEEDUP:.1f}x)",
        f"  kernel cold (codegen in): {cold_seconds * 1e3:8.2f} ms   "
        f"({cache['kernels']} kernels compiled, tier {tier})",
    ]
    ok = identical and (
        not HAVE_NUMPY or speedup >= MIN_KERNEL_SPEEDUP
    )
    metrics = {
        "kernels_faults": len(universe),
        "kernels_detected": counts["detected"],
        "kernels_silent": counts["silent"],
        "kernels_dangerous": counts["dangerous"],
        "kernels_statuses_identical": identical,
        "kernels_compiled": cache["kernels"],
        # the live tier (numpy/numba) is in the text report only: it
        # legitimately differs between the CI numba job and the plain
        # job, and --check compares non-timing metrics exactly
        "kernels_bitmask_seconds": bitmask_seconds,
        "kernels_kernel_seconds": kern_seconds,
        "kernels_cold_seconds": cold_seconds,
        "kernels_speedup": speedup,
    }
    return "\n".join(lines), ok, metrics


def test_kernels(benchmark):
    text, ok, metrics = benchmark.pedantic(
        kernels_report, rounds=2, iterations=1
    )
    record(
        "kernels",
        text,
        metrics=metrics,
        elapsed=benchmark_elapsed(benchmark),
    )
    assert ok, (
        "statuses diverged across runs or kernel speedup over bitmask "
        "below "
        f"{MIN_KERNEL_SPEEDUP}x: {metrics}"
    )
