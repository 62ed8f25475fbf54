#!/usr/bin/env python3
"""Regenerate ``expected.json``: the pinned outputs the benchmark checks.

    PYTHONPATH=src python3 perfbench/pin.py

Campaign and ATPG expectations come from the independent reference in
``circuits.py``, never from the program under test:

* ``campaign``: SCAL status counts (detected / silent / dangerous) over
  the program's collapsed fault universe (the universe is an input of
  the check, so it is taken from ``collapsed_single_faults``);
* ``atpg``: over the collapsed stem universe, ``detected`` is the count
  of faults some input vector exposes and ``redundant`` the rest.

Synthesis is a seeded search, so its outcome (winner fingerprint,
evaluations, convergence) is recorded from one in-process run; every
perfect winner is then re-verified by the reference: it must compute
the spec's truth tables and be self-dual.

It also runs the program's own campaign and ATPG on every pinned
circuit and stops on the first disagreement.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import circuits  # noqa: E402
import run  # noqa: E402


def campaign_expectation(text):
    from repro.core.collapse import collapsed_single_faults
    from repro.engine import FaultSweep, NetworkEngine
    from repro.logic.benchfmt import parse_bench

    network = parse_bench(text)
    universe = list(collapsed_single_faults(network))
    ref = circuits.Reference(text)
    statuses = [ref.scal_status(circuits.as_reference_fault(f)) for f in universe]
    sweep = FaultSweep(network, engine=NetworkEngine(network))
    program = [s for _f, s in sweep.sweep(universe)]
    if program != statuses:
        raise SystemExit(f"campaign disagreement on {network.name}")
    return {
        "faults": len(universe),
        "detected": statuses.count("detected"),
        "silent": statuses.count("silent"),
        "dangerous": statuses.count("dangerous"),
    }


def atpg_expectation(text):
    from repro.core.collapse import collapse_stem_faults
    from repro.engine.atpg import run_atpg
    from repro.logic.benchfmt import parse_bench

    network = parse_bench(text)
    universe = list(collapse_stem_faults(network))
    ref = circuits.Reference(text)
    detectable = sum(
        ref.detectable(circuits.as_reference_fault(f)) for f in universe
    )
    want = {
        "requested": len(universe),
        "detected": detectable,
        "redundant": len(universe) - detectable,
    }
    report = run_atpg(network)
    got = {k: getattr(report, k) for k in want}
    if got != want or report.aborted:
        raise SystemExit(f"atpg disagreement on {network.name}: {got}")
    return want


def genome_text(genome: dict) -> str:
    """A synthesized genome as ``.bench`` text for the reference."""
    n = genome["n_inputs"]
    names = [f"x{i}" for i in range(n)]
    lines = [f"INPUT({name})" for name in names]
    gates = []
    for i, (kind, sources) in enumerate(genome["gates"]):
        names.append(f"g{i}")
        gates.append(f"g{i} = {kind}({', '.join(names[s] for s in sources)})")
    lines += [f"OUTPUT({names[o]})" for o in genome["outputs"]]
    return "\n".join(lines + gates) + "\n"


def synth_expectation(key):
    from repro.synth import SPECS, SynthCampaign

    fields = run.synth_fields(key)
    spec = SPECS[fields.pop("spec")]
    report = SynthCampaign(spec, **fields).run().to_dict()
    if report["best_perfect"]:
        ref = circuits.Reference(genome_text(json.loads(report["best_genome"])))
        at_x, at_xbar = ref.good
        for row, row_bar, table in zip(at_x, at_xbar, spec.tables):
            if int(row[0]) != table or (row ^ row_bar).tolist() != [int(ref.ones)]:
                raise SystemExit(f"synth {key}: perfect winner fails the reference")
    return {k: report[k] for k in ("best_fingerprint", "evaluations", "converged")}


def main() -> int:
    expected = {"campaign": {}, "atpg": {}, "synth": {}}
    started = time.perf_counter()
    names = list(run.SMALL_EXAMPLES) + ["array10"] + [
        circuits.ila_name(stages, index)
        for stages, size in sorted(circuits.POOLS.items())
        for index in range(size)
    ]
    for name in names:
        expected["campaign"][name] = campaign_expectation(run.bench_text(name))
    print(f"campaign: {len(names)} circuits, {time.perf_counter() - started:.0f}s")
    for name in ["array10", "array11"] + [
        circuits.ila_name(6, index) for index in range(circuits.POOLS[6])
    ]:
        expected["atpg"][name] = atpg_expectation(run.bench_text(name))
    for spec in circuits.SYNTH_SPECS:
        for seed in circuits.SYNTH_SEEDS:
            key = f"{spec}:{seed}"
            expected["synth"][key] = synth_expectation(key)
    with open(os.path.join(HERE, "expected.json"), "w") as handle:
        json.dump(expected, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote expected.json in {time.perf_counter() - started:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
