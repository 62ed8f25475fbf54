"""Cross-backend equivalence of the compiled engine (repro.engine).

Every backend — word-parallel bitmask, pointwise, sampled — must agree
bit-for-bit with a naive dict-walking reference evaluator on every seed
circuit, fault-free and under exhaustive single-fault injection (stem
and pin stuck-ats).  The reference below deliberately shares no code
with the engine: it walks the named netlist gate by gate, resolving
stem and pin overrides the way the legacy evaluators did.
"""

import os
import random

import pytest

from repro.engine import FaultSweep, engine_for, select_backend
from repro.engine.vectorized import (
    HAVE_NUMPY,
    PackedFallbackBackend,
    VectorizedBackend,
)
from repro.engine.kernels import KernelBackend
from repro.logic.benchfmt import load_bench
from repro.logic.faults import enumerate_single_faults, fault_overrides
from repro.logic.gates import evaluate as eval_gate
from repro.workloads.benchcircuits import fig62_nand_network
from repro.workloads.fig34 import fig34_network, fig37_fixed_network

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "data")

#: label -> zero-argument builder of one seed circuit
SEED_CIRCUITS = {
    "fig34": fig34_network,
    "fig37_fixed": fig37_fixed_network,
    "fig62_nand": fig62_nand_network,
    "adder4_bench": lambda: load_bench(os.path.join(DATA_DIR, "adder4.bench")),
    "fig34_bench": lambda: load_bench(os.path.join(DATA_DIR, "fig34.bench")),
    "fig37_bench": lambda: load_bench(os.path.join(DATA_DIR, "fig37.bench")),
    "fig62_bench": lambda: load_bench(os.path.join(DATA_DIR, "fig62.bench")),
}

#: Networks at or below this input count are checked on every point;
#: wider ones (the 9-input adder) on a seeded sample per fault.
EXHAUSTIVE_LIMIT = 6
SAMPLE_POINTS = 48


def reference_values(network, point, fault=None):
    """Naive per-point evaluation: named dict walk, no engine code."""
    if fault is None:
        stems, pins = {}, {}
    else:
        stems, pins = fault_overrides(fault)
    values = {}
    for i, name in enumerate(network.inputs):
        v = (point >> i) & 1
        values[name] = stems.get(name, v)
    for gate in network.gates:
        operands = [values[src] for src in gate.inputs]
        for slot in range(len(operands)):
            override = pins.get((gate.name, slot))
            if override is not None:
                operands[slot] = override
        v = eval_gate(gate.kind, operands)
        values[gate.name] = stems.get(gate.name, v)
    return values


def check_points(network):
    n = len(network.inputs)
    if n <= EXHAUSTIVE_LIMIT:
        return list(range(1 << n))
    rnd = random.Random(0x5EED)
    return sorted(rnd.sample(range(1 << n), SAMPLE_POINTS))


@pytest.fixture(params=sorted(SEED_CIRCUITS), scope="module")
def circuit(request):
    return SEED_CIRCUITS[request.param]()


class TestFaultFree:
    def test_backends_match_reference(self, circuit):
        engine = engine_for(circuit)
        comp = engine.compiled
        bits = engine.bitmask.line_bits()
        points = check_points(circuit)
        for point in points:
            ref = reference_values(circuit, point)
            # bitmask: bit `point` of each line mask
            for name, idx in comp.index.items():
                assert (bits[idx] >> point) & 1 == ref[name], (name, point)
            # pointwise: full line list
            tuple_point = engine.sampled.point_tuple(point)
            vals = engine.pointwise.line_values(tuple_point)
            for name, idx in comp.index.items():
                assert vals[idx] == ref[name], (name, point)
        # sampled: output vectors over the whole point list at once
        expected = [
            tuple(reference_values(circuit, p)[o] for o in circuit.outputs)
            for p in points
        ]
        assert engine.sampled.output_vectors(points) == expected


class TestSingleFaultEquivalence:
    def test_backends_agree_under_every_single_fault(self, circuit):
        engine = engine_for(circuit)
        comp = engine.compiled
        points = check_points(circuit)
        for fault in enumerate_single_faults(circuit):
            bits = engine.bitmask.line_bits(fault)
            sampled = engine.sampled.output_vectors(points, fault)
            for pos, point in enumerate(points):
                ref = reference_values(circuit, point, fault)
                for name, idx in comp.index.items():
                    assert (bits[idx] >> point) & 1 == ref[name], (
                        fault.describe(),
                        name,
                        point,
                    )
                tuple_point = engine.sampled.point_tuple(point)
                vals = engine.pointwise.line_values(tuple_point, fault)
                for name, idx in comp.index.items():
                    assert vals[idx] == ref[name], (
                        fault.describe(),
                        name,
                        point,
                    )
                expected_out = tuple(ref[o] for o in circuit.outputs)
                assert sampled[pos] == expected_out, (fault.describe(), point)


class TestVectorizedEquivalence:
    """The packed-word backends — pure-Python and NumPy — must agree
    bit-for-bit with the scalar bitmask backend, fault-free and under
    every single fault."""

    def test_fallback_output_bits_match_bitmask(self, circuit):
        engine = engine_for(circuit)
        packed = PackedFallbackBackend(engine.compiled, engine.bitmask)
        assert packed.output_bits() == engine.bitmask.output_bits()
        for fault in enumerate_single_faults(circuit):
            assert packed.output_bits(fault) == engine.bitmask.output_bits(
                fault
            ), fault.describe()

    @pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")
    def test_vectorized_line_bits_match_bitmask(self, circuit):
        """The kernel's NumPy slab baselines hold every fault-free line
        table, and NumPy pattern simulation over the whole point list
        reproduces each faulty output table."""
        engine = engine_for(circuit)
        kern = KernelBackend(engine.compiled, tile_words=1)
        slabs = kern._baseline()
        for idx, want in enumerate(engine.bitmask.line_bits()):
            words = {}
            for ranges, slab in zip(kern._slabs, slabs):
                order = [w for r0, r1 in ranges for w in range(r0, r1)]
                words.update(zip(order, slab.base[idx].tolist()))
            got = sum(words[w] << (64 * w) for w in words)
            assert got == want, engine.compiled.names[idx]
        vec = VectorizedBackend(engine.compiled)
        points = list(range(1 << len(circuit.inputs)))
        for fault in enumerate_single_faults(circuit):
            (got,) = vec.pattern_bits(points, [fault])
            assert got == engine.bitmask.output_bits(fault), fault.describe()

    @pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")
    def test_vectorized_response_blocks_match_scalar(self, circuit):
        """Whole fault blocks on the NumPy paths: pattern simulation of
        the universe in blocks and the kernel's statuses both match the
        scalar per-fault responses."""
        sweep = FaultSweep(circuit)
        universe = sweep.single_fault_universe()
        points = list(range(1 << sweep.n))
        rows = VectorizedBackend(sweep.compiled, block_faults=7).pattern_bits(
            points, universe
        )
        kern = KernelBackend(sweep.compiled, block_faults=7)
        statuses = kern.sweep_statuses(universe)
        for fault, row, status in zip(universe, rows, statuses):
            assert row == sweep.bitmask.output_bits(fault), fault.describe()
            assert status == sweep.response_bits(fault).status

    def test_sweep_statuses_identical_across_backends(self, circuit):
        sweep = FaultSweep(circuit)
        universe = sweep.single_fault_universe()
        reference = [(f, sweep.classify(f)) for f in universe]
        assert sweep.sweep(universe, backend="bitmask") == reference
        assert sweep.sweep(universe, backend="kernel") == reference
        assert sweep.sweep(universe, backend="auto") == reference

    @pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")
    def test_chunked_word_axis_matches_scalar(self, circuit):
        """Tiny tile_words forces the kernel's mirror-slab path even on
        the seed circuits (the 9-input adder gets real multi-slab
        sweeps: 8 words at tile size 1 and 2)."""
        if len(circuit.inputs) < 7:
            pytest.skip("needs a multi-word truth table to tile")
        sweep = FaultSweep(circuit)
        universe = sweep.single_fault_universe()
        reference = [sweep.classify(f) for f in universe]
        for tile_words in (1, 2):
            kern = KernelBackend(sweep.compiled, tile_words=tile_words)
            assert len(kern._slabs) > 1
            assert kern.sweep_statuses(universe) == reference


@pytest.mark.parametrize("n", range(13))
def test_reflect_bits_is_the_index_complement(n):
    """``reflect_bits`` moves the bit of point ``i`` to point
    ``i ^ (2**n - 1)``, for tables of every width up to 12 inputs."""
    from repro.engine import reflect_bits
    from repro.logic.truthtable import TruthTable

    size = 1 << n
    rng = random.Random(n)
    for bits in (0, (1 << size) - 1, 1, rng.getrandbits(size)):
        want = 0
        for i in range(size):
            if (bits >> i) & 1:
                want |= 1 << (i ^ (size - 1))
        assert reflect_bits(bits, n) == want
        assert TruthTable(n, bits).co_reflect().bits == want


class TestBackendSelection:
    def test_explicit_points_pick_pointwise_or_sampled(self):
        assert select_backend(4, 100, n_points=1) == "pointwise"
        assert select_backend(4, 100, n_points=64) == "sampled"

    def test_one_rule_by_table_size(self):
        """One-word tables run on Python ints, wider ones on the
        kernel; without NumPy everything runs on Python ints; explicit
        points stay pointwise/sampled."""
        for faults in (1, 500):
            for n, numpy_available, rung in (
                (6, True, "bitmask"),
                (7, True, "kernel"),
                (7, False, "bitmask"),
            ):
                assert select_backend(n, faults, numpy_available) == rung
        assert select_backend(7, 500, n_points=1) == "pointwise"
        assert select_backend(7, 500, n_points=9) == "sampled"

    def test_small_batches_stay_scalar(self):
        assert select_backend(4, 3, numpy_available=True) == "bitmask"
        assert select_backend(4, 3, numpy_available=False) == "bitmask"

    def test_large_batches_vectorize(self):
        # The fault count never decides the rung: a large batch on a
        # one-word table stays on Python ints, a multi-word one runs on
        # the NumPy kernel.
        assert select_backend(4, 200, numpy_available=True) == "bitmask"
        assert select_backend(9, 200, numpy_available=True) == "kernel"
        assert select_backend(9, 200, numpy_available=False) == "bitmask"

    def test_wide_inputs_block_even_for_few_faults(self):
        # The kernel has no input ceiling: wide circuits land on it
        # whatever the fault count.
        assert select_backend(20, 2, numpy_available=True) == "kernel"
        assert select_backend(24, 2, numpy_available=True) == "kernel"
        assert select_backend(24, 2, numpy_available=False) == "bitmask"

    def test_kernel_rung_engages_above_cold_crossover(self):
        # The crossover is one 64-bit word: NumPy set-up loses to Python
        # ints on n <= 6 tables and wins above.
        assert select_backend(6, 200, numpy_available=True) == "bitmask"
        assert select_backend(7, 200, numpy_available=True) == "kernel"
        assert select_backend(13, 200, numpy_available=False) == "bitmask"

    def test_unknown_backend_name_rejected(self):
        sweep = FaultSweep(fig34_network())
        with pytest.raises(ValueError):
            sweep.sweep(sweep.single_fault_universe(), backend="gpu")


class TestWideInputGuard:
    """Circuits beyond the 25-input exhaustive ceiling must get a clear
    ``ValueError`` from the bitmask backend instead of an OOM attempt,
    while the sampled/kernel paths keep working (regression for the
    eager 2^n-bit ``full`` mask allocation)."""

    def _wide_net(self, n_inputs=30):
        from repro.workloads.randomlogic import random_mixed_network

        return random_mixed_network(
            random.Random(0x71DE),
            n_inputs=n_inputs,
            n_gates=40,
            n_outputs=3,
        )

    def test_engine_builds_but_bitmask_raises(self):
        net = self._wide_net()
        engine = engine_for(net)  # must not allocate 2^30-bit masks
        with pytest.raises(ValueError, match="exhaustive ceiling"):
            engine.bitmask
        # pointwise/sampled still serve
        point = tuple([0, 1] * 15)
        assert engine.pointwise.output_values(point) is not None

    def test_fault_sweep_builds_lazily(self):
        net = self._wide_net()
        sweep = FaultSweep(net)  # previously touched .bitmask eagerly
        with pytest.raises(ValueError, match="exhaustive ceiling"):
            sweep.full

    def test_selection_never_picks_bitmask_wide(self):
        # With NumPy, wide tables stream through the kernel; without
        # it no rung can sweep them exhaustively.
        for n in (26, 30, 40):
            for faults in (1, 4, 100):
                assert select_backend(n, faults, numpy_available=True) != (
                    "bitmask"
                )


class TestSweepDrivers:
    def test_parallel_sweep_matches_serial(self, circuit):
        if len(circuit.inputs) > EXHAUSTIVE_LIMIT:
            pytest.skip("word-parallel sweep only exercised on small seeds")
        sweep = FaultSweep(circuit)
        universe = sweep.single_fault_universe()
        serial = sweep.sweep(universe)
        parallel = sweep.sweep(universe, processes=2)
        assert serial == parallel
        assert sweep.last_sweep_backend.startswith("fork:")

    def test_fork_unavailable_falls_back_to_serial_block_backend(
        self, monkeypatch
    ):
        """Platforms without the fork start method must still serve
        parallel requests — in-process on the rung auto picked (the
        kernel for the 9-input adder), not by silently degrading to
        per-fault scalar."""
        import multiprocessing

        real_get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return real_get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        sweep = FaultSweep(SEED_CIRCUITS["adder4_bench"]())
        universe = sweep.single_fault_universe()
        reference = [(f, sweep.classify(f)) for f in universe]
        result = sweep.sweep(universe, processes=4)
        assert result == reference
        rung = select_backend(sweep.n, len(universe))
        assert sweep.last_sweep_backend == rung
        # The fallback is recorded, not silent: the campaign report
        # names the ladder step and the reason.
        assert any(
            d.to == "serial" and "fork" in d.reason
            for d in sweep.last_report.degradations
        )

    def test_every_sweep_leaves_a_report(self, circuit):
        sweep = FaultSweep(circuit)
        universe = sweep.single_fault_universe()
        sweep.sweep(universe)
        report = sweep.last_report
        assert report is not None
        assert report.faults == len(universe)
        assert report.chunks_completed + report.chunks_resumed == (
            report.chunks_total
        )
        assert sweep.last_sweep_backend == report.block_backend

    def test_classification_matches_legacy_simulator(self, circuit):
        if len(circuit.inputs) > EXHAUSTIVE_LIMIT:
            pytest.skip("exhaustive oracle only exercised on small seeds")
        from repro.core.simulate import ScalSimulator

        sweep = FaultSweep(circuit)
        sim = ScalSimulator(circuit)
        for fault in sweep.single_fault_universe():
            bits = sweep.response_bits(fault)
            resp = sim.response(fault)
            assert bits.affected == resp.affected.bits
            assert bits.detected == resp.detected.bits
            assert bits.violations == resp.violations.bits
