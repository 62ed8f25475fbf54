"""The codegen kernel tier (repro.engine.kernels).

Every test here is a differential check against the scalar classifier:
the kernel tier re-derives the SCAL pair classification from generated
straight-line source (folded constants, dead-line elimination, fused
seeds, released dead values), so nothing short of byte-identical
statuses counts as passing.  Covers the exec'd-NumPy rung, both
Numba-probe branches (via a stub module — the tier must behave
identically whether Numba is importable or not), single-threaded and
tiled/threaded word axes, streamed slabs beyond the full-table ceiling,
and the per-backend kernel cache (kernels never enter the
content-addressed store).
"""

import random
import types

import pytest

from repro.engine import (
    FaultSweep,
    KERNEL_MAX_INPUTS,
    NetworkEngine,
    engine_for,
    select_backend,
)
from repro.engine.store import STORE
from repro.engine.vectorized import HAVE_NUMPY, chunk_statuses
from repro.logic.benchfmt import parse_bench
from repro.logic.faults import StuckAt
from repro.logic.gates import GateKind
from repro.logic.network import Gate, Network
from repro.workloads.fig34 import fig34_network
from repro.workloads.randomlogic import random_mixed_network

from .test_engine import SEED_CIRCUITS

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the kernel tier needs NumPy"
)

if HAVE_NUMPY:
    from repro.engine import kernels
    from repro.engine.kernels import KernelBackend


def scalar_statuses(engine, universe):
    return chunk_statuses(engine, universe, "bitmask")


@pytest.fixture(params=sorted(SEED_CIRCUITS))
def seed_circuit(request):
    return SEED_CIRCUITS[request.param]()


@pytest.fixture
def mixed9():
    return random_mixed_network(
        random.Random(0xBEEF), n_inputs=9, n_gates=90, n_outputs=5
    )


class TestKernelEquivalence:
    def test_seed_circuits_byte_identical(self, seed_circuit):
        eng = engine_for(seed_circuit)
        universe = FaultSweep(
            seed_circuit, engine=eng
        ).single_fault_universe()
        kern = KernelBackend(eng.compiled)
        assert kern.sweep_statuses(universe) == scalar_statuses(
            eng, universe
        )

    def test_random_mixed_all_block_sizes(self, mixed9):
        eng = engine_for(mixed9)
        universe = FaultSweep(mixed9, engine=eng).single_fault_universe()
        reference = scalar_statuses(eng, universe)
        for block_faults in (1, 7, 16, len(universe)):
            kern = KernelBackend(
                eng.compiled,
                block_faults=block_faults,
            )
            assert kern.sweep_statuses(universe) == reference, block_faults

    def test_tiled_word_axis_threads_1_and_n(self, mixed9):
        """tile_words=1 forces real mirror-tile slabs (9 inputs = 8
        words = 4 slabs); the threaded and serial paths must agree with
        each other and with the scalar classifier."""
        eng = engine_for(mixed9)
        universe = FaultSweep(mixed9, engine=eng).single_fault_universe()
        reference = scalar_statuses(eng, universe)
        for threads in (1, 4):
            kern = KernelBackend(
                eng.compiled,
                tile_words=1,
                threads=threads,
            )
            assert len(kern._slabs) == 4
            assert kern.sweep_statuses(universe) == reference, threads

    def test_repeat_sweep_hits_prepared_blocks(self, mixed9):
        eng = engine_for(mixed9)
        universe = FaultSweep(mixed9, engine=eng).single_fault_universe()
        kern = KernelBackend(eng.compiled)
        first = kern.sweep_statuses(universe)
        stats = kern.cache_stats()
        assert kern.sweep_statuses(universe) == first
        # steady state: no new kernels, no new prepared blocks
        assert kern.cache_stats() == stats

    def test_dead_cone_fault_is_const_kernel(self):
        """A fault that cannot reach any output compiles to a const
        kernel (no generated function at all) and still classifies
        exactly as the scalar path does."""
        net = Network(
            ["a", "b"],
            [
                Gate("dead", GateKind.AND, ("a", "b")),
                Gate("out", GateKind.XOR, ("a", "b")),
            ],
            ["out"],
        )
        eng = engine_for(net)
        fault = StuckAt("dead", 1)
        kern = KernelBackend(eng.compiled)
        assert kern.sweep_statuses([fault]) == scalar_statuses(eng, [fault])
        (kobj,) = kern._kernels.values()
        assert kobj.tier == "const"
        assert kobj.fn is None

    def test_constant_folding_collapses_const_cones(self):
        """CONST-fed gates fold at generation time: the AND(const0, x)
        cone disappears from the generated body."""
        net = Network(
            ["a", "b"],
            [
                Gate("z", GateKind.CONST0, ()),
                Gate("g1", GateKind.AND, ("z", "a")),
                Gate("g2", GateKind.OR, ("g1", "b")),
                Gate("out", GateKind.XOR, ("g2", "a")),
            ],
            ["out"],
        )
        eng = engine_for(net)
        universe = FaultSweep(net, engine=eng).single_fault_universe()
        kern = KernelBackend(eng.compiled)
        assert kern.sweep_statuses(universe) == scalar_statuses(
            eng, universe
        )
        # Under a fault on `a`, g1 = AND(const0, a) folds to 0 and
        # g2 = OR(0, b) folds through to b: only the forced line and
        # the output op survive in the generated body.
        kern_a = KernelBackend(eng.compiled)
        kern_a.sweep_statuses([StuckAt("a", 1)])
        (kobj,) = kern_a._kernels.values()
        assert kobj.n_ops <= 3
        # line indices: a=0 b=1 z=2 g1=3 g2=4 out=5 — the folded AND
        # (g1) must not appear anywhere in the generated body.
        assert "v3" not in kobj.source
        # A fault *on the constant itself* must override the fold: z
        # stuck-at-1 flips g1 to a, and the statuses still match.
        kern_z = KernelBackend(eng.compiled)
        assert kern_z.sweep_statuses(
            [StuckAt("z", 1)]
        ) == scalar_statuses(eng, [StuckAt("z", 1)])


#: A 22-input circuit of a few gates: beyond the full-table ceiling, so
#: the kernel streams its 16 mirror slabs, yet cheap on the bitmask rung.
WIDE22 = "\n".join(
    [f"INPUT(x{i})" for i in range(22)]
    + ["OUTPUT(f)", "OUTPUT(g)"]
    + [
        "p = NAND(x0, x7, x13)",
        "q = XOR(x2, x9, x21)",
        "r = NOR(x4, x16)",
        "s = OR(p, r)",
        "f = XNOR(s, q, x20)",
        "g = AND(q, x6, x11)",
    ]
)


class TestKernelCeilingAndSelection:
    def test_wide_circuit_beyond_ceiling_matches_bitmask(self):
        """No input ceiling: 22 inputs stream slab by slab, and the
        statuses are byte-identical to the bitmask rung."""
        assert 22 > KERNEL_MAX_INPUTS
        net = parse_bench(WIDE22)
        eng = NetworkEngine(net)
        universe = FaultSweep(net, engine=eng).single_fault_universe()
        kern = eng.kernel
        assert kern is not None and kern.streamed
        assert len(kern._slabs) == 16
        assert kern.sweep_statuses(universe) == scalar_statuses(
            eng, universe
        )

    def test_streamed_slabs_match_and_release_baselines(
        self, monkeypatch, mixed9
    ):
        """A lowered ceiling forces the streamed-slab path on a narrow
        circuit: byte-identical statuses, serial and threaded, and no
        per-slab baseline retained after the sweep."""
        monkeypatch.setattr(kernels, "KERNEL_MAX_INPUTS", 4)
        eng = engine_for(mixed9)
        universe = FaultSweep(mixed9, engine=eng).single_fault_universe()
        reference = scalar_statuses(eng, universe)
        for threads in (1, 2):
            kern = KernelBackend(eng.compiled, tile_words=1, threads=threads)
            assert kern.streamed and len(kern._slabs) == 4
            assert kern.sweep_statuses(universe) == reference, threads
            assert kern._slab_state is None

    def test_engine_kernel_property_lazy_and_shared(self, mixed9):
        eng = NetworkEngine(mixed9)
        assert eng._kernel is None
        kern = eng.kernel
        assert kern is not None and eng.kernel is kern

    def test_chunk_statuses_kernel_rung(self, mixed9):
        eng = engine_for(mixed9)
        universe = FaultSweep(mixed9, engine=eng).single_fault_universe()
        assert chunk_statuses(eng, universe, "kernel") == scalar_statuses(
            eng, universe
        )

    def test_kernel_unavailable_degrades_to_bitmask(self, mixed9):
        """An engine that cannot build the kernel fails its kernel
        chunks, and the sweep steps down to the bitmask rung once, with
        the step recorded."""

        class NoKernelEngine(NetworkEngine):
            @property
            def kernel(self):
                return None

        eng = NoKernelEngine(mixed9)
        sweep = FaultSweep(mixed9, engine=eng)
        universe = sweep.single_fault_universe()
        with pytest.raises(RuntimeError, match="needs NumPy"):
            chunk_statuses(eng, universe, "kernel")
        result = sweep.sweep(universe, backend="kernel")
        assert [s for _, s in result] == scalar_statuses(eng, universe)
        assert sweep.last_report.block_backend == "bitmask"
        assert any(
            d.frm == "serial" and d.to == "scalar"
            for d in sweep.last_report.degradations
        )

    def test_fault_sweep_kernel_backend_reported(self, mixed9):
        sweep = FaultSweep(mixed9)
        universe = sweep.single_fault_universe()
        result = sweep.sweep(universe, backend="kernel")
        assert [s for _, s in result] == scalar_statuses(
            sweep.engine, universe
        )
        assert sweep.last_report.block_backend == "kernel"

    def test_auto_picks_kernel_beyond_full_table_ceiling(self):
        for n in range(KERNEL_MAX_INPUTS + 1, KERNEL_MAX_INPUTS + 6):
            assert select_backend(n, 500, numpy_available=True) == "kernel"


class TestNumbaProbe:
    """Both probe branches, via a stub numba module — the real package
    is absent in the pinned environment and optional everywhere."""

    def _stub(self, monkeypatch, njit):
        monkeypatch.setattr(kernels, "HAVE_NUMBA", True)
        monkeypatch.setattr(
            kernels, "_numba", types.SimpleNamespace(njit=njit)
        )

    def test_identity_jit_serves_numba_tier(self, monkeypatch, mixed9):
        calls = []

        def njit(**kwargs):
            def deco(fn):
                def jitted(*args):
                    calls.append(1)
                    return fn(*args)

                return jitted

            return deco

        self._stub(monkeypatch, njit)
        eng = engine_for(mixed9)
        universe = FaultSweep(mixed9, engine=eng).single_fault_universe()
        kern = KernelBackend(eng.compiled)
        assert kern.use_numba
        assert kern.sweep_statuses(universe) == scalar_statuses(
            eng, universe
        )
        tiers = {k.tier for k in kern._kernels.values() if k.fn is not None}
        assert tiers == {"numba"}
        assert calls  # the jit wrapper actually ran

    def test_typing_failure_falls_back_to_numpy_tier(
        self, monkeypatch, mixed9
    ):
        def njit(**kwargs):
            def deco(fn):
                def jitted(*args):
                    raise TypeError("nopython typing failed")

                return jitted

            return deco

        self._stub(monkeypatch, njit)
        eng = engine_for(mixed9)
        universe = FaultSweep(mixed9, engine=eng).single_fault_universe()
        kern = KernelBackend(eng.compiled)
        assert kern.sweep_statuses(universe) == scalar_statuses(
            eng, universe
        )
        # every jit slot burned out permanently; the py tier served
        for kobj in kern._kernels.values():
            if kobj.fn is not None:
                assert kobj.fn.jit is None

    def test_without_numba_numpy_tier_serves(self, mixed9):
        eng = engine_for(mixed9)
        universe = FaultSweep(mixed9, engine=eng).single_fault_universe()
        kern = KernelBackend(eng.compiled, use_numba=False)
        assert kern.sweep_statuses(universe) == scalar_statuses(
            eng, universe
        )
        tiers = {k.tier for k in kern._kernels.values() if k.fn is not None}
        assert tiers <= {"numpy"}


class TestKernelStoreCache:
    """Kernels live in their backend (one per engine, shared per
    network), never in the content-addressed store, which keeps only
    request-level artifacts."""

    def test_store_holds_no_kernels_and_engine_reuses_them(
        self, monkeypatch
    ):
        net = fig34_network()
        eng = NetworkEngine(net)
        universe = FaultSweep(net, engine=eng).single_fault_universe()
        monkeypatch.setattr(STORE, "enabled", True)
        STORE.clear()
        try:
            sweep = FaultSweep(net, engine=eng)
            first = sweep.sweep(universe, backend="kernel")
            compiled_count = len(eng.kernel._kernels)
            assert compiled_count > 0
            assert not STORE._entries
            assert sweep.sweep(universe, backend="kernel") == first
            assert len(eng.kernel._kernels) == compiled_count
            assert not STORE._entries
        finally:
            STORE.clear()

    def test_different_program_never_shares_kernels(self):
        """Each program compiles its own set: a different network of
        the same shape gets fresh kernels and its own statuses."""
        net_a = random_mixed_network(
            random.Random(10), n_inputs=5, n_gates=20, n_outputs=2
        )
        net_b = random_mixed_network(
            random.Random(11), n_inputs=5, n_gates=20, n_outputs=2
        )
        eng_a, eng_b = engine_for(net_a), engine_for(net_b)
        ka = KernelBackend(eng_a.compiled)
        ka.sweep_statuses(
            FaultSweep(net_a, engine=eng_a).single_fault_universe()
        )
        kb = KernelBackend(eng_b.compiled)
        universe_b = FaultSweep(net_b, engine=eng_b).single_fault_universe()
        assert kb.sweep_statuses(universe_b) == scalar_statuses(
            eng_b, universe_b
        )
        assert kb._kernels
        assert not set(map(id, kb._kernels.values())) & set(
            map(id, ka._kernels.values())
        )

    def test_disabled_store_stays_in_memory(self):
        net = fig34_network()
        eng = engine_for(net)
        universe = FaultSweep(net, engine=eng).single_fault_universe()
        assert not STORE.enabled
        kern = KernelBackend(eng.compiled)
        kern.sweep_statuses(universe)
        assert not any(key[0] == "kernel" for key in STORE._entries)
        assert kern.cache_stats()["kernels"] > 0
