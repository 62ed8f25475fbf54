"""Sweep-rung selection, the chunk seams, and ATPG's pattern-space rungs.

Exhaustive SCAL sweeps have two rungs, picked by :func:`select_backend`
from the table size alone:

* ``bitmask`` — Python big ints (:class:`PackedFallbackBackend`'s
  per-fault classifier over the shared :class:`BitmaskBackend`): a big
  int *is* a packed word array, CPython runs ``&``/``|``/``^`` over its
  digits in C, and :func:`~repro.engine.compiled.reflect_bits` is one
  linear string reversal.  It serves one-word tables (``n ≤ 6``), where
  NumPy set-up costs more than the arithmetic, and every table when
  NumPy is absent.
* ``kernel`` — the codegen'd fault-block kernels of
  :mod:`repro.engine.kernels`, at any width.

:func:`chunk_statuses` is the single chunk-level entry both rungs (and
the ``synth`` fitness chunks) run through.

ATPG simulates explicit pattern lists, not truth tables: its rungs are
the NumPy :class:`VectorizedBackend` (parallel-pattern, parallel-fault
simulation — patterns packed onto a ``uint64`` word axis, a block of
faults along a second axis, one vectorized pass over the union of the
block's cone-pruned schedules), the pure-Python
:meth:`PackedFallbackBackend.pattern_bits`, and a pointwise rung, all
behind :func:`chunk_pattern_bits`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .backends import BitmaskBackend
from .compiled import CompiledNetwork, FaultLike, reflect_bits
from .. import obs
from ..logic.gates import GateKind

# Telemetry: block-backend work counters and the per-chunk span.  The
# enabled check is hoisted (`_REG.enabled`) so disabled telemetry costs
# one branch per block, never per op.
_REG = obs.REGISTRY
_M_OPS = _REG.counter(
    "repro_engine_ops_total", "Compiled ops evaluated, by backend"
)
_M_WORDS = _REG.counter(
    "repro_engine_words_total", "64-bit truth-table words simulated, by backend"
)
_M_BLOCK = _REG.histogram(
    "repro_engine_block_faults",
    "Faults simulated per vectorized block",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
)
_M_CHUNKS = _REG.counter(
    "repro_campaign_chunk_faults_total",
    "Faults classified through chunk_statuses, by backend",
)

try:  # NumPy is optional: the bitmask rung keeps every sweep alive.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI job
    _np = None

HAVE_NUMPY = _np is not None

#: Faults simulated per pattern block (the PPSFP fault axis).
DEFAULT_BLOCK_FAULTS = 64

#: Widest table the kernel keeps as one cached full-table baseline
#: (``2**20`` points: 128 KiB per line).  Wider tables stream one mirror
#: slab at a time, so their live memory is bounded by the slab, not the
#: table.
KERNEL_MAX_INPUTS = 20

#: Tables of at most this many inputs fit one 64-bit word: Python ints
#: beat NumPy set-up there.
ONE_WORD_INPUTS = 6

_FULL64 = 0xFFFFFFFFFFFFFFFF


def select_backend(
    n_inputs: int,
    n_faults: int,
    numpy_available: Optional[bool] = None,
    n_points: Optional[int] = None,
) -> str:
    """Pick an execution backend from the campaign's shape.

    Explicit points run ``pointwise`` (one) or ``sampled`` (many).
    Exhaustive sweeps run ``bitmask`` when NumPy is absent or the whole
    table fits one 64-bit word (``n ≤ 6``), and ``kernel`` otherwise —
    at any width, whatever the fault count.
    """
    if numpy_available is None:
        numpy_available = HAVE_NUMPY
    if n_points is not None:
        return "pointwise" if n_points == 1 else "sampled"
    if not numpy_available or n_inputs <= ONE_WORD_INPUTS:
        return "bitmask"
    return "kernel"


def classify_status(detected: int, violations: int) -> str:
    """``dangerous`` | ``detected`` | ``silent`` from pair-level masks
    (or any truthy stand-ins for them)."""
    if violations:
        return "dangerous"
    if detected:
        return "detected"
    return "silent"


class PackedFallbackBackend:
    """The pure-Python packed-word executor (and the scalar classifier).

    A Python big int already is a packed word array — CPython runs
    ``&``/``|``/``^`` over its digits in C — so this backend drives the
    shared :class:`BitmaskBackend` per fault and performs the SCAL pair
    classification with :func:`reflect_bits` (the ``bitmask`` sweep
    rung), and simulates explicit pattern lists for ATPG's ``fallback``
    pattern rung.
    """

    name = "fallback"

    def __init__(
        self,
        compiled: CompiledNetwork,
        bitmask: Optional[BitmaskBackend] = None,
    ) -> None:
        self.compiled = compiled
        self.bitmask = bitmask if bitmask is not None else BitmaskBackend(compiled)
        self.n = compiled.n_inputs
        self.full = self.bitmask.full
        self._normal_out: Optional[Tuple[int, ...]] = None
        self._normal_alt: Optional[Tuple[int, ...]] = None

    def normals(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Fault-free output masks and their alternation masks (cached)."""
        if self._normal_out is None:
            baseline = self.bitmask.baseline()
            self._normal_out = tuple(
                baseline[i] for i in self.compiled.out_idx
            )
            self._normal_alt = tuple(
                bits ^ reflect_bits(bits, self.n) for bits in self._normal_out
            )
        return self._normal_out, self._normal_alt

    def output_bits(self, fault: Optional[FaultLike] = None) -> Tuple[int, ...]:
        return self.bitmask.output_bits(fault)

    def response_triple(self, fault: FaultLike) -> Tuple[int, int, int]:
        """``(affected, detected, violations)`` pair-level masks for one
        fault — the raw-integer SCAL classification."""
        normal_out, normal_alt = self.normals()
        values = self.bitmask.line_bits(fault)
        n = self.n
        full = self.full
        wrong = 0
        detected = 0
        all_alternate = full
        for pos, idx in enumerate(self.compiled.out_idx):
            t_fault = values[idx]
            t_normal = normal_out[pos]
            if t_fault == t_normal:
                alternates = normal_alt[pos]
            else:
                alternates = t_fault ^ reflect_bits(t_fault, n)
                wrong |= t_normal ^ t_fault
            detected |= alternates ^ full  # nonalternating pairs
            all_alternate &= alternates
        # Close point sets under the X ↔ X̄ pairing (alternation masks
        # are already pair-symmetric, so `detected` needs no closing).
        affected = wrong | reflect_bits(wrong, n)
        violations = affected & all_alternate
        return affected, detected, violations

    def pattern_bits(
        self,
        patterns: Sequence[int],
        faults: Optional[Sequence[FaultLike]] = None,
    ):
        """Output masks over an explicit pattern list (pure-int path).

        ``patterns`` is a sequence of point encodings (bit ``i`` = value
        of input ``i``, the repo-wide convention); bit ``j`` of each
        returned output mask is that output's value under pattern ``j``.
        Returns the fault-free tuple when ``faults`` is ``None``, else a
        list with one tuple per fault (stem forcing wins over pin
        overrides, exactly as the truth-table plans resolve it).
        """
        from . import backends as _backends

        comp = self.compiled
        n_patterns = len(patterns)
        full = (1 << n_patterns) - 1 if n_patterns else 0
        var = pack_pattern_masks(patterns, comp.n_inputs)
        if _REG.enabled:
            words = max(1, (n_patterns + 63) >> 6)
            runs = 1 if faults is None else len(faults)
            _M_OPS.inc(len(comp.ops) * runs, backend="fallback")
            _M_WORDS.inc(len(comp.ops) * words * runs, backend="fallback")

        def run(plan) -> Tuple[int, ...]:
            values: List[Optional[int]] = [None] * len(comp.names)
            stems = dict(plan.stems) if plan is not None else {}
            for i in range(comp.n_inputs):
                forced = stems.get(i)
                values[i] = (
                    var[i] if forced is None else (full if forced else 0)
                )
            pins = plan.pins if plan is not None else {}
            for pos, op in enumerate(comp.ops):
                forced = stems.get(op.out)
                if forced is not None:
                    values[op.out] = full if forced else 0
                    continue
                masks = [values[s] for s in op.srcs]
                for slot, value in pins.get(pos, ()):
                    masks[slot] = full if value else 0
                values[op.out] = _backends.evaluate_mask(
                    op.kind, masks, full
                )
            return tuple(values[i] for i in comp.out_idx)

        if faults is None:
            return run(None)
        return [run(comp.fault_plan(fault)) for fault in faults]


class VectorizedBackend:
    """NumPy PPSFP executor over ``(faults, words)`` ``uint64`` arrays
    whose word axis packs an explicit pattern list (ATPG's top rung)."""

    name = "vectorized"

    def __init__(
        self,
        compiled: CompiledNetwork,
        block_faults: int = DEFAULT_BLOCK_FAULTS,
    ) -> None:
        if not HAVE_NUMPY:
            raise RuntimeError(
                "NumPy is unavailable; use PackedFallbackBackend instead"
            )
        self.compiled = compiled
        self.block_faults = max(1, block_faults)

    def _block_outputs(self, plans, k: int, base):
        """Faulty packed values over ``k`` words for a block of plans.

        Returns ``get(line) -> ndarray`` where rows are faults.  Lines
        untouched by every fault in the block resolve to the shared
        baseline row; the union of the block's cone schedules is
        evaluated once, vectorized over the fault axis (re-evaluating an
        op for rows whose fault does not reach it reproduces the
        baseline, so the union schedule is exact).  The word axis holds
        patterns, not the ``2**n`` point space, so forcing and
        complements use all 64 bits of every word.
        """
        np = _np
        block = len(plans)
        full = np.uint64(_FULL64)
        comp = self.compiled
        stem_rows: dict = {}
        pin_rows: dict = {}
        schedule: set = set()
        for row, plan in enumerate(plans):
            for idx, forced in plan.stems:
                stem_rows.setdefault(idx, []).append((row, forced))
            for pos, overrides in plan.pins.items():
                for slot, forced in overrides:
                    pin_rows.setdefault(pos, []).append((row, slot, forced))
            schedule.update(plan.ops)
        values: dict = {}

        def get(idx: int):
            arr = values.get(idx)
            return base[idx] if arr is None else arr

        def forced_copy(arr, rows):
            out = np.array(np.broadcast_to(arr, (block, k)))
            for row, forced in rows:
                out[row, :] = full if forced else np.uint64(0)
            return out

        if _REG.enabled:
            _M_OPS.inc(len(schedule), backend="vectorized")
            _M_WORDS.inc(len(schedule) * block * k, backend="vectorized")
            _M_BLOCK.observe(block)

        # Stem-forced lines hold their forced rows from the start (and
        # again after their driving op runs: forced values win, exactly
        # as the scalar plans resolve stem-over-pin conflicts).
        for idx, rows in stem_rows.items():
            values[idx] = forced_copy(get(idx), rows)
        for pos in sorted(schedule):
            op = comp.ops[pos]
            operands = [get(src) for src in op.srcs]
            overrides = pin_rows.get(pos)
            if overrides:
                by_slot: dict = {}
                for row, slot, forced in overrides:
                    by_slot.setdefault(slot, []).append((row, forced))
                for slot, rows in by_slot.items():
                    operands[slot] = forced_copy(operands[slot], rows)
            result = _eval_words(op.kind, operands, full)
            rows = stem_rows.get(op.out)
            values[op.out] = forced_copy(result, rows) if rows else result
        return get

    def pattern_bits(
        self,
        patterns: Sequence[int],
        faults: Optional[Sequence[FaultLike]] = None,
    ):
        """Output masks over an explicit pattern list (NumPy path).

        Same contract as :meth:`PackedFallbackBackend.pattern_bits`,
        but the pattern list is packed onto the ``uint64`` word axis and
        whole fault blocks ride one :meth:`_block_outputs` pass — this
        is the word axis the fault-dropping ATPG driver batches its
        candidate patterns along.  Because the word axis holds patterns
        (possibly more than ``2**n`` of them), forcing uses all 64 bits
        per word, not the truth-table ``full_word``.
        """
        np = _np
        comp = self.compiled
        n_patterns = len(patterns)
        n_words = max(1, (n_patterns + 63) >> 6)
        valid = (1 << n_patterns) - 1 if n_patterns else 0
        full64 = np.uint64(_FULL64)
        bits = np.zeros((comp.n_inputs, n_words * 64), dtype=np.uint8)
        for j, point in enumerate(patterns):
            p = int(point)
            i = 0
            while p and i < comp.n_inputs:
                if p & 1:
                    bits[i, j] = 1
                p >>= 1
                i += 1
        base: List = [None] * len(comp.names)
        for i in range(comp.n_inputs):
            packed = np.packbits(bits[i], bitorder="little")
            base[i] = np.frombuffer(packed.tobytes(), dtype="<u8").astype(
                np.uint64
            )
        for op in comp.ops:
            base[op.out] = _eval_words(
                op.kind, [base[s] for s in op.srcs], full64
            )
        base = [
            np.broadcast_to(np.asarray(v, dtype=np.uint64), (n_words,))
            for v in base
        ]
        if _REG.enabled:
            _M_OPS.inc(len(comp.ops), backend="vectorized")
            _M_WORDS.inc(len(comp.ops) * n_words, backend="vectorized")

        if faults is None:
            return tuple(
                _words_to_int(base[idx]) & valid for idx in comp.out_idx
            )
        results: List[Tuple[int, ...]] = []
        for start in range(0, len(faults), self.block_faults):
            chunk = faults[start : start + self.block_faults]
            plans = [comp.fault_plan(fault) for fault in chunk]
            get = self._block_outputs(plans, n_words, base)
            # One bulk numpy->python conversion per output column beats
            # a per-(row, output) broadcast + int round trip — this is
            # the driver's hot loop (every target simulates candidates
            # against the whole remaining universe).
            cols = []
            for idx in comp.out_idx:
                arr = np.asarray(get(idx), dtype=np.uint64)
                if arr.ndim == 1:
                    arr = np.broadcast_to(arr, (len(plans), n_words))
                cols.append(arr)
            if n_words == 1:
                col_lists = [col[:, 0].tolist() for col in cols]
                for row in range(len(plans)):
                    results.append(
                        tuple(cl[row] & valid for cl in col_lists)
                    )
            else:
                for row in range(len(plans)):
                    results.append(
                        tuple(
                            _words_to_int(col[row]) & valid for col in cols
                        )
                    )
        return results


def chunk_statuses(engine, faults: Sequence[FaultLike], backend: str) -> List[str]:
    """Classify one chunk of faults on a resolved sweep rung.

    This is the single chunk-level entry point shared by the serial
    campaign driver and every execution transport's worker loop
    (:func:`repro.engine.transport.fork.run_chunk_jobs` resolves it
    late, so chaos patches land everywhere), which is why both rungs
    classify byte-identically.  ``engine`` is a
    :class:`~repro.engine.NetworkEngine`; ``backend`` is a resolved name
    (``kernel`` / ``bitmask``).  A ``kernel`` chunk that fails — NumPy
    absent included — raises, and the supervisor steps the remainder
    down to ``bitmask``.
    """
    universe = list(faults)
    if backend == "synth":
        # Synthesis fitness chunks ride the same transport plumbing: each
        # "fault" is a candidate-evaluation task dict and each "status" a
        # JSON-encoded fitness record.  The host engine is deliberately
        # ignored — every candidate compiles its own engine, so fork and
        # socket workers (which pin the host network at spawn) still
        # evaluate the right circuits.
        from ..synth.fitness import evaluate_chunk

        with obs.span("sweep.chunk", faults=len(universe), backend=backend):
            payloads = evaluate_chunk(universe)
        if _REG.enabled:
            _M_CHUNKS.inc(len(universe), backend=backend)
        return payloads
    if backend not in ("kernel", "bitmask"):
        raise ValueError(f"unknown chunk backend {backend!r}")
    # Every rung classifies through this span: the flight's count of
    # successful "sweep.chunk" spans equals the report's chunk ledger.
    with obs.span("sweep.chunk", faults=len(universe), backend=backend):
        if backend == "kernel":
            if engine.kernel is None:
                raise RuntimeError("the kernel rung needs NumPy")
            statuses = engine.kernel.sweep_statuses(universe)
        else:
            packed = engine.packed
            statuses = [
                classify_status(det, vio)
                for _aff, det, vio in (
                    packed.response_triple(f) for f in universe
                )
            ]
    if _REG.enabled:
        _M_CHUNKS.inc(len(universe), backend=backend)
    return statuses


def pack_pattern_masks(
    patterns: Sequence[int], n_inputs: int
) -> List[int]:
    """Per-input big-int masks of an explicit pattern list.

    Bit ``j`` of mask ``i`` is input ``i``'s value under pattern ``j``
    (patterns are point encodings: bit ``i`` = input ``i``) — the
    pattern-space analogue of the truth-table variable masks.
    """
    masks = [0] * n_inputs
    for j, point in enumerate(patterns):
        p = int(point)
        bit = 1 << j
        i = 0
        while p and i < n_inputs:
            if p & 1:
                masks[i] |= bit
            p >>= 1
            i += 1
    return masks


def _pointwise_pattern_bits(engine, patterns, faults):
    """Scalar rung of :func:`chunk_pattern_bits`: one cone-pruned point
    evaluation per (pattern, fault) through the pointwise backend."""
    comp = engine.compiled
    n = comp.n_inputs
    points = [
        tuple((int(p) >> i) & 1 for i in range(n)) for p in patterns
    ]

    def run(fault):
        masks = [0] * len(comp.out_idx)
        for j, point in enumerate(points):
            values = engine.pointwise.output_values(point, fault)
            for pos, value in enumerate(values):
                if value:
                    masks[pos] |= 1 << j
        return tuple(masks)

    if faults is None:
        return run(None)
    return [run(fault) for fault in faults]


def chunk_pattern_bits(
    engine,
    patterns: Sequence[int],
    faults: Optional[Sequence[FaultLike]],
    backend: str,
):
    """Output masks over an explicit pattern list on a resolved backend.

    The pattern-space analogue of :func:`chunk_statuses` — the single
    chunk-level entry the fault-dropping ATPG driver (and its QA
    properties) use, so every rung of its degradation ladder evaluates
    patterns identically.  ``patterns`` is a list of point encodings;
    ``faults`` is a fault sequence (one output-mask tuple per fault,
    bit ``j`` = the output value under pattern ``j``) or ``None`` for
    the fault-free baseline tuple.  ``backend`` is a resolved name
    (``vectorized`` / ``fallback`` / ``pointwise``); ``vectorized``
    quietly serves on the packed fallback when NumPy is absent.
    """
    if backend == "vectorized" and engine.vectorized is None:
        backend = "fallback"
    if backend not in ("vectorized", "fallback", "pointwise"):
        raise ValueError(f"unknown pattern backend {backend!r}")
    with obs.span(
        "atpg.chunk",
        patterns=len(patterns),
        faults=0 if faults is None else len(faults),
        backend=backend,
    ):
        if backend == "vectorized":
            return engine.vectorized.pattern_bits(patterns, faults)
        if backend == "fallback":
            return engine.packed.pattern_bits(patterns, faults)
        return _pointwise_pattern_bits(engine, patterns, faults)


# ----------------------------------------------------------------------
# word-level primitives (NumPy path; the kernel reuses them)
# ----------------------------------------------------------------------
def _words_to_int(row) -> int:
    """One packed row back to the repo's big-int truth-table form."""
    return int.from_bytes(
        _np.ascontiguousarray(row).astype("<u8").tobytes(), "little"
    )


def _eval_words(kind: GateKind, masks, full):
    """One gate over packed-word arrays (the vector analogue of
    :func:`repro.logic.gates.evaluate_mask`); ``full`` masks the unused
    high bits of sub-word tables after complements."""
    np = _np
    if kind is GateKind.CONST0:
        return np.uint64(0)
    if kind is GateKind.CONST1:
        return full
    if kind is GateKind.BUF:
        return masks[0]
    if kind is GateKind.NOT:
        return ~masks[0] & full
    if kind is GateKind.AND or kind is GateKind.NAND:
        out = masks[0]
        for m in masks[1:]:
            out = out & m
        return (~out & full) if kind is GateKind.NAND else out
    if kind is GateKind.OR or kind is GateKind.NOR:
        out = masks[0]
        for m in masks[1:]:
            out = out | m
        return (~out & full) if kind is GateKind.NOR else out
    if kind is GateKind.XOR or kind is GateKind.XNOR:
        out = masks[0]
        for m in masks[1:]:
            out = out ^ m
        return (~out & full) if kind is GateKind.XNOR else out
    if kind in (GateKind.MAJ, GateKind.MIN):
        return _threshold_words(kind, masks, full)
    raise ValueError(f"gate kind {kind} has no packed-word evaluation")


def _threshold_words(kind: GateKind, masks, full):
    """Vectorized bit-sliced population count, thresholded against
    ``len(masks)/2`` — the array form of ``gates._threshold_mask``."""
    np = _np
    counter: List = []
    for m in masks:
        carry = m
        for i in range(len(counter)):
            current = counter[i]
            counter[i] = current ^ carry
            carry = current & carry
        if np.any(carry):
            counter.append(carry)
    n = len(masks)
    out = np.uint64(0)
    for count in range(n + 1):
        if kind is GateKind.MAJ and not 2 * count > n:
            continue
        if kind is GateKind.MIN and not 2 * count < n:
            continue
        if count >> len(counter):
            continue  # count not representable in the counter width
        sel = full
        for bit, slice_mask in enumerate(counter):
            if (count >> bit) & 1:
                sel = sel & slice_mask
            else:
                sel = sel & (~slice_mask & full)
        out = out | sel
    return out
