"""Interchangeable execution backends over a compiled netlist.

Three backends share one :class:`~repro.engine.compiled.CompiledNetwork`
and one discipline: compute the fault-free **baseline** once, cache it,
and answer each faulty query by copying the baseline and re-evaluating
only the ops in the fault's output cone (the
:meth:`~repro.engine.compiled.CompiledNetwork.fault_plan` schedule).

* :class:`BitmaskBackend` — word-parallel: every line is a ``2**n``-bit
  truth-table mask, one pass covers the whole input space.  This is the
  exhaustive-oracle backend (Definition 2.4, conditions A–E).
* :class:`PointwiseBackend` — one input assignment at a time, with a
  bounded per-point baseline cache.  Sequential campaigns revisit the
  same few (input, state, clock) points thousands of times across
  faults, so the cache turns most steps into a cone-sized update.
* :class:`SampledBackend` — pointwise over an explicit list of
  truth-table points, for input spaces too wide to enumerate.

All three return plain ``list``/``tuple`` values; the name-keyed wrappers
in :mod:`repro.logic.evaluate` re-attach line names for callers that
want them.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Optional, Tuple

from ..logic.gates import evaluate as eval_gate
from ..logic.gates import evaluate_mask
from .. import obs
from .compiled import CompiledNetwork, FaultLike

#: Pointwise baseline caches stop growing beyond this many distinct
#: input points (2**16 — larger spaces should use the sampled backend).
POINT_CACHE_LIMIT = 1 << 16

#: Exhaustive big-int masks are ``2**n`` bits *per line*; beyond this
#: many inputs even the all-ones ``full`` mask is a multi-gigabyte
#: allocation, so :class:`BitmaskBackend` refuses with ``ValueError``
#: instead of attempting the OOM.  Wider circuits use the sampled and
#: kernel paths (the kernel streams wide tables one slab at a time).
MAX_BITMASK_INPUTS = 25

# Telemetry: per-backend work counters.  Hot paths hoist the enabled
# check (`_REG.enabled`) so a disabled registry costs one branch per
# query, not one call per op.
_REG = obs.REGISTRY
_M_OPS = _REG.counter(
    "repro_engine_ops_total", "Compiled ops evaluated, by backend"
)
_M_WORDS = _REG.counter(
    "repro_engine_words_total", "64-bit truth-table words simulated, by backend"
)


class BitmaskBackend:
    """Word-parallel evaluation: one integer mask per line."""

    def __init__(self, compiled: CompiledNetwork) -> None:
        if compiled.n_inputs > MAX_BITMASK_INPUTS:
            raise ValueError(
                f"BitmaskBackend: {compiled.n_inputs} inputs exceeds the "
                f"{MAX_BITMASK_INPUTS}-input exhaustive ceiling (a "
                f"2**{compiled.n_inputs}-bit mask per line); use the "
                "sampled or kernel backends for wide circuits"
            )
        self.compiled = compiled
        self.full = (1 << (1 << compiled.n_inputs)) - 1
        self._baseline: Optional[Tuple[int, ...]] = None
        self._baseline_lock = threading.Lock()
        self._words_per_line = max(1, (1 << compiled.n_inputs) >> 6)

    def baseline(self) -> Tuple[int, ...]:
        """Fault-free masks for every line.

        Cached as an **immutable tuple**: engines are shared across
        concurrently constructed sweeps (``engine_for``) and held across
        ``serve`` requests, so an accidental in-place write by any
        consumer must raise instead of silently corrupting every other
        sweep on the same network.  Faulty queries copy it
        (:meth:`line_bits`); the lock makes first-derivation safe under
        the server's worker threads.
        """
        if self._baseline is None:
            with self._baseline_lock:
                if self._baseline is None:
                    self._baseline = self._derive_baseline()
        return self._baseline

    def _derive_baseline(self) -> Tuple[int, ...]:
        comp = self.compiled
        n = comp.n_inputs
        values: List[int] = [0] * len(comp.names)
        total = 1 << n
        for i in range(n):
            # Variable mask: bit p of the table is bit i of point p.
            # Mask doubling: start from one period (2**i zeros then
            # 2**i ones) and double the covered span until it fills
            # the table — O(n) big-int ops instead of O(2**n) shifts.
            mask = ((1 << (1 << i)) - 1) << (1 << i)
            span = 1 << (i + 1)
            while span < total:
                mask |= mask << span
                span <<= 1
            values[i] = mask
        for op in comp.ops:
            values[op.out] = evaluate_mask(
                op.kind, [values[s] for s in op.srcs], self.full
            )
        if _REG.enabled:
            _M_OPS.inc(len(comp.ops), backend="bitmask")
            _M_WORDS.inc(
                len(comp.ops) * self._words_per_line, backend="bitmask"
            )
        return tuple(values)

    def line_bits(self, fault: Optional[FaultLike] = None) -> List[int]:
        """Masks for every line under ``fault`` (cone-pruned re-simulation
        on top of the cached baseline).  Always returns a fresh list —
        the cached baseline itself stays immutable behind
        :meth:`baseline`."""
        baseline = self.baseline()
        if fault is None:
            return list(baseline)
        comp = self.compiled
        plan = comp.fault_plan(fault)
        values = list(baseline)
        full = self.full
        for idx, forced in plan.stems:
            values[idx] = full if forced else 0
        pins = plan.pins
        ops = comp.ops
        for pos in plan.ops:
            op = ops[pos]
            operands = [values[s] for s in op.srcs]
            overrides = pins.get(pos)
            if overrides:
                for slot, forced in overrides:
                    operands[slot] = full if forced else 0
            values[op.out] = evaluate_mask(op.kind, operands, full)
        if _REG.enabled:
            _M_OPS.inc(len(plan.ops), backend="bitmask")
            _M_WORDS.inc(
                len(plan.ops) * self._words_per_line, backend="bitmask"
            )
        return values

    def output_bits(self, fault: Optional[FaultLike] = None) -> Tuple[int, ...]:
        values = self.line_bits(fault)
        return tuple(values[i] for i in self.compiled.out_idx)


class PointwiseBackend:
    """One assignment at a time, with a per-point baseline cache."""

    def __init__(
        self, compiled: CompiledNetwork, cache_limit: int = POINT_CACHE_LIMIT
    ) -> None:
        self.compiled = compiled
        self.cache_limit = cache_limit
        self._cache: dict = {}

    def baseline(self, point: Tuple[int, ...]) -> List[int]:
        """Fault-free line values for one input tuple (cached; do not
        mutate the returned list)."""
        values = self._cache.get(point)
        if values is None:
            comp = self.compiled
            values = list(point) + [0] * len(comp.ops)
            for op in comp.ops:
                values[op.out] = eval_gate(
                    op.kind, [values[s] for s in op.srcs]
                )
            if len(self._cache) < self.cache_limit:
                self._cache[point] = values
        return values

    def line_values(
        self, point: Tuple[int, ...], fault: Optional[FaultLike] = None
    ) -> List[int]:
        """Line values under ``fault`` at one input point."""
        baseline = self.baseline(point)
        if fault is None:
            return baseline
        comp = self.compiled
        plan = comp.fault_plan(fault)
        values = baseline.copy()
        for idx, forced in plan.stems:
            values[idx] = forced
        pins = plan.pins
        ops = comp.ops
        for pos in plan.ops:
            op = ops[pos]
            operands = [values[s] for s in op.srcs]
            overrides = pins.get(pos)
            if overrides:
                for slot, forced in overrides:
                    operands[slot] = forced
            values[op.out] = eval_gate(op.kind, operands)
        return values

    def output_values(
        self, point: Tuple[int, ...], fault: Optional[FaultLike] = None
    ) -> Tuple[int, ...]:
        values = self.line_values(point, fault)
        return tuple(values[i] for i in self.compiled.out_idx)


class SampledBackend:
    """Pointwise evaluation over an explicit list of truth-table points."""

    def __init__(self, pointwise: PointwiseBackend) -> None:
        self.pointwise = pointwise
        self.compiled = pointwise.compiled

    def point_tuple(self, point: int) -> Tuple[int, ...]:
        """Decode a truth-table index into the engine's input tuple
        (bit *i* of ``point`` is input *i* — the repo-wide convention)."""
        n = self.compiled.n_inputs
        return tuple((point >> i) & 1 for i in range(n))

    def output_vectors(
        self, points: Iterable[int], fault: Optional[FaultLike] = None
    ) -> List[Tuple[int, ...]]:
        return [
            self.pointwise.output_values(self.point_tuple(p), fault)
            for p in points
        ]
