"""Codegen'd fault-block sweep kernels: the NumPy exhaustive sweep rung.

Every exhaustive SCAL sweep wider than one 64-bit word runs here.  For
each **block signature** — the union of a fault block's cone-pruned
schedules, the set of stem-forced lines, and the set of forced
``(op, slot)`` pins — a specialized straight-line Python function is
*generated as source* and ``exec``'d once:

* gate dispatch is resolved at generation time (an AND gate becomes the
  literal expression ``v13 & v17``),
* fault-injection branching is resolved at generation time: each forced
  line becomes one ``value & sa | so`` line over per-row ``(B, 1)``
  forcing columns (stem forcing re-applied after the driving op, so stem
  values win over pin overrides exactly as the scalar plans resolve it),
* **dead-line elimination** drops every scheduled op (and forced line)
  that cannot reach an output, and **constant folding** collapses
  CONST-fed subexpressions (an AND with a constant-0 side input folds to
  a constant, all the way through the cone),
* the SCAL pair classification is fused into the same function, each
  output folded into the running masks right after it is computed;
  outputs the block cannot touch contribute per-slab baseline seeds
  (their detection, if any, makes detection constant-true for the whole
  block — no per-output work), and
* every line value is ``del``'d after its last use, so a call's live
  memory is the signature's widest cut, not its whole cone.

Line values are packed ``uint64`` words (bit ``p & 63`` of word
``p >> 6`` is input point ``p`` — the repo-wide bit order, re-chunked)
with the fault block along a second axis.  The word axis is cut into
L2-sized **mirror slabs** (words ``[lo, lo+K)`` together with
``[W-lo-K, W-lo)`` — a set closed under the ``X ↔ X̄`` word reflection,
so alternation stays local to the slab).  Each slab carries its own
fault-free baseline, computed from the slab's word indices alone.  Up to
:data:`~repro.engine.vectorized.KERNEL_MAX_INPUTS` inputs the slab
baselines are cached for the backend's lifetime; wider tables **stream**
them — each slab's baseline is built, swept by every block, and dropped —
so live memory is a slab, not the table, and there is no input ceiling.
Slabs run on a shared :class:`ThreadPoolExecutor` (NumPy releases the
GIL on large array ops).

Kernels and prepared blocks (forcing columns) are cached per backend;
engines are shared per network (:func:`repro.engine.engine_for`), so
repeated sweeps skip all set-up.

When Numba is importable the exec'd function is additionally
``njit(nopython, parallel)``-wrapped behind a feature probe; a kernel
whose typing Numba rejects (the bit-reversal helper is a Python closure)
falls back permanently to the exec'd-NumPy tier on first call, recorded
in ``repro_kernel_numba_fallbacks_total`` — the bench gate is held by
the NumPy tier alone, the Numba rung is opportunistic.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..logic.gates import GateKind
from .compiled import CompiledNetwork, FaultLike
from .vectorized import (
    _FULL64,
    HAVE_NUMPY,
    KERNEL_MAX_INPUTS,
    _eval_words,
    _threshold_words,
    classify_status,
)

try:  # NumPy is required for this rung; selection happens upstream.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI job
    _np = None

if HAVE_NUMPY:
    #: Per-byte bit reversal table (the kernel's ``R`` reflection).
    _REV8 = _np.array(
        [int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=_np.uint8
    )

try:  # Numba is optional: probe, never require.
    import numba as _numba

    HAVE_NUMBA = True
except Exception:  # pragma: no cover - numba absent in the default env
    _numba = None
    HAVE_NUMBA = False

_REG = obs.REGISTRY
_M_COMPILES = _REG.counter(
    "repro_kernel_compiles_total", "Specialized kernels generated, by tier"
)
_M_HITS = _REG.counter(
    "repro_kernel_cache_hits_total", "Kernel cache hits, by source"
)
_M_MISSES = _REG.counter(
    "repro_kernel_cache_misses_total", "Kernel cache misses (compiles)"
)
_M_BLOCKS = _REG.counter(
    "repro_kernel_blocks_total", "Fault blocks executed by the kernel tier"
)
_M_FAULTS = _REG.counter(
    "repro_kernel_faults_total", "Faults classified by the kernel tier"
)
_M_JIT_FALLBACK = _REG.counter(
    "repro_kernel_numba_fallbacks_total",
    "Kernels that fell back from njit to the exec'd NumPy tier",
)
_M_OPS = _REG.counter(
    "repro_engine_ops_total", "Compiled ops evaluated, by backend"
)
_M_WORDS = _REG.counter(
    "repro_engine_words_total", "64-bit truth-table words simulated, by backend"
)

#: Faults per kernel block: a specialized kernel has no per-op dispatch
#: to amortize, so small blocks win on cache locality (measured best 16
#: on the randlogic sweep).
DEFAULT_KERNEL_BLOCK_FAULTS = 16

#: Words per mirror half-tile.  One tile is ``2 * tile_words`` words:
#: a ``(16, 4096)``-word block row set stays within a typical L2 slice.
DEFAULT_TILE_WORDS = 2048

#: Packed-word pattern of input variable ``i`` (i < 6) inside one word:
#: bit ``p`` is set iff bit ``i`` of the point index ``p`` is set.
_LOW_PATTERNS = (
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
)

_LINE_NAME = re.compile(r"\bv\d+\b")


def _rev_contiguous(a):
    """Full bit-string reversal of each row of a **contiguous** packed
    array: reversing all ``64 * W`` bits at once is "reverse the byte
    order, then bit-reverse each byte" — one fancy-indexed lookup
    instead of the word-reverse + byteswap chain.  Codegen guarantees
    contiguity: the kernel only reflects freshly computed ufunc
    results, and slab baselines are stored contiguous."""
    return _REV8[a.view(_np.uint8)[..., ::-1]].view(_np.uint64)


class _TierFn:
    """Callable wrapper that tries the njit-compiled tier first and
    falls back permanently to the exec'd function when Numba rejects
    the kernel's typing at first call."""

    __slots__ = ("py", "jit")

    def __init__(self, py, jit) -> None:
        self.py = py
        self.jit = jit

    def __call__(self, *args):
        jit = self.jit
        if jit is not None:
            try:
                return jit(*args)
            except Exception:
                self.jit = None
                if _REG.enabled:
                    _M_JIT_FALLBACK.inc()
        return self.py(*args)


class _Kernel:
    """One compiled signature: the exec'd function plus its arg spec."""

    __slots__ = (
        "fn",
        "tier",
        "source",
        "base_args",
        "stem_args",
        "pin_args",
        "untouched",
        "det_const",
        "const_status",
        "n_ops",
    )


class _PreparedBlock:
    """One fault block bound to its kernel and forcing columns."""

    __slots__ = ("size", "kern", "forcing")


class _Slab:
    """One mirror slab's fault-free material: every line's baseline
    words (contiguous, in slab order) plus the output alternation masks
    and untouched-output seeds derived from them."""

    __slots__ = ("base", "alt", "seeds")

    def __init__(self, base: List) -> None:
        self.base = base
        self.alt: Dict[int, object] = {}
        self.seeds: Dict[Tuple[int, ...], object] = {}


class KernelBackend:
    """Codegen'd fused-sweep executor (the ``kernel`` sweep rung).

    Serves the :meth:`sweep_statuses` contract of
    :func:`~repro.engine.vectorized.chunk_statuses` — statuses are
    byte-identical to the scalar bitmask rung — with each fault block
    run as one specialized straight-line function per mirror slab.
    """

    name = "kernel"

    def __init__(
        self,
        compiled: CompiledNetwork,
        block_faults: int = DEFAULT_KERNEL_BLOCK_FAULTS,
        tile_words: int = DEFAULT_TILE_WORDS,
        threads: Optional[int] = None,
        use_numba: bool = True,
        max_cached_blocks: int = 4096,
    ) -> None:
        if not HAVE_NUMPY:
            raise RuntimeError(
                "NumPy is unavailable; the kernel rung needs it "
                "(use the bitmask rung instead)"
            )
        self.compiled = compiled
        self.n = compiled.n_inputs
        self.total_bits = 1 << self.n
        self.words = max(1, self.total_bits >> 6)
        self.full_word = _np.uint64((1 << min(self.total_bits, 64)) - 1)
        self.block_faults = max(1, block_faults)
        self.tile_words = max(1, tile_words)
        self.threads = (
            threads if threads is not None else (os.cpu_count() or 1)
        )
        self.use_numba = use_numba and HAVE_NUMBA
        self.max_cached_blocks = max_cached_blocks
        #: Wider tables stream their slab baselines instead of caching.
        self.streamed = self.n > KERNEL_MAX_INPUTS
        self._kernels: Dict[Tuple, _Kernel] = {}
        self._blocks: "OrderedDict[Tuple, _PreparedBlock]" = OrderedDict()
        self._lock = threading.Lock()
        self._slab_state: Optional[List[_Slab]] = None
        self._nonalt: Optional[frozenset] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        # Mirror tiles: each slab's word set is closed under the
        # reflection w -> W-1-w, so rev(slab) = bit-reverse + reverse
        # the slab's word order.
        if self.words <= 2 * self.tile_words:
            self._slabs: Tuple[Tuple[Tuple[int, int], ...], ...] = (
                ((0, self.words),),
            )
        else:
            half = self.words // 2
            k = 1 << (min(self.tile_words, half).bit_length() - 1)
            self._slabs = tuple(
                ((lo, lo + k), (self.words - lo - k, self.words - lo))
                for lo in range(0, half, k)
            )
        if self.total_bits < 64:
            shift = _np.uint64(64 - self.total_bits)

            def rev(a, _s=shift):
                return _rev_contiguous(a) >> _s

        else:
            rev = _rev_contiguous
        self._rev = rev

    # ------------------------------------------------------------------
    # baseline material
    # ------------------------------------------------------------------
    def _slab(self, ranges: Tuple[Tuple[int, int], ...]) -> _Slab:
        """Fault-free packed values of every line over one slab's words."""
        np = _np
        comp = self.compiled
        widx = np.concatenate(
            [np.arange(r0, r1, dtype=np.uint64) for r0, r1 in ranges]
        )
        k = len(widx)
        values: List = [None] * len(comp.names)
        for i in range(comp.n_inputs):
            if i < 6:
                values[i] = np.uint64(_LOW_PATTERNS[i]) & self.full_word
            else:
                # Bit i of point p = 64*w + b (i >= 6) is bit i-6 of w.
                bit = (widx >> np.uint64(i - 6)) & np.uint64(1)
                values[i] = np.where(
                    bit != 0, np.uint64(_FULL64), np.uint64(0)
                )
        for op in comp.ops:
            values[op.out] = _eval_words(
                op.kind, [values[s] for s in op.srcs], self.full_word
            )
        if _REG.enabled:
            _M_OPS.inc(len(comp.ops), backend="kernel")
            _M_WORDS.inc(len(comp.ops) * k, backend="kernel")
        return _Slab(
            [
                np.ascontiguousarray(
                    np.broadcast_to(np.asarray(v, dtype=np.uint64), (k,))
                )
                for v in values
            ]
        )

    def _baseline(self) -> List[_Slab]:
        """The cached per-slab fault-free baselines — the whole table,
        built on first use.  Sweeps of streamed (wider than
        ``KERNEL_MAX_INPUTS``) tables never call this: they build one
        slab at a time."""
        if self._slab_state is None:
            self._slab_state = [self._slab(r) for r in self._slabs]
        return self._slab_state

    def _alt_of(self, slab: _Slab, out: int):
        """Baseline alternation mask of output line ``out`` over a slab."""
        alt = slab.alt.get(out)
        if alt is None:
            row = slab.base[out]
            alt = slab.alt[out] = row ^ self._rev(row)
        return alt

    def _seed_of(self, slab: _Slab, untouched: Tuple[int, ...]):
        """AND of the untouched outputs' alternation masks over a slab —
        the ``AS`` argument of kernels whose detection is constant."""
        seed = slab.seeds.get(untouched)
        if seed is None:
            for out in untouched:
                alt = self._alt_of(slab, out)
                seed = alt if seed is None else seed & alt
            slab.seeds[untouched] = seed
        return seed

    def _nonalternating(self) -> frozenset:
        """Outputs whose fault-free table has a nonalternating pair.

        A block whose untouched outputs include one is "detected" for
        every fault (``det_const``); a block whose untouched outputs all
        alternate everywhere needs no alternation seed at all.
        """
        if self._nonalt is None:
            outs = _dedupe(self.compiled.out_idx)
            slabs = (
                (self._slab(r) for r in self._slabs)
                if self.streamed
                else self._baseline()
            )
            found: set = set()
            for slab in slabs:
                for out in outs:
                    if out not in found and bool(
                        _np.any(self._alt_of(slab, out) != self.full_word)
                    ):
                        found.add(out)
            self._nonalt = frozenset(found)
        return self._nonalt

    # ------------------------------------------------------------------
    # signature + codegen
    # ------------------------------------------------------------------
    def _signature(self, plans):
        """Dead-line-eliminated block signature: live stem-forced lines,
        live forced pins, and the kept schedule."""
        comp = self.compiled
        ops = comp.ops
        stems: set = set()
        pins: set = set()
        sched: set = set()
        for plan in plans:
            stems.update(idx for idx, _ in plan.stems)
            for pos, overrides in plan.pins.items():
                for slot, _ in overrides:
                    pins.add((pos, slot))
            sched.update(plan.ops)
        order = sorted(sched)
        outs = _dedupe(comp.out_idx)
        driven = {ops[pos].out for pos in order}
        touched = [o for o in outs if o in stems or o in driven]
        # Dead-line elimination: walk the schedule backwards from the
        # touched outputs; ops that cannot reach one are dropped, and
        # with them their pin overrides and unread stem forcings.
        need = set(touched)
        kept: List[int] = []
        for pos in reversed(order):
            if ops[pos].out in need:
                kept.append(pos)
                need.update(ops[pos].srcs)
        kept.reverse()
        kept_set = set(kept)
        stems_kept = tuple(sorted(stems & need))
        pins_kept = tuple(
            sorted(key for key in pins if key[0] in kept_set)
        )
        return stems_kept, pins_kept, tuple(kept)

    def _kernel_for(self, signature) -> _Kernel:
        kern = self._kernels.get(signature)
        if kern is not None:
            if _REG.enabled:
                _M_HITS.inc(source="memory")
            return kern
        if _REG.enabled:
            _M_MISSES.inc()
        stems, pins, sched = signature
        digest = hashlib.sha256(repr(signature).encode()).hexdigest()[:12]
        with obs.span(
            "kernel.compile",
            digest=digest,
            ops=len(sched),
            stems=len(stems),
            pins=len(pins),
        ):
            kern = self._generate(digest, stems, pins, sched)
            if _REG.enabled:
                _M_COMPILES.inc(tier=kern.tier)
        self._kernels[signature] = kern
        return kern

    def _generate(self, digest, stem_lines, pin_keys, sched) -> _Kernel:
        """Generate, ``exec``, and (optionally) njit one signature."""
        comp = self.compiled
        ops = comp.ops
        masked = self.total_bits < 64
        stem_set = set(stem_lines)
        stem_arg = {ln: k for k, ln in enumerate(stem_lines)}
        pin_arg = {key: j for j, key in enumerate(pin_keys)}
        driven_by = {ops[pos].out: pos for pos in sched}
        const_lines = {
            op.out: (1 if op.kind is GateKind.CONST1 else 0)
            for op in ops
            if op.kind in (GateKind.CONST0, GateKind.CONST1)
        }
        outs = _dedupe(comp.out_idx)
        out_set = set(outs)
        computed: set = set()
        lit: Dict[int, int] = {}
        base_args: List[int] = []
        base_seen: set = set()
        defs: List[Tuple[int, str]] = []  # (line, expression), in order
        def base_ref(idx: int) -> str:
            cv = const_lines.get(idx)
            if cv is not None:
                return "F" if cv else "ZW"
            if idx not in base_seen:
                base_seen.add(idx)
                base_args.append(idx)
            return f"b{idx}"

        def ref(idx: int):
            """Operand as (expression, literal-or-None)."""
            if idx in computed:
                return f"v{idx}", None
            lv = lit.get(idx)
            if lv is None and idx not in stem_set:
                lv = const_lines.get(idx)
            if lv is not None:
                return ("F" if lv else "ZW"), lv
            return base_ref(idx), None

        def define(idx: int, expr: str) -> None:
            defs.append((idx, expr))
            computed.add(idx)

        # Stem-forced lines whose driving op is not scheduled force on
        # top of the baseline; scheduled ones re-force after their op
        # (forced values win over pin overrides, as in the scalar plans).
        for ln in stem_lines:
            if ln not in driven_by:
                k = stem_arg[ln]
                define(ln, f"{base_ref(ln)} & sa{k} | so{k}")
        for pos in sched:
            op = ops[pos]
            rendered = []
            for slot, src in enumerate(op.srcs):
                expr, lv = ref(src)
                j = pin_arg.get((pos, slot))
                if j is not None:
                    expr, lv = f"({expr} & pa{j} | po{j})", None
                rendered.append((expr, lv))
            folded = _gate_fold(op.kind, rendered, masked=masked)
            if folded[0] == "lit" and op.out not in stem_set:
                lit[op.out] = folded[1]
                continue
            expr = (
                folded[1]
                if folded[0] == "expr"
                else ("F" if folded[1] else "ZW")
            )
            if op.out in stem_set:
                k = stem_arg[op.out]
                expr = f"({expr}) & sa{k} | so{k}"
            define(op.out, expr)

        untouched = tuple(o for o in outs if o not in computed)
        det_const = bool(self._nonalternating() & set(untouched))

        kern = _Kernel()
        kern.stem_args = stem_lines
        kern.pin_args = pin_keys
        kern.untouched = untouched
        kern.det_const = det_const
        kern.n_ops = len(defs)
        if not any(idx in out_set for idx, _ in defs):
            # The block cannot reach any output: every fault's status is
            # decided by the baseline seeds alone.
            kern.fn = None
            kern.tier = "const"
            kern.source = ""
            kern.base_args = ()
            kern.const_status = "detected" if det_const else "silent"
            return kern
        kern.const_status = None
        # Each output folds into the running pair classification right
        # after it is computed, so its value can be released early.
        inv = "~a & F" if masked else "~a"
        body: List[str] = []
        first = True
        for idx, expr in defs:
            body.append(f"v{idx} = {expr}")
            if idx not in out_set:
                continue
            diff = f"v{idx} ^ {base_ref(idx)}"
            body.append(f"w = {diff}" if first else f"w = w | ({diff})")
            body.append(f"a = v{idx} ^ R(v{idx})")
            if first:
                body.append("alt = AS & a" if det_const else "alt = a")
            else:
                body.append("alt = alt & a")
            if not det_const:
                body.append(
                    f"det = {inv}" if first else f"det = det | ({inv})"
                )
            first = False
        # Statuses only need "any violation per fault", and alternation
        # masks are symmetric under the pair reflection (R(alt) == alt),
        # so any((w | R(w)) & alt) == any(w & alt): the affected-set
        # pair closure drops out of the fused classification entirely.
        body.append("vio = w & alt")
        body.append("return (" + ("None" if det_const else "det") + ", vio)")
        body = _release_dead(body)

        args = ["F", "R"]
        if det_const:
            args.append("AS")
        args.extend(f"b{i}" for i in base_args)
        for k in range(len(stem_lines)):
            args.extend((f"sa{k}", f"so{k}"))
        for j in range(len(pin_keys)):
            args.extend((f"pa{j}", f"po{j}"))
        source = (
            f"def _kernel({', '.join(args)}):\n"
            + "".join(f"    {line}\n" for line in body)
        )
        globs = {
            "ZW": _np.uint64(0),
            "TH": _threshold_words,
            "_MAJ": GateKind.MAJ,
            "_MIN": GateKind.MIN,
        }
        code = compile(source, f"<repro-kernel-{digest}>", "exec")
        exec(code, globs)
        pyfn = globs["_kernel"]
        kern.base_args = tuple(base_args)
        kern.source = source
        if self.use_numba and _numba is not None:
            try:
                jit = _numba.njit(nogil=True, parallel=True)(pyfn)
                kern.fn = _TierFn(pyfn, jit)
                kern.tier = "numba"
            except Exception:  # pragma: no cover - needs numba installed
                kern.fn = pyfn
                kern.tier = "numpy"
                if _REG.enabled:
                    _M_JIT_FALLBACK.inc()
        else:
            kern.fn = pyfn
            kern.tier = "numpy"
        return kern

    # ------------------------------------------------------------------
    # block preparation + execution
    # ------------------------------------------------------------------
    def _prepare(self, block: Tuple[FaultLike, ...]) -> _PreparedBlock:
        # Engines are shared across server threads; one lock covers both
        # the prepared-block LRU and the kernel cache (the hit path is a
        # single dict probe, so contention stays negligible).
        with self._lock:
            return self._prepare_locked(block)

    def _prepare_locked(self, block: Tuple[FaultLike, ...]) -> _PreparedBlock:
        prep = self._blocks.get(block)
        if prep is not None:
            self._blocks.move_to_end(block)
            return prep
        comp = self.compiled
        plans = [comp.fault_plan(fault) for fault in block]
        kern = self._kernel_for(self._signature(plans))
        prep = _PreparedBlock()
        prep.size = len(block)
        prep.kern = kern
        forcing: List = []
        if kern.const_status is None:
            B = len(block)
            full = self.full_word
            zero = _np.uint64(0)
            for ln in kern.stem_args:
                sa = _np.full((B, 1), full, dtype=_np.uint64)
                so = _np.zeros((B, 1), dtype=_np.uint64)
                for row, plan in enumerate(plans):
                    for idx, value in plan.stems:
                        if idx == ln:
                            sa[row, 0] = zero
                            so[row, 0] = full if value else zero
                forcing.extend((sa, so))
            for pos, slot in kern.pin_args:
                pa = _np.full((B, 1), full, dtype=_np.uint64)
                po = _np.zeros((B, 1), dtype=_np.uint64)
                for row, plan in enumerate(plans):
                    for pslot, value in plan.pins.get(pos, ()):
                        if pslot == slot:
                            pa[row, 0] = zero
                            po[row, 0] = full if value else zero
                forcing.extend((pa, po))
        prep.forcing = tuple(forcing)
        self._blocks[block] = prep
        while len(self._blocks) > self.max_cached_blocks:
            self._blocks.popitem(last=False)
        return prep

    def _sweep_slab(self, preps: List[_PreparedBlock], slab: _Slab):
        """``(det_any, vio_any)`` per block over one slab; ``det_any`` is
        ``None`` when detection is constant-true for the block."""
        results = []
        head = (self.full_word, self._rev)
        for prep in preps:
            kern = prep.kern
            seed = (
                (self._seed_of(slab, kern.untouched),)
                if kern.det_const
                else ()
            )
            det, vio = kern.fn(
                *head,
                *seed,
                *[slab.base[i] for i in kern.base_args],
                *prep.forcing,
            )
            results.append(
                (
                    None if det is None else _np.any(det, axis=-1),
                    _np.any(vio, axis=-1),
                )
            )
        return results

    def _run_blocks(self, preps: List[_PreparedBlock]):
        """Every block over every slab, OR-reduced per fault row."""
        work = self._slabs if self.streamed else self._baseline()

        def one(item):
            slab = self._slab(item) if self.streamed else item
            return self._sweep_slab(preps, slab)

        if self.threads > 1 and len(work) > 1:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=min(self.threads, len(work)),
                    thread_name_prefix="repro-kernel",
                )
            per_slab = self._pool.map(one, work)
        else:
            per_slab = map(one, work)
        acc = [
            (
                None if prep.kern.det_const else _np.zeros(prep.size, bool),
                _np.zeros(prep.size, bool),
            )
            for prep in preps
        ]
        for results in per_slab:
            for (det_acc, vio_acc), (d, v) in zip(acc, results):
                if det_acc is not None:
                    det_acc |= d
                vio_acc |= v
        return acc

    # ------------------------------------------------------------------
    # public API (the chunk_statuses contract)
    # ------------------------------------------------------------------
    def sweep_statuses(
        self,
        faults: Sequence[FaultLike],
        block_faults: Optional[int] = None,
    ) -> List[str]:
        """Classify every fault — byte-identical to the scalar path."""
        universe = list(faults)
        block_size = block_faults or self.block_faults
        preps = [
            self._prepare(tuple(universe[start : start + block_size]))
            for start in range(0, len(universe), block_size)
        ]
        if _REG.enabled:
            for prep in preps:
                _M_BLOCKS.inc()
                _M_FAULTS.inc(prep.size)
                _M_OPS.inc(prep.kern.n_ops, backend="kernel")
                _M_WORDS.inc(
                    prep.kern.n_ops * prep.size * self.words,
                    backend="kernel",
                )
        live = [prep for prep in preps if prep.kern.const_status is None]
        reduced = iter(self._run_blocks(live) if live else ())
        statuses: List[str] = []
        for prep in preps:
            if prep.kern.const_status is not None:
                statuses.extend([prep.kern.const_status] * prep.size)
                continue
            det_b, vio_b = next(reduced)
            if det_b is None:  # detection constant-true for the block
                statuses.extend(
                    "dangerous" if v else "detected" for v in vio_b.tolist()
                )
            else:
                statuses.extend(
                    classify_status(d, v)
                    for d, v in zip(det_b.tolist(), vio_b.tolist())
                )
        return statuses

    def cache_stats(self) -> dict:
        """Codegen/blocks cache occupancy (tests and `repro stats`)."""
        return {
            "kernels": len(self._kernels),
            "blocks": len(self._blocks),
            "tiles": len(self._slabs),
        }


def _release_dead(body: List[str]) -> List[str]:
    """Insert ``del vN`` right after the last statement reading each
    line value, so generated kernels hold only live intermediates."""
    last: Dict[str, int] = {}
    for at, line in enumerate(body):
        _, assign, expr = line.partition(" = ")
        for name in _LINE_NAME.findall(expr if assign else line):
            last[name] = at
    dead_after: Dict[int, List[str]] = {}
    for name, at in last.items():
        dead_after.setdefault(at, []).append(name)
    out: List[str] = []
    for at, line in enumerate(body):
        out.append(line)
        names = dead_after.get(at)
        if names and not line.startswith("return"):
            out.append("del " + ", ".join(sorted(names)))
    return out


def _dedupe(seq) -> Tuple[int, ...]:
    seen: set = set()
    out: List[int] = []
    for item in seq:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return tuple(out)


def _gate_fold(kind: GateKind, rendered, masked: bool):
    """Fold one gate over rendered operands ``(expr, lit)`` where ``lit``
    is 0/1 for compile-time constants, ``None`` for arrays.  Returns
    ``("lit", 0/1)`` or ``("expr", text)``.  ``masked`` is True for
    sub-word tables, whose complements must clear the unused high bits;
    full-word tables fold the ``& F`` away (F is all ones)."""

    def complemented(expr: str) -> str:
        return f"~({expr}) & F" if masked else f"~({expr})"

    if kind is GateKind.CONST0:
        return ("lit", 0)
    if kind is GateKind.CONST1:
        return ("lit", 1)
    if kind is GateKind.BUF:
        expr, lv = rendered[0]
        return ("lit", lv) if lv is not None else ("expr", expr)
    if kind is GateKind.NOT:
        expr, lv = rendered[0]
        if lv is not None:
            return ("lit", 1 - lv)
        return ("expr", complemented(expr))
    if kind in (GateKind.AND, GateKind.NAND, GateKind.OR, GateKind.NOR):
        is_or = kind in (GateKind.OR, GateKind.NOR)
        invert = kind in (GateKind.NAND, GateKind.NOR)
        absorbing = 1 if is_or else 0  # OR with 1 / AND with 0
        arrays = [expr for expr, lv in rendered if lv is None]
        if any(lv == absorbing for _, lv in rendered):
            value = absorbing
        elif not arrays:
            value = 1 - absorbing
        else:
            joined = (" | " if is_or else " & ").join(arrays)
            if invert:
                return ("expr", complemented(joined))
            return (
                "expr", joined if len(arrays) > 1 else arrays[0]
            )
        return ("lit", 1 - value if invert else value)
    if kind in (GateKind.XOR, GateKind.XNOR):
        flip = sum(lv for _, lv in rendered if lv) & 1
        if kind is GateKind.XNOR:
            flip ^= 1
        arrays = [expr for expr, lv in rendered if lv is None]
        if not arrays:
            return ("lit", flip)
        joined = " ^ ".join(arrays)
        if flip:
            return ("expr", complemented(joined))
        return ("expr", joined if len(arrays) > 1 else arrays[0])
    if kind in (GateKind.MAJ, GateKind.MIN):
        name = "_MAJ" if kind is GateKind.MAJ else "_MIN"
        exprs = ", ".join(expr for expr, _ in rendered)
        return ("expr", f"TH({name}, ({exprs},), F)")
    raise ValueError(f"gate kind {kind} has no kernel codegen")
