"""Benchmark inputs and an independent reference for their outputs.

Everything here is self-contained: the iterative-logic-array (ILA)
generator writes ``.bench`` text itself, and the reference classifier
parses that text and simulates faults with its own NumPy evaluator, so
neither the inputs nor the expected values move when the program under
test changes.  ``pin.py`` uses the reference to write
``expected.json``; the benchmark only compares against that file.

The ILA generator draws the same cells, in the same order, as
``repro.workloads.randomlogic.random_array_network`` (a carry chain of
random two-input cells, each stage tapping an XOR sum), which is the
family the committed ``examples/data/array1*.bench`` belong to.
"""

from __future__ import annotations

import functools
import operator
import random
import re
from typing import Dict, List, Sequence, Tuple

ILA_KINDS = ("AND", "OR", "NAND", "NOR", "XOR")

#: Pool sizes per ILA stage count: a workload seed picks pool members,
#: and ``expected.json`` pins the output of every member.  Stages s give
#: 2s + 1 inputs.
POOLS = {5: 32, 6: 64, 7: 256, 8: 256, 9: 64}

#: Synthesis requests: every (spec, seed) pair here is pinned.
SYNTH_SPECS = ("and2", "or2", "maj3")
SYNTH_SEEDS = tuple(range(32))
SYNTH_ARGS = {"population": 16, "generations": 12, "max_gates": 12}


def ila_name(stages: int, index: int) -> str:
    return f"ila{stages}_{index}"


def ila_text(stages: int, index: int) -> str:
    """The ``.bench`` text of pool member ``index`` with ``stages`` cells."""
    rng = random.Random(f"perfbench:ila:{stages}:{index}")
    inputs = ["c0"] + [f"{p}{i}" for i in range(stages) for p in "ab"]
    gates: List[str] = []
    outputs: List[str] = []

    def add(kind: str, sources: Sequence[str]) -> str:
        name = f"g{len(gates)}"
        gates.append(f"{name} = {kind}({', '.join(sources)})")
        return name

    carry = "c0"
    for stage in range(stages):
        a, b = f"a{stage}", f"b{stage}"
        t1 = add(rng.choice(ILA_KINDS), [a, b])
        t2 = add(rng.choice(ILA_KINDS), [t1, carry])
        t3 = add(rng.choice(ILA_KINDS), [a, carry])
        carry = add(rng.choice(ILA_KINDS), [t2, t3])
        sums = [t1, carry] if rng.random() < 0.5 else [t2, t3]
        outputs.append(add("XOR", sums))
    outputs.append(carry)
    lines = [f"# {ila_name(stages, index)}: {stages}-stage ILA"]
    lines += [f"INPUT({name})" for name in inputs]
    lines += [f"OUTPUT({name})" for name in outputs]
    return "\n".join(lines + [""] + gates) + "\n"


# ----------------------------------------------------------------------
# reference evaluator
# ----------------------------------------------------------------------
_IO = re.compile(r"^(INPUT|OUTPUT)\s*\(\s*([^\s()]+)\s*\)$")
_GATE = re.compile(r"^([^\s=]+)\s*=\s*([A-Za-z]+)\s*\(([^()]*)\)$")


def parse(text: str) -> Tuple[List[str], List[str], List[Tuple[str, str, tuple]]]:
    """``(inputs, outputs, gates)`` with gates in evaluation order."""
    inputs: List[str] = []
    outputs: List[str] = []
    pending: Dict[str, Tuple[str, tuple]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io = _IO.match(line)
        if io:
            (inputs if io.group(1) == "INPUT" else outputs).append(io.group(2))
            continue
        gate = _GATE.match(line)
        if gate is None:
            raise ValueError(f"cannot parse {raw!r}")
        args = tuple(a.strip() for a in gate.group(3).split(",") if a.strip())
        pending[gate.group(1)] = (gate.group(2).upper(), args)
    ordered: List[Tuple[str, str, tuple]] = []
    ready = set(inputs)
    while pending:
        progress = [n for n, (_, args) in pending.items() if ready.issuperset(args)]
        if not progress:
            raise ValueError("combinational loop or undriven line")
        for name in progress:
            kind, args = pending.pop(name)
            ordered.append((name, kind, args))
            ready.add(name)
    return inputs, outputs, ordered


_REDUCE = {
    "AND": operator.and_, "NAND": operator.and_, "OR": operator.or_,
    "NOR": operator.or_, "XOR": operator.xor, "XNOR": operator.xor,
    "BUF": operator.and_, "BUFF": operator.and_, "NOT": operator.and_,
    "INV": operator.and_,
}
_INVERTING = ("NOT", "INV", "NAND", "NOR", "XNOR", "MIN")


def _gate(kind: str, values, ones):
    if kind in ("MAJ", "MIN"):
        a, b, c = values
        out = (a & b) | (a & c) | (b & c)
    elif kind in _REDUCE:
        out = functools.reduce(_REDUCE[kind], values)
    else:
        raise ValueError(f"reference has no gate {kind}")
    return out ^ ones if kind in _INVERTING else out


class Reference:
    """Exhaustive packed-word simulation of one ``.bench`` network.

    Every line is a uint64 array over all 2^n input points.  Each point
    ``p`` is evaluated twice, at ``X_p`` and at its complement, so the
    SCAL pair ``(X, X̄)`` is aligned position by position and no bit
    reversal is needed.
    """

    def __init__(self, text: str) -> None:
        import numpy as np

        self.np = np
        self.inputs, self.outputs, self.gates = parse(text)
        n = len(self.inputs)
        words = max(1, (1 << n) // 64)
        bits = min(64, 1 << n)
        self.ones = np.uint64((1 << bits) - 1)
        low = (0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
               0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000)
        index = np.arange(words, dtype=np.uint64)
        self.x: Dict[str, object] = {}
        for i, name in enumerate(self.inputs):
            if i < 6:
                row = np.full(words, low[i], dtype=np.uint64)
            else:
                bit = (index >> np.uint64(i - 6)) & np.uint64(1)
                row = np.uint64(0) - bit  # all-ones words where bit is set
            self.x[name] = row & self.ones
        self.xbar = {k: v ^ self.ones for k, v in self.x.items()}
        self.good = self._outputs(None)

    def _outputs(self, fault):
        """Output rows at X and at X̄ under ``fault`` (or fault-free).

        ``fault`` is ``("stem", line, v)`` or ``("pin", gate, index, v)``.
        """
        np = self.np
        result = []
        for assignment in (self.x, self.xbar):
            values = dict(assignment)
            const = None
            if fault is not None:
                const = np.full_like(next(iter(values.values())),
                                     self.ones if fault[-1] else 0)
                if fault[0] == "stem" and fault[1] in values:
                    values[fault[1]] = const
            for name, kind, args in self.gates:
                ins = [values[a] for a in args]
                if fault is not None and fault[0] == "pin" and fault[1] == name:
                    ins[fault[2]] = const
                out = _gate(kind, ins, self.ones)
                if fault is not None and fault[0] == "stem" and fault[1] == name:
                    out = const
                values[name] = out
            result.append([values[o] for o in self.outputs])
        return result

    def scal_status(self, fault) -> str:
        """``dangerous`` | ``detected`` | ``silent`` for one fault.

        detected: some output does not alternate on some pair;
        dangerous: some pair has a wrong output while every output
        alternates (the undetected fault-secure violation)."""
        np = self.np
        (fx, fxb), (gx, gxb) = self._outputs(fault), self.good
        wrong = np.zeros_like(gx[0])
        nonalt = np.zeros_like(gx[0])
        all_alt = np.full_like(gx[0], self.ones)
        for a, ab, g, gb in zip(fx, fxb, gx, gxb):
            alt = a ^ ab
            nonalt |= alt ^ self.ones
            all_alt &= alt
            wrong |= (a ^ g) | (ab ^ gb)
        if (wrong & all_alt).any():
            return "dangerous"
        return "detected" if nonalt.any() else "silent"

    def detectable(self, fault) -> bool:
        """Whether some single input vector shows ``fault`` at an output."""
        (fx, _), (gx, _) = self._outputs(fault), self.good
        return any((a ^ g).any() for a, g in zip(fx, gx))


def as_reference_fault(fault) -> tuple:
    """A program fault object (``StuckAt``/``PinStuckAt``) as a plain tuple."""
    if hasattr(fault, "line"):
        return ("stem", fault.line, fault.value)
    return ("pin", fault.gate, fault.pin_index, fault.value)
