"""HLO-like intermediate representation.

The LazyTensor backend lowers recorded traces into this IR, which the
compiler (:mod:`repro.hlo.compiler`) optimizes and turns into fused NumPy
executables — the reproduction of the XLA JIT path of Section 3.3.

The IR is a DAG of :class:`HloInstruction` nodes inside an
:class:`HloComputation`; every instruction has a static :class:`Shape`
(XLA's static-shape expectation, which is why shape changes trigger
recompilation — Section 3.4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import HloError

F16 = "f16"
BF16 = "bf16"
F32 = "f32"
F64 = "f64"
PRED = "pred"

#: Bytes per element of each element type — what a buffer of that dtype
#: occupies on a real accelerator.  The NumPy backend *emulates* bf16 in
#: f32 storage (NumPy has no native bfloat16), so dynamic byte-exact
#: cross-checks only run for f16/f32/pred traces; certificates for bf16
#: modules describe the hardware layout, not the emulation.
DTYPE_BYTES = {F16: 2, BF16: 2, F32: 4, F64: 8, PRED: 1}

#: Floating element types, narrowest first.
FLOAT_DTYPES = (F16, BF16, F32, F64)

#: The narrow compute dtypes a mixed-precision plan may assign.
NARROW_DTYPES = (F16, BF16)


@dataclass(frozen=True)
class Shape:
    """A static tensor shape with element type."""

    dims: tuple[int, ...]
    dtype: str = F32

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def num_elements(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    @property
    def byte_size(self) -> int:
        return self.num_elements * DTYPE_BYTES.get(self.dtype, 4)

    @property
    def storage_bytes(self) -> int:
        """Bytes a buffer of this shape occupies (dtype-aware: predicates
        are byte masks, f16/bf16 are half-width, f64 double-width)."""
        return self.num_elements * DTYPE_BYTES.get(self.dtype, 4)

    def __str__(self) -> str:
        dims = ",".join(map(str, self.dims))
        return f"{self.dtype}[{dims}]"

    def __iter__(self):
        """The dims, so a shape reads like a tensor's shape tuple."""
        return iter(self.dims)

    def with_dtype(self, dtype: str) -> "Shape":
        return Shape(self.dims, dtype)

    @classmethod
    def of(cls, array: np.ndarray) -> "Shape":
        if array.dtype == np.bool_:
            dtype = PRED
        elif array.dtype == np.float16:
            dtype = F16
        elif array.dtype == np.float64:
            dtype = F64
        else:
            dtype = F32
        return cls(tuple(int(d) for d in array.shape), dtype)


#: Opcodes grouped by structure.  Elementwise opcodes are fusion candidates.
ELEMENTWISE_UNARY = {
    "negate",
    "exponential",
    "log",
    "tanh",
    "sqrt",
    "rsqrt",
    "logistic",
    "sign",
    "abs",
    "relu",
    "not",
}
ELEMENTWISE_BINARY = {
    "add",
    "subtract",
    "multiply",
    "divide",
    "power",
    "maximum",
    "minimum",
    "compare",
}
ELEMENTWISE_OTHER = {"select"}
ELEMENTWISE = ELEMENTWISE_UNARY | ELEMENTWISE_BINARY | ELEMENTWISE_OTHER

#: Opcodes whose value lives in memory the caller already owns: parameters
#: alias the argument buffers, constants alias the module's literal pool.
#: The memory planner counts them as *resident*, never as plan buffers.
RESIDENT_OPS = frozenset({"parameter", "constant"})

#: Opcodes the backend always executes as a zero-copy view of operand 0
#: (``np.broadcast_to`` never copies): pure aliases, zero plan bytes.
VIEW_ALIAS_OPS = frozenset({"broadcast"})

#: Opcodes the backend executes as a view *when layout permits* (NumPy
#: reshape/transpose): the planner must both reserve output bytes (the
#: copying case) and extend the operand's storage lifetime (the view case).
MAY_ALIAS_OPS = frozenset({"reshape", "transpose"})

OPCODES = (
    ELEMENTWISE
    | {
        "parameter",
        "constant",
        "broadcast",
        "reshape",
        "transpose",
        "convert",
        "dot",
        "convolution",
        "reduce",
        "pad",
        "slice",
        "concatenate",
        "iota",
        "one_hot",
        "avg_pool",
        "avg_pool_grad",
        "max_pool",
        "max_pool_grad",
        "conv_grad_input",
        "conv_grad_filter",
        "softmax_ce",
        "softmax_ce_grad",
        "tuple",
        "fusion",
    }
)


class HloInstruction:
    """One node of the HLO DAG."""

    _ids = itertools.count()

    __slots__ = (
        "id",
        "opcode",
        "operands",
        "shape",
        "attrs",
        "literal",
        "parameter_number",
        "fused_computation",
        "name",
    )

    def __init__(
        self,
        opcode: str,
        operands: Sequence["HloInstruction"],
        shape: Shape,
        attrs: Optional[dict] = None,
        literal: Optional[np.ndarray] = None,
        parameter_number: Optional[int] = None,
        fused_computation: Optional["HloComputation"] = None,
    ) -> None:
        if opcode not in OPCODES:
            raise HloError(f"unknown opcode {opcode!r}")
        self.id = next(HloInstruction._ids)
        self.opcode = opcode
        self.operands = list(operands)
        self.shape = shape
        self.attrs = dict(attrs or {})
        self.literal = literal
        self.parameter_number = parameter_number
        self.fused_computation = fused_computation
        self.name = f"{opcode}.{self.id}"

    @property
    def is_elementwise(self) -> bool:
        return self.opcode in ELEMENTWISE

    def attr_string(self) -> str:
        if not self.attrs:
            return ""
        parts = [f"{k}={self.attrs[k]!r}" for k in sorted(self.attrs)]
        return ", " + ", ".join(parts)

    def __repr__(self) -> str:
        ops = ", ".join(f"%{o.name}" for o in self.operands)
        return f"%{self.name} = {self.shape} {self.opcode}({ops}{self.attr_string()})"


class HloComputation:
    """A DAG with named parameters and a single root instruction."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.instructions: list[HloInstruction] = []
        self.parameters: list[HloInstruction] = []
        self.root: Optional[HloInstruction] = None

    def add(self, inst: HloInstruction) -> HloInstruction:
        self.instructions.append(inst)
        if inst.opcode == "parameter":
            self.parameters.append(inst)
        return inst

    def set_root(self, inst: HloInstruction) -> None:
        self.root = inst

    def post_order(self) -> list[HloInstruction]:
        """Topological (post-)order of instructions reachable from the root."""
        if self.root is None:
            raise HloError(f"computation {self.name} has no root")
        order: list[HloInstruction] = []
        seen: set[int] = set()
        stack: list[tuple[HloInstruction, bool]] = [(self.root, False)]
        while stack:
            inst, expanded = stack.pop()
            if inst.id in seen:
                continue
            if expanded:
                seen.add(inst.id)
                order.append(inst)
            else:
                stack.append((inst, True))
                for op in reversed(inst.operands):
                    if op.id not in seen:
                        stack.append((op, False))
        return order

    def users(self) -> dict[int, list[HloInstruction]]:
        table: dict[int, list[HloInstruction]] = {}
        for inst in self.post_order():
            for op in inst.operands:
                table.setdefault(op.id, []).append(inst)
        return table

    def use_counts(self) -> dict[int, int]:
        """Operand-slot use counts over the schedule (an operand appearing
        twice in one instruction counts twice — the executor decrements
        once per slot when freeing at last use)."""
        counts: dict[int, int] = {}
        for inst in self.post_order():
            for op in inst.operands:
                counts[op.id] = counts.get(op.id, 0) + 1
        return counts

    def instruction_count(self) -> int:
        return len(self.post_order())


class HloModule:
    """A compilation unit: one entry computation."""

    def __init__(self, name: str, entry: HloComputation) -> None:
        self.name = name
        self.entry = entry

    def schedule(self) -> list[HloInstruction]:
        """The execution order: the entry computation's post-order, which is
        exactly the order ``Executable.run`` evaluates (and frees) values —
        the schedule the static memory planner reasons over."""
        return self.entry.post_order()

    def __repr__(self) -> str:
        from repro.hlo.printer import print_module

        return print_module(self)
