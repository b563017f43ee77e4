"""The common dataflow normal form both sides of the translation proof use.

A *term* is an immutable tuple ``(op, arg, arg, ...)`` where every arg is
either ``(TERM, id)`` — a reference to another interned term — or
``(LIT, value)`` — a frozen attribute literal.  :class:`TermTable`
hash-conses terms: structurally identical values get identical ids, which
is exactly alpha-renaming — variable names, instruction ids, and schedule
labels all vanish, leaving pure dataflow.

Op-algebra normalization happens at construction: the operands of the
commutative elementwise kernels are sorted by term id, so an operand swap
that cannot change the computed bits cannot fail the proof, while a swap
of a *non*-commutative op (subtract, divide, matmul) changes the term and
is caught.

Both the HLO side (:func:`validator.module_terms`) and the AST side
(:func:`validator.function_terms`) intern into one shared table; the
translation is certified iff the two root ids are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hlo.codegen import freeze

TERM = "t"
LIT = "lit"

#: Kernels whose two array operands commute bit-for-bit under NumPy
#: (IEEE add/multiply are commutative; maximum/minimum propagate NaNs
#: symmetrically).  subtract/divide/power/matmul are *not* here — operand
#: order is semantic and a reorder must fail the proof.
COMMUTATIVE_KERNELS = frozenset({"add", "mul", "maximum", "minimum"})


@dataclass
class TermTable:
    """Hash-consing table: term tuple -> dense id (insertion order)."""

    _index: dict = field(default_factory=dict)
    _terms: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self._terms)

    def intern(self, term: tuple) -> int:
        tid = self._index.get(term)
        if tid is None:
            tid = len(self._terms)
            self._terms.append(term)
            self._index[term] = tid
        return tid

    def node(self, tid: int) -> tuple:
        return self._terms[tid]

    # -- constructors (the shared term algebra) ------------------------------

    def param(self, number: int) -> int:
        return self.intern(("param", (LIT, number)))

    def const(self, value) -> int:
        """A constant, keyed by its exact run-time representation: Python
        type, storage dtype, shape, and raw bytes."""
        arr = np.asarray(value)
        payload = (
            type(value).__name__,
            str(arr.dtype),
            arr.shape,
            arr.tobytes(),
        )
        return self.intern(("const", (LIT, payload)))

    def kernel(self, name: str, args: list[tuple]) -> int:
        """A kernel-table call; ``args`` mixes term refs and literals in
        positional order.  Commutative binary kernels sort their operands."""
        if (
            name in COMMUTATIVE_KERNELS
            and len(args) == 2
            and args[0][0] == TERM
            and args[1][0] == TERM
            and args[1][1] < args[0][1]
        ):
            args = [args[1], args[0]]
        return self.intern(("kernel:" + name,) + tuple(args))

    def cast(self, dtype: str, tid: int) -> int:
        return self.intern(("cast", (LIT, dtype), (TERM, tid)))

    def f32acc(self, tid: int) -> int:
        return self.intern(("f32acc", (TERM, tid)))

    def astype_f32(self, tid: int) -> int:
        return self.intern(("astype32", (TERM, tid)))

    def narrow_reduce(self, tid: int, axes, keepdims, kind: str, dtype: str) -> int:
        return self.intern(
            (
                "narrow_reduce",
                (TERM, tid),
                (LIT, freeze(axes)),
                (LIT, bool(keepdims)),
                (LIT, kind),
                (LIT, dtype),
            )
        )

    def compare(self, direction: str, a: int, b: int) -> int:
        return self.intern(("cmp", (LIT, direction), (TERM, a), (TERM, b)))

    def logical_not(self, tid: int) -> int:
        return self.intern(("not", (TERM, tid)))

    def tuple_(self, tids: list[int]) -> int:
        return self.intern(("tuple",) + tuple((TERM, t) for t in tids))

    # -- rendering -----------------------------------------------------------

    def sketch(self, tid: int, depth: int = 3) -> str:
        """A short human-readable rendering for diagnostics."""
        op, *args = self.node(tid)
        if op == "param":
            return f"p{args[0][1]}"
        if op == "const":
            _, dtype, shape, _ = args[0][1]
            dims = "x".join(str(d) for d in shape) or "scalar"
            return f"const[{dims} {dtype}]"
        if depth == 0:
            return f"{op}(…)"
        parts = []
        for kind, payload in args:
            if kind == TERM:
                parts.append(self.sketch(payload, depth - 1))
            else:
                parts.append(repr(payload))
        name = op[len("kernel:"):] if op.startswith("kernel:") else op
        return f"{name}({', '.join(parts)})"
