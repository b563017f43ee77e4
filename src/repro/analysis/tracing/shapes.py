"""Forward shape/dtype inference over TraceNode DAGs.

The tensor layer stamps a shape onto every :class:`TraceNode` as it
records, but nothing validates those stamps until the fragment is lowered
— at which point :mod:`repro.hlo.builder` re-infers shapes and a malformed
trace fails *inside* HLO compilation, far from the node that caused it.
This checker re-runs each node's shape rule — the one its row of
:mod:`repro.tensor.traceops` recorded it with — directly over the trace
DAG, so malformed traces are rejected **before lowering** with diagnostics
located at the offending trace node (its position in
:func:`~repro.tensor.lazy_backend.fragment_order`, which is its canonical
position, doubles as the line number).

An op without a row is rejected here too: the ahead-of-time version of
the ``no HLO lowering for traced op`` error lowering raises at
materialization time.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import (
    Diagnostic,
    ReproError,
    SourceLocation,
    TraceError,
)
from repro.tensor.lazy_backend import fragment_order
from repro.tensor.traceops import trace_op


def infer_trace_shapes(roots: Sequence) -> list[Diagnostic]:
    """Validate every node of the fragment against its row's shape rule.

    Returns the full batch of diagnostics (empty when the trace is
    well-formed).  Never raises; use :func:`check_trace` for the raising
    form.  On an inference failure the node's *declared* shape is trusted
    downstream, so one malformed node yields one diagnostic, not a
    cascade.
    """
    diagnostics: list[Diagnostic] = []

    def reject(position: int, node, message: str) -> None:
        diagnostics.append(
            Diagnostic(
                "error",
                f"%{position} = {node.op}: {message}",
                SourceLocation("<trace>", position, 0),
            )
        )

    for position, node in enumerate(fragment_order(list(roots))):
        if node.is_source or node.op == "constant":
            continue
        input_shapes = [tuple(i.shape) for i in node.inputs]
        try:
            row = trace_op(node.op)
            dims = tuple(row.infer(input_shapes, node.attrs))
        except (ReproError, KeyError, IndexError, TypeError) as exc:
            reject(
                position,
                node,
                f"missing attribute {exc}" if isinstance(exc, KeyError) else str(exc),
            )
            continue
        if dims != tuple(node.shape):
            reject(
                position,
                node,
                f"recorded shape {tuple(node.shape)} disagrees with "
                f"inferred shape {dims} "
                f"(inputs {', '.join(map(str, input_shapes))})",
            )
        elif row.dtype != node.dtype:
            reject(
                position,
                node,
                f"recorded dtype {node.dtype!r} disagrees with "
                f"inferred dtype {row.dtype!r}",
            )
    return diagnostics


def check_trace(roots: Sequence) -> None:
    """Raise :class:`~repro.errors.TraceError` carrying the full batch of
    shape/dtype diagnostics when the fragment is malformed."""
    diagnostics = infer_trace_shapes(roots)
    if any(d.is_error for d in diagnostics):
        raise TraceError(diagnostics)
