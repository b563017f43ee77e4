"""LazyTensor trace visualisation (Figure 4).

Renders a trace DAG — as recorded by the lazy backend before
materialization — in two forms: an indented text tree for terminals and
Graphviz DOT for figures.  ``capture_forward_trace`` reproduces the
paper's Figure 4 setup: the trace of a model's forward pass.

With ``annotate=True`` (or volatile-constant positions from the
retrace-storm detector) the renderings carry the static analysis results:
the canonical cache key in the header, cut points (the fragment's roots)
marked, and step-volatile constants highlighted at their canonical
positions.  ``stability_timeline`` renders a whole captured run as a
per-step cut/compile/hit timeline.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.tensor.lazy_backend import TraceNode, fragment_order


def _label(node: TraceNode) -> str:
    shape = "x".join(map(str, node.shape)) if node.shape else "scalar"
    if node.is_source:
        return f"source f32[{shape}]"
    attrs = ""
    if node.attrs:
        attrs = " " + ", ".join(f"{k}={v}" for k, v in sorted(node.attrs.items()))
    return f"{node.op} f32[{shape}]{attrs}"


def _canonicalize(roots: list):
    # Imported lazily: the canonicalizer lives in the analysis layer, and
    # viz must stay importable without dragging the analyzers in eagerly.
    from repro.analysis.tracing.canonical import canonicalize

    return canonicalize(roots)


def trace_to_text(
    roots: Iterable[TraceNode],
    annotate: bool = False,
    volatile_positions: Sequence[int] = (),
) -> str:
    """One line per node, operands by position.

    Nodes are listed in :func:`~repro.tensor.lazy_backend.fragment_order`,
    the walk the canonical cache key reads, so the ``%i`` of a line is the
    node's canonical position.  ``annotate=True`` prefixes the static cache
    key and marks the cut points (the fragment's roots);
    ``volatile_positions`` — canonical positions from the retrace-storm
    detector — highlight the constants whose per-step churn defeats the
    executable cache.
    """
    roots = list(roots)
    order = fragment_order(roots)
    index = {node.id: i for i, node in enumerate(order)}
    lines = []
    volatile = set(volatile_positions)
    if annotate:
        canonical = _canonicalize(roots)
        lines.append(
            f"# cache key {canonical.digest} "
            f"({canonical.n_params} params, {canonical.n_ops} ops)"
        )
    root_ids = {r.id for r in roots}
    for i, node in enumerate(order):
        operands = ", ".join(f"%{index[x.id]}" for x in node.inputs)
        line = f"%{i} = {_label(node)}" + (f" ({operands})" if operands else "")
        if i in volatile:
            line += "   <-- step-volatile constant (promote to a trace input)"
        elif annotate and node.id in root_ids:
            line += "   <-- cut point (materialized here)"
        lines.append(line)
    return "\n".join(lines)


def trace_to_dot(
    roots: Iterable[TraceNode],
    name: str = "trace",
    annotate: bool = False,
    volatile_positions: Sequence[int] = (),
) -> str:
    """Graphviz DOT of the trace DAG (the Figure 4 rendering).

    Annotations mirror :func:`trace_to_text`: the graph label carries the
    canonical cache key, cut points get a double border, and step-volatile
    constants are filled red.
    """
    roots = list(roots)
    order = fragment_order(roots)
    lines = [f"digraph {name} {{", "  rankdir=TB;", '  node [shape=box, fontsize=10];']
    volatile = set(volatile_positions)
    if annotate:
        canonical = _canonicalize(roots)
        lines.append(f'  label="cache key {canonical.digest}";')
        lines.append("  labelloc=t;")
    root_ids = {r.id for r in roots} if annotate else set()
    for i, node in enumerate(order):
        extra = ""
        if i in volatile:
            extra = ', style=filled, fillcolor="#ffb3b3"'
        elif node.is_source:
            extra = ', style=filled, fillcolor="#dddddd"'
        if node.id in root_ids:
            extra += ", peripheries=2"
        lines.append(f'  n{node.id} [label="{_label(node)}"{extra}];')
    for node in order:
        for operand in node.inputs:
            lines.append(f"  n{operand.id} -> n{node.id};")
    lines.append("}")
    return "\n".join(lines)


def stability_timeline(report) -> str:
    """Render a :class:`~repro.analysis.tracing.stability.StabilityReport`
    as a per-step timeline: when each fragment was cut, why, under which
    canonical key, and whether the executable cache (statically) hits."""
    by_step: dict[int, list] = {}
    for fragment in report.fragments:
        by_step.setdefault(fragment.step, []).append(fragment)
    volatile_by_slot: dict[int, list] = {}
    for volatile in report.volatile_constants:
        volatile_by_slot.setdefault(volatile.slot, []).append(volatile)
    lines = []
    for step in sorted(by_step):
        for fragment in by_step[step]:
            outcome = "cache hit" if fragment.predicted_hit else "compile"
            lines.append(
                f"step {step}: fragment {fragment.slot} cut by "
                f"{fragment.reason}, key {fragment.canonical.digest} "
                f"({outcome})"
            )
        for slot, volatiles in sorted(volatile_by_slot.items()):
            for volatile in volatiles:
                if slot < len(by_step[step]):
                    lines.append(
                        f"        ^ %{volatile.position} step-volatile "
                        "constant defeats the cache"
                    )
    if not lines:
        lines.append("(no fragments cut)")
    return "\n".join(lines)


def capture_forward_trace(model, example_input):
    """Run ``model(example_input)`` on its (lazy) device and return the
    output's trace root, without materializing anything."""
    output = model(example_input)
    node = output._impl
    if not isinstance(node, TraceNode):
        raise TypeError("capture_forward_trace requires a lazy-device tensor")
    return node


def trace_summary(root: TraceNode) -> dict[str, int]:
    """Aggregate statistics of a trace: ops by kind, totals."""
    order = fragment_order([root])
    by_op: dict[str, int] = {}
    for node in order:
        by_op[node.op] = by_op.get(node.op, 0) + 1
    return {
        "total_nodes": len(order),
        "sources": by_op.get("source", 0),
        "operations": len(order) - by_op.get("source", 0),
        **{f"op:{k}": v for k, v in sorted(by_op.items()) if k != "source"},
    }
