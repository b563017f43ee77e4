"""Trace canonicalization: the static cache key of a LazyTensor fragment.

Section 3.4 stakes LazyTensor's performance on per-step traces hashing
identically so the trace-hash → executable cache hits.  The dynamic hash is
the HLO module fingerprint computed *after* lowering; this module computes
an equivalent key directly on the :class:`TraceNode` DAG, **before**
lowering, so cache behavior can be proven statically:

* node identities are alpha-renamed to their position in
  :func:`repro.tensor.lazy_backend.fragment_order`, the traversal lowering
  numbers parameters and instructions by;
* sources are abstracted to parameters (shape + dtype only — the values a
  tensor holds never affect which executable runs);
* trace-embedded ``constant`` nodes keep their **values**, because HLO
  prints literals into the module text the compiler cache keys on — this
  is precisely why a step-volatile constant causes a retrace storm.

Two fragments with equal canonical keys lower to alpha-equivalent HLO
modules and therefore share one compiled executable; the self-check sweep
cross-validates this equivalence against real fingerprints and the
runtime's dynamic counters.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.tensor.lazy_backend import fragment_order


@dataclass(frozen=True)
class ConstantSite:
    """A trace-embedded literal: canonical position + the embedded value."""

    position: int
    value: float


@dataclass(frozen=True)
class CanonicalTrace:
    """The canonical (alpha-renamed, data-abstracted) form of a fragment."""

    #: Full canonical text — equality ⇔ one shared compiled executable.
    key: str
    #: Canonical text with constant *values* abstracted away; two traces
    #: with equal skeletons but unequal keys differ only in embedded
    #: literals (the retrace-storm signature).
    skeleton: str
    lines: tuple[str, ...]
    constants: tuple[ConstantSite, ...]
    #: Node ids (TraceNode.id) by canonical position, for mapping
    #: diagnostics back onto a live trace or snapshot.
    node_ids: tuple[int, ...]
    n_params: int
    n_ops: int

    @property
    def digest(self) -> str:
        """Short stable hash of the key, for display."""
        return hashlib.sha256(self.key.encode()).hexdigest()[:12]

    @property
    def skeleton_digest(self) -> str:
        return hashlib.sha256(self.skeleton.encode()).hexdigest()[:12]


def _shape_text(shape: tuple, dtype: str) -> str:
    dims = "x".join(map(str, shape))
    return f"{dtype}[{dims}]"


def _attr_text(attrs: dict) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{k}={attrs[k]!r}" for k in sorted(attrs))
    return " {" + inner + "}"


def canonicalize(roots: Sequence) -> CanonicalTrace:
    """Canonicalize the fragment materializing ``roots`` (in cut order).

    Accepts live :class:`TraceNode` roots or captured
    :class:`~repro.analysis.tracing.capture.SnapNode` roots alike.
    """
    roots = list(roots)
    order = fragment_order(roots)
    index = {node.id: position for position, node in enumerate(order)}

    lines: list[str] = []
    skeleton_lines: list[str] = []
    constants: list[ConstantSite] = []
    n_params = 0
    n_ops = 0
    for position, node in enumerate(order):
        shape = _shape_text(node.shape, node.dtype)
        if node.is_source:
            text = f"%{position} = param[{n_params}] {shape}"
            n_params += 1
            lines.append(text)
            skeleton_lines.append(text)
        elif node.op == "constant":
            value = float(node.attrs["value"])
            constants.append(ConstantSite(position, value))
            lines.append(f"%{position} = constant({value!r}) {shape}")
            skeleton_lines.append(f"%{position} = constant(·) {shape}")
        else:
            n_ops += 1
            operands = ", ".join(f"%{index[i.id]}" for i in node.inputs)
            text = (
                f"%{position} = {node.op}({operands}) {shape}"
                f"{_attr_text(node.attrs)}"
            )
            lines.append(text)
            skeleton_lines.append(text)
    root_line = "roots(" + ", ".join(f"%{index[r.id]}" for r in roots) + ")"
    lines.append(root_line)
    skeleton_lines.append(root_line)
    return CanonicalTrace(
        key="\n".join(lines),
        skeleton="\n".join(skeleton_lines),
        lines=tuple(lines),
        constants=tuple(constants),
        node_ids=tuple(node.id for node in order),
        n_params=n_params,
        n_ops=n_ops,
    )


def cache_key(roots: Sequence) -> str:
    """The static cache key (short digest) of a fragment."""
    return canonicalize(roots).digest


def traces_equivalent(a: CanonicalTrace, b: CanonicalTrace) -> bool:
    """True iff the two fragments will share one compiled executable."""
    return a.key == b.key


def same_skeleton(a: CanonicalTrace, b: CanonicalTrace) -> bool:
    """True iff the fragments differ at most in embedded constant values."""
    return a.skeleton == b.skeleton


def diff_constants(
    a: CanonicalTrace, b: CanonicalTrace
) -> list[tuple[int, float, float]]:
    """Per-site value differences ``(position, value_a, value_b)``.

    Only meaningful when ``same_skeleton(a, b)`` — positions then align.
    """
    return [
        (sa.position, sa.value, sb.value)
        for sa, sb in zip(a.constants, b.constants)
        if sa.value != sb.value
    ]


def explain_difference(a: CanonicalTrace, b: CanonicalTrace) -> Optional[str]:
    """Human-readable first divergence between two canonical traces, or
    ``None`` when they are equivalent (one shared executable)."""
    if traces_equivalent(a, b):
        return None
    if same_skeleton(a, b):
        position, va, vb = diff_constants(a, b)[0]
        return (
            f"traces differ only in embedded constants: "
            f"%{position} is {va!r} vs {vb!r}"
        )
    for i, (la, lb) in enumerate(zip(a.lines, b.lines)):
        if la != lb:
            return f"traces diverge at %{i}: {la!r} vs {lb!r}"
    return (
        f"traces differ in length: {len(a.lines)} vs {len(b.lines)} "
        "canonical nodes"
    )
