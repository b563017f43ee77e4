"""Trace canonicalization: the static cache key of a LazyTensor fragment.

Section 3.4 stakes LazyTensor's performance on per-step traces hashing
identically so the trace-hash → executable cache hits.  The runtime keys
that cache on the text :func:`repro.tensor.lazy_backend.fragment_key`
computes on the :class:`TraceNode` DAG, **before** lowering; this module
reads the same text (plus its constant sites and skeleton) off live or
snapshotted fragments, so cache behavior can be proven statically:

* node identities are alpha-renamed to their position in
  :func:`repro.tensor.lazy_backend.fragment_order`, the traversal lowering
  numbers parameters and instructions by;
* sources are abstracted to parameters (shape + dtype only — the values a
  tensor holds never affect which executable runs);
* trace-embedded ``constant`` nodes keep their **values**, because HLO
  embeds literals in the executable — this is precisely why a
  step-volatile constant causes a retrace storm.

Two fragments with equal canonical keys lower to alpha-equivalent HLO
modules and therefore share one compiled executable; the self-check sweep
cross-validates this equivalence against real fingerprints and the
runtime's dynamic counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.tensor.lazy_backend import (
    constant_line,
    fragment_key,
    key_digest,
    shape_text,
)


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
        return key_digest(self.key)

    @property
    def skeleton_digest(self) -> str:
        return key_digest(self.skeleton)


def canonicalize(roots: Sequence) -> CanonicalTrace:
    """Canonicalize the fragment materializing ``roots`` (in cut order).

    Accepts live :class:`TraceNode` roots or captured
    :class:`~repro.analysis.tracing.capture.SnapNode` roots alike.  The
    ``key`` is the runtime's own cache key text
    (:func:`repro.tensor.lazy_backend.fragment_key`); the rest is read
    off it.
    """
    key, order = fragment_key(list(roots))
    lines = key.split("\n")
    skeleton_lines = list(lines)
    constants: list[ConstantSite] = []
    n_params = 0
    n_ops = 0
    for position, node in enumerate(order):
        if node.is_source:
            n_params += 1
        elif node.op == "constant":
            constants.append(ConstantSite(position, float(node.attrs["value"])))
            skeleton_lines[position] = constant_line(position, "·", shape_text(node))
        else:
            n_ops += 1
    return CanonicalTrace(
        key=key,
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
