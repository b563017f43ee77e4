"""Dtype-flow checking: locate precision hazards in a (narrowed) module.

Given a module and its range analysis, :func:`check_dtype_flow` flags,
with one located :class:`~repro.errors.Diagnostic` per origin:

* **overflow-to-inf** — a compute op whose exact-math image exceeds its
  element type's finite range (fix-it: keep the op in f32);
* **unsafe cast** — a ``convert`` whose incoming certified range does not
  fit the destination dtype (fix-it: keep the value wide);
* **underflow-to-zero** — an op whose entire non-zero magnitude range
  lies below the dtype's smallest normal (fix-it: loss scaling, with a
  computed scale);
* **needs-f32-accum** — a sum/mean reduction folding enough elements in
  a narrow accumulator that increments round away entirely (fix-it:
  ``accum="f32"``).

Hazards downstream of a poisoned interval (an already-reported overflow
origin) are suppressed: one root cause, one diagnostic.
"""

from __future__ import annotations

import math

from repro.errors import Diagnostic, SourceLocation
from repro.hlo.dtypes import FINFO, finfo
from repro.hlo.ir import NARROW_DTYPES, HloModule
from repro.analysis.precision.ranges import RangeInfo, reduced_element_count

#: Diagnostic message prefix -> corpus verdict label (read through
#: :func:`repro.analysis.corpus.verdict_of`).
VERDICT_PREFIXES = (
    ("overflow-to-inf", "overflow"),
    ("unsafe cast", "unsafe-cast"),
    ("underflow-to-zero", "underflow"),
    ("needs-f32-accum", "accum-drift"),
)


def check_dtype_flow(
    module: HloModule,
    ranges: RangeInfo,
    location: SourceLocation = SourceLocation(),
) -> list[Diagnostic]:
    """All precision hazards of ``module`` under its computed ranges."""
    diags: list[Diagnostic] = []
    for inst in module.schedule():
        dt = inst.shape.dtype
        if dt not in FINFO:
            continue  # pred/tuple values carry no float hazard
        if inst.id in ranges.poisoned_inputs:
            continue  # downstream of a reported origin
        exact = ranges.exact.get(inst.id)
        if exact is None:
            continue
        info = finfo(dt)

        if inst.opcode == "convert":
            src = inst.operands[0].shape.dtype
            if exact.poisoned or exact.max_abs > info.max:
                if _narrower(dt, src):
                    diags.append(
                        Diagnostic(
                            "error",
                            f"unsafe cast: %{inst.name} narrows "
                            f"{src}->{dt} but its certified range "
                            f"{exact} exceeds {dt}'s finite range "
                            f"(max {info.max:.5g}); fix-it: keep this "
                            f"value in {src} (drop the convert) or "
                            f"rescale it below {dt}'s max first",
                            location,
                        )
                    )
                    continue
        elif inst.opcode not in ("parameter", "constant"):
            if exact.poisoned or exact.max_abs > info.max:
                diags.append(
                    Diagnostic(
                        "error",
                        f"overflow-to-inf: %{inst.name} ({inst.opcode}) "
                        f"computed in {dt} has exact range {exact} "
                        f"exceeding {dt}'s finite range (max "
                        f"{info.max:.5g}) — the narrowed value saturates "
                        f"to inf; fix-it: insert convert-to-f32 before "
                        f"%{inst.name} and compute it wide",
                        location,
                    )
                )
                continue

        if (
            not exact.poisoned
            # The whole interval is nonzero yet below the normal range:
            # every value the op can produce flushes (or goes subnormal).
            # Requiring ``min_abs > 0`` keeps zero-initialized values —
            # whose certified intervals are a few widened ULPs around an
            # exact 0 — from being mistaken for vanishing gradients.
            and exact.min_abs > 0.0
            and exact.max_abs < info.smallest_normal
            and inst.opcode not in ("constant", "parameter")
        ):
            scale_exp = _loss_scale_exponent(info.smallest_normal, exact.max_abs)
            diags.append(
                Diagnostic(
                    "error",
                    f"underflow-to-zero: %{inst.name} ({inst.opcode}) in "
                    f"{dt} has certified magnitude at most "
                    f"{exact.max_abs:.5g}, below {dt}'s smallest normal "
                    f"{info.smallest_normal:.5g} — values flush to zero "
                    f"or lose all precision; fix-it: apply loss scaling "
                    f"(scale upstream by 2**{scale_exp}, unscale after "
                    f"the narrow region)",
                    location,
                )
            )
            continue

        if inst.opcode == "reduce" and _needs_f32_accum(inst):
            n = reduced_element_count(inst)
            eps = info.eps
            diags.append(
                Diagnostic(
                    "error",
                    f"needs-f32-accum: %{inst.name} folds {n} elements "
                    f"in a {dt} accumulator; beyond 1/eps = "
                    f"{int(1 / eps)} elements the running sum's ULP "
                    f"exceeds the increments and additions round away "
                    f"entirely (drift bound "
                    f"{100 * math.expm1(0.5 * n * eps):.0f}% of the "
                    f"sum); fix-it: set accum=\"f32\" on the reduction "
                    f"(AMP: narrow inputs, wide accumulator)",
                    location,
                )
            )
    return diags


def _needs_f32_accum(inst) -> bool:
    dt = inst.shape.dtype
    if dt not in NARROW_DTYPES:
        return False
    if inst.attrs.get("accum") == "f32":
        return False
    if inst.attrs.get("kind") not in ("sum", "mean"):
        return False
    return reduced_element_count(inst) >= int(1 / finfo(dt).eps)


def _narrower(dst: str, src: str) -> bool:
    order = {"f16": 0, "bf16": 1, "f32": 2, "f64": 3}
    return order.get(dst, 2) < order.get(src, 2)


def _loss_scale_exponent(smallest_normal: float, max_abs: float) -> int:
    """A power-of-two scale lifting ``max_abs`` well into the normal
    range (4 extra doublings of headroom above the smallest normal)."""
    return int(math.ceil(math.log2(smallest_normal / max_abs))) + 4

