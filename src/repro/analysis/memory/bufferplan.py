"""Buffer assignment: color non-overlapping liveness intervals into a
reusable buffer pool, and validate any plan against the liveness facts.

The planner is a greedy linear scan over definition order with exact-size
free-list buckets (two values share a buffer only when their true,
alias-extended intervals are disjoint and their sizes match).  It also
detects safe in-place *donations*: an elementwise (or fused-elementwise)
op whose same-sized compute operand dies exactly at the op can write into
the operand's buffer.

:func:`validate_plan` is deliberately independent of the planner — it
re-derives safety from the liveness intervals alone, so it catches
corrupted or hand-built plans:

* **unsafe buffer reuse** — two values share a buffer while both live;
* **unsafe in-place** — a donation into a non-elementwise op, with a size
  mismatch, or while the donor is still live;
* **tuple aliasing** — a buffer still reachable through the module's
  output tuple is reused (the classic "freed my output" planner bug).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import Diagnostic, SourceLocation
from repro.hlo.ir import ELEMENTWISE

from .liveness import LivenessInfo, ValueInfo

#: Opcodes allowed to receive an in-place donation: they read each input
#: element exactly once to produce the matching output element, so writing
#: the output over a dying input is safe.  Fusions of elementwise ops
#: inherit the property.
DONATABLE_OPS = frozenset(ELEMENTWISE | {"fusion"})


@dataclass(frozen=True)
class BufferAssignment:
    """One planned value's slot in the buffer pool."""

    inst_id: int
    name: str
    buffer: int
    nbytes: int
    interval: tuple[int, int]
    donated_from: Optional[int] = None  # inst id of the in-place donor


@dataclass
class MemoryPlan:
    """A buffer assignment for one module (keyed by its trace cache key)."""

    module_name: str
    trace_key: Optional[str]
    assignments: dict[int, BufferAssignment] = field(default_factory=dict)
    buffer_sizes: dict[int, int] = field(default_factory=dict)
    interference_edges: int = 0

    @property
    def pool_bytes(self) -> int:
        return sum(self.buffer_sizes.values())

    @property
    def donations(self) -> dict[int, int]:
        return {
            a.inst_id: a.donated_from
            for a in self.assignments.values()
            if a.donated_from is not None
        }

    @property
    def buffers_reused(self) -> int:
        """Planned values that did not get a fresh buffer."""
        return len(self.assignments) - len(self.buffer_sizes)

    def buffer_of(self, inst_id: int) -> Optional[int]:
        a = self.assignments.get(inst_id)
        return None if a is None else a.buffer


def plan_buffers(
    liveness: LivenessInfo, trace_key: Optional[str] = None
) -> MemoryPlan:
    """Greedy linear-scan assignment over the true liveness intervals."""
    plan = MemoryPlan(liveness.module_name, trace_key)
    planned = sorted(liveness.planned_values, key=lambda v: v.position)
    # (release position, buffer id, size): a buffer frees once the
    # interval of its latest occupant ends.
    active: list[tuple[int, int, int]] = []
    release_at: dict[int, int] = {}
    free: dict[int, list[int]] = {}
    next_buffer = 0

    for v in planned:
        start, end = liveness.intervals[v.inst_id]
        while active and active[0][0] < start:
            released, buf, size = heapq.heappop(active)
            if release_at.get(buf) == released:  # not extended by donation
                free.setdefault(size, []).append(buf)
                del release_at[buf]

        donor = _donation_candidate(liveness, plan, v)
        if donor is not None:
            buf = plan.assignments[donor].buffer
        elif free.get(v.nbytes):
            buf = free[v.nbytes].pop()
        else:
            buf = next_buffer
            next_buffer += 1
            plan.buffer_sizes[buf] = v.nbytes
        plan.assignments[v.inst_id] = BufferAssignment(
            inst_id=v.inst_id,
            name=v.name,
            buffer=buf,
            nbytes=v.nbytes,
            interval=(start, end),
            donated_from=donor,
        )
        release_at[buf] = end
        heapq.heappush(active, (end, buf, v.nbytes))

    plan.interference_edges = _count_interference(liveness)
    return plan


def _donation_candidate(
    liveness: LivenessInfo, plan: MemoryPlan, v: ValueInfo
) -> Optional[int]:
    if v.opcode not in DONATABLE_OPS or v.category != "compute":
        return None
    inst = liveness.schedule[v.position]
    for op in inst.operands:
        donor = liveness.values.get(op.id)
        if donor is None or not donor.planned or donor.nbytes != v.nbytes:
            continue
        if op.id not in plan.assignments:
            continue
        # The donor's storage must truly die at this op: its alias-extended
        # interval ends here, and no other value shares its buffer later.
        if liveness.intervals[op.id][1] != v.position:
            continue
        if any(a.donated_from == op.id for a in plan.assignments.values()):
            continue  # already donated to a sibling at this position
        return op.id
    return None


def _count_interference(liveness: LivenessInfo) -> int:
    spans = list(liveness.intervals.values())
    edges = 0
    for i, (sa, ea) in enumerate(spans):
        for sb, eb in spans[i + 1 :]:
            if sa <= eb and sb <= ea:
                edges += 1
    return edges


# ---------------------------------------------------------------------------
# Validation (independent of the planner).
# ---------------------------------------------------------------------------


def _overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def validate_plan(
    liveness: LivenessInfo,
    plan: MemoryPlan,
    location: Optional[SourceLocation] = None,
) -> list[Diagnostic]:
    """Check a plan against the liveness facts; return located errors."""
    loc = location or SourceLocation("<memory-plan>", 0)
    diags: list[Diagnostic] = []
    root_info = liveness.values[liveness.root_id]
    root_reaches = set(root_info.storage_roots)
    if root_info.planned:
        root_reaches.add(root_info.inst_id)

    by_buffer: dict[int, list[BufferAssignment]] = {}
    for a in plan.assignments.values():
        by_buffer.setdefault(a.buffer, []).append(a)

    for assignments in by_buffer.values():
        assignments.sort(key=lambda a: a.interval[0])
        for i, a in enumerate(assignments):
            for b in assignments[i + 1 :]:
                ia = liveness.intervals[a.inst_id]
                ib = liveness.intervals[b.inst_id]
                if not _overlap(ia, ib):
                    continue
                if b.donated_from == a.inst_id:
                    diags.extend(
                        _check_donation(liveness, a, b, ia, ib, loc)
                    )
                    continue
                if a.inst_id in root_reaches or b.inst_id in root_reaches:
                    victim, clobber = (
                        (a, b) if a.inst_id in root_reaches else (b, a)
                    )
                    diags.append(
                        Diagnostic(
                            "error",
                            f"tuple-aliasing: buffer {a.buffer} of "
                            f"%{victim.name} is reused by %{clobber.name} "
                            f"while the output tuple still aliases "
                            f"%{victim.name}'s storage (live "
                            f"[{liveness.intervals[victim.inst_id][0]}.."
                            f"{liveness.intervals[victim.inst_id][1]}])",
                            loc,
                        )
                    )
                    continue
                da = liveness.direct_intervals.get(a.inst_id, ia)
                db = liveness.direct_intervals.get(b.inst_id, ib)
                why = (
                    "their direct uses are disjoint but an alias "
                    "(view/tuple) extends the earlier value's storage"
                    if not _overlap(da, db)
                    else f"both live over [{max(ia[0], ib[0])}.."
                    f"{min(ia[1], ib[1])}]"
                )
                diags.append(
                    Diagnostic(
                        "error",
                        f"unsafe buffer reuse: %{a.name} and %{b.name} "
                        f"share buffer {a.buffer} while both are live "
                        f"({why})",
                        loc,
                    )
                )
    diags.extend(_check_donation_targets(liveness, plan, loc))
    return diags


def _check_donation(liveness, a, b, ia, ib, loc) -> list[Diagnostic]:
    """A declared donation a -> b: legal only for elementwise consumers of
    a same-sized donor dying exactly at the consumer's position."""
    diags: list[Diagnostic] = []
    consumer = liveness.values[b.inst_id]
    if consumer.opcode not in DONATABLE_OPS:
        diags.append(
            Diagnostic(
                "error",
                f"unsafe in-place: donation of %{a.name}'s buffer into "
                f"non-elementwise op %{b.name} ({consumer.opcode}) — the "
                f"op reads operand elements after writing output elements",
                loc,
            )
        )
    if a.nbytes != b.nbytes:
        diags.append(
            Diagnostic(
                "error",
                f"unsafe in-place: donation of %{a.name} "
                f"({a.nbytes} B) into %{b.name} ({b.nbytes} B) with "
                f"mismatched buffer sizes",
                loc,
            )
        )
    if ia[1] > ib[0]:
        diags.append(
            Diagnostic(
                "error",
                f"unsafe in-place: %{a.name} donates its buffer to "
                f"%{b.name} but stays live until position {ia[1]} "
                f"(donation requires death at position {ib[0]})",
                loc,
            )
        )
    return diags


def _check_donation_targets(liveness, plan, loc) -> list[Diagnostic]:
    """Donations must also actually share the donor's buffer."""
    diags: list[Diagnostic] = []
    for receiver, donor in plan.donations.items():
        da = plan.assignments.get(donor)
        db = plan.assignments.get(receiver)
        if da is None:
            diags.append(
                Diagnostic(
                    "error",
                    f"unsafe in-place: %{plan.assignments[receiver].name} "
                    f"declares a donation from an unplanned value "
                    f"(id {donor})",
                    loc,
                )
            )
        elif db is not None and da.buffer != db.buffer:
            diags.append(
                Diagnostic(
                    "error",
                    f"unsafe in-place: %{db.name} declares a donation "
                    f"from %{da.name} but occupies a different buffer "
                    f"({db.buffer} vs {da.buffer})",
                    loc,
                )
            )
    return diags


def force_donation(
    plan: MemoryPlan, receiver_id: int, donor_id: int
) -> MemoryPlan:
    """Corruption helper (self-check corpus): rewrite ``receiver`` to claim
    an in-place donation of ``donor``'s buffer, bypassing the safety
    checks the planner applies."""
    donor = plan.assignments[donor_id]
    receiver = plan.assignments[receiver_id]
    old_buffer = receiver.buffer
    plan.assignments[receiver_id] = replace(
        receiver, buffer=donor.buffer, donated_from=donor_id
    )
    if all(a.buffer != old_buffer for a in plan.assignments.values()):
        plan.buffer_sizes.pop(old_buffer, None)
    return plan


def force_shared_buffer(
    plan: MemoryPlan, first_id: int, second_id: int
) -> MemoryPlan:
    """Corruption helper: move ``second`` into ``first``'s buffer as a
    plain (non-donation) reuse, as a planner that freed tuple-aliased
    storage too early would."""
    first = plan.assignments[first_id]
    second = plan.assignments[second_id]
    old_buffer = second.buffer
    plan.assignments[second_id] = replace(second, buffer=first.buffer)
    if all(a.buffer != old_buffer for a in plan.assignments.values()):
        plan.buffer_sizes.pop(old_buffer, None)
    return plan
