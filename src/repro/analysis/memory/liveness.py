"""Instruction-level liveness over HLO modules.

The planner's ground truth: for every value in a module's schedule (the
post-order ``Executable.run`` executes), compute the interval during which
its storage must exist.  Values fall into four categories:

``resident``
    Parameters and constants.  Their storage belongs to the caller (the
    argument buffers / the literal pool); it exists for the whole run and
    is counted separately as ``resident_bytes``, never planned.

``alias``
    Values the backend always executes as zero-copy views (``broadcast``
    via ``np.broadcast_to``) plus ``tuple``, which aliases *all* of its
    operands.  Zero plan bytes; they extend the liveness of the storage
    they view.

``may-alias``
    ``reshape``/``transpose``: NumPy returns a view when layout permits
    and a copy otherwise, and the planner cannot know which statically.
    Soundly handled both ways at once — reserve the output's bytes (the
    copy case) *and* extend the operand's storage lifetime (the view
    case).

``compute``
    Everything else: the op allocates a fresh owning buffer of
    ``shape.storage_bytes``.

Intervals are inclusive ``[def, last_use]`` positions in the schedule; an
instruction's operands and its result are simultaneously live at its
position (the executor frees operands only *after* storing the result).
Storage reachable from the root value stays live through the end of the
schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hlo.ir import (
    BF16,
    F32,
    MAY_ALIAS_OPS,
    PRED,
    RESIDENT_OPS,
    VIEW_ALIAS_OPS,
    HloInstruction,
    HloModule,
)

RESIDENT = "resident"
ALIAS = "alias"
MAY_ALIAS = "may-alias"
COMPUTE = "compute"


@dataclass(frozen=True)
class ValueInfo:
    """Static facts about one value in the schedule."""

    inst_id: int
    name: str
    opcode: str
    category: str
    nbytes: int  # planned buffer bytes (0 for resident/alias values)
    position: int  # index in the schedule
    storage_roots: tuple[int, ...]  # planned values this value's storage reaches

    @property
    def planned(self) -> bool:
        return self.category in (COMPUTE, MAY_ALIAS)


@dataclass
class LivenessInfo:
    """Per-module liveness: schedule, categories, and storage intervals."""

    module_name: str
    schedule: list[HloInstruction]
    values: dict[int, ValueInfo]
    #: True storage intervals of planned values, alias-extended: a value
    #: stays live while any view/tuple that can reach its storage is used.
    intervals: dict[int, tuple[int, int]]
    #: Intervals from *direct* operand uses only (no alias extension).
    #: The validator compares these against ``intervals`` to tell an
    #: aliasing bug apart from a plain overlapping-interval bug.
    direct_intervals: dict[int, tuple[int, int]]
    resident_bytes: int
    #: Extra transient bytes at materialization: every predicate (bool)
    #: output is converted to f32 by ``_consume`` while the bool buffer is
    #: still live, so the certified bound must include the copies.
    output_conversion_bytes: int
    root_id: int

    @property
    def planned_values(self) -> list[ValueInfo]:
        return [v for v in self.values.values() if v.planned]

    @property
    def naive_bytes(self) -> int:
        """The no-reuse bound: every planned value gets its own buffer."""
        return sum(v.nbytes for v in self.planned_values)

    @property
    def straight_line(self) -> bool:
        """True when the static model is *exact*, not just an upper bound.

        Exactness requires that every planned value is a real owning NumPy
        buffer at run time: no may-alias ops (view-or-copy is dynamic), no
        predicate values anywhere (bool roots are converted on
        materialization), and no rank-0 compute values (full reductions
        return untracked NumPy scalars, not arrays).
        """
        for v in self.values.values():
            if v.category == MAY_ALIAS:
                return False
            inst = self.schedule[v.position]
            if inst.shape.dtype == PRED:
                return False
            if inst.shape.dtype == BF16:
                # bf16 is emulated in f32 storage: certified (hardware)
                # bytes are a lower layout, not what NumPy allocates.
                return False
            if v.category == COMPUTE and inst.shape.rank == 0:
                return False
        return self.output_conversion_bytes == 0

    def timeline(self) -> list[int]:
        """Planned live bytes at each schedule position, plus one final
        entry for materialization (end-live bytes + output conversions)."""
        n = len(self.schedule)
        deltas = [0] * (n + 1)
        for vid, (start, end) in self.intervals.items():
            deltas[start] += self.values[vid].nbytes
            if end + 1 <= n:
                deltas[end + 1] -= self.values[vid].nbytes
        line: list[int] = []
        running = 0
        for p in range(n):
            running += deltas[p]
            line.append(running)
        end_live = sum(
            self.values[vid].nbytes
            for vid, (_, end) in self.intervals.items()
            if end == n - 1
        )
        line.append(end_live + self.output_conversion_bytes)
        return line

    def live_at(self, position: int) -> list[int]:
        """ids of planned values whose interval covers ``position``."""
        return [
            vid
            for vid, (start, end) in self.intervals.items()
            if start <= position <= end
        ]


@dataclass
class _Builder:
    module: HloModule
    schedule: list[HloInstruction]
    values: dict[int, ValueInfo] = field(default_factory=dict)

    def build(self) -> LivenessInfo:
        schedule = self.schedule
        values = self.values
        resident_bytes = 0
        intervals: dict[int, tuple[int, int]] = {}
        direct: dict[int, tuple[int, int]] = {}

        # One pass in schedule order: operands come before their users, so
        # a value's facts exist before any use extends its intervals.
        for p, inst in enumerate(schedule):
            category, nbytes = self._categorize(inst)
            roots = self._storage_roots(inst, category)
            if category == RESIDENT:
                resident_bytes += inst.shape.storage_bytes
            info = values[inst.id] = ValueInfo(
                inst_id=inst.id,
                name=inst.name,
                opcode=inst.opcode,
                category=category,
                nbytes=nbytes,
                position=p,
                storage_roots=roots,
            )
            if info.planned:
                intervals[inst.id] = (p, p)
                direct[inst.id] = (p, p)
            for op in inst.operands:
                if op.id in direct:
                    direct[op.id] = (direct[op.id][0], max(direct[op.id][1], p))
                for root in values[op.id].storage_roots:
                    lo, hi = intervals[root]
                    intervals[root] = (lo, max(hi, p))

        last = len(schedule) - 1
        # Storage reachable from the root survives to the end of the run.
        root = self.module.entry.root
        root_info = self.values[root.id]
        for rid in root_info.storage_roots:
            intervals[rid] = (intervals[rid][0], last)
        if root.id in direct:
            direct[root.id] = (direct[root.id][0], last)

        return LivenessInfo(
            module_name=self.module.name,
            schedule=schedule,
            values=self.values,
            intervals=intervals,
            direct_intervals=direct,
            resident_bytes=resident_bytes,
            output_conversion_bytes=self._conversion_bytes(root),
            root_id=root.id,
        )

    def _categorize(self, inst: HloInstruction) -> tuple[str, int]:
        if inst.opcode in RESIDENT_OPS:
            return RESIDENT, 0
        if inst.opcode in VIEW_ALIAS_OPS or inst.opcode == "tuple":
            return ALIAS, 0
        if inst.opcode in MAY_ALIAS_OPS:
            return MAY_ALIAS, inst.shape.storage_bytes
        return COMPUTE, inst.shape.storage_bytes

    def _storage_roots(self, inst: HloInstruction, category: str) -> tuple[int, ...]:
        if category == RESIDENT:
            return ()
        if category == COMPUTE:
            return (inst.id,)
        # Aliases reach their operands' storage; may-alias values own a
        # (possible) buffer *and* may view operand 0.
        roots: list[int] = [inst.id] if category == MAY_ALIAS else []
        for op in inst.operands:
            for root in self.values[op.id].storage_roots:
                if root not in roots:
                    roots.append(root)
        return tuple(roots)

    def _conversion_bytes(self, root: HloInstruction) -> int:
        # Materialization converts every non-f32 output to an f32 array
        # (predicate masks and narrowed values alike): the converted copy
        # coexists with the source buffer at the peak.
        outputs = list(root.operands) if root.opcode == "tuple" else [root]
        return sum(
            o.shape.num_elements * 4 for o in outputs if o.shape.dtype != F32
        )


def analyze_liveness(
    module: HloModule, schedule: Optional[list[HloInstruction]] = None
) -> LivenessInfo:
    """Compute categories and storage intervals for ``module``'s schedule
    (``module.schedule()``, which the caller may pass if it already walked it)."""
    if schedule is None:
        schedule = module.schedule()
    return _Builder(module, schedule).build()
