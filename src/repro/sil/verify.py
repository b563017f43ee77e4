"""Structural verification of SIL functions.

Checks the SSA invariants the rest of the pipeline relies on:

* every block ends in exactly one terminator and has no terminator mid-block;
* branch argument counts match destination block argument counts;
* every operand is defined before use (dominance, computed over the CFG);
* values are defined exactly once;
* the entry block has no predecessors;
* formal access scopes are well-bracketed: an access token is only consumed
  by ``access_load``/``access_store``/``end_access``, never escapes through a
  branch or return, is not used after its ``end_access`` on any path, is not
  ended twice, is closed before every ``return``, and a ``[read]`` access is
  never stored through.

All checks operate over the *reachable* CFG.  Unreachable blocks are not
silently skipped: each one produces a warning-level
:class:`~repro.errors.Diagnostic` in the returned list (they carry no
semantics, but their presence usually means a pass forgot to prune).
"""

from __future__ import annotations

from repro.errors import Diagnostic, VerificationError
from repro.sil import ir


def verify(func: ir.Function) -> list[Diagnostic]:
    """Raise :class:`VerificationError` on the first violated invariant.

    Returns warning-level diagnostics for suspicious-but-legal structure
    (currently: blocks unreachable from entry).
    """
    if not func.blocks:
        raise VerificationError(f"@{func.name}: function has no blocks")

    # Terminator discipline is checked over *all* blocks first: computing
    # the reachable CFG requires every block's successors to be defined.
    for block in func.blocks:
        if not block.instructions or not block.instructions[-1].is_terminator:
            raise VerificationError(f"@{func.name}/{block.name}: missing terminator")
        for inst in block.instructions[:-1]:
            if inst.is_terminator:
                raise VerificationError(
                    f"@{func.name}/{block.name}: terminator mid-block: {inst}"
                )

    blocks = func.reachable_blocks()
    reachable_ids = {id(b) for b in blocks}
    warnings = [
        Diagnostic(
            "warning",
            f"@{func.name}: block {b.name} is unreachable from entry "
            "and was not verified",
        )
        for b in func.blocks
        if id(b) not in reachable_ids
    ]

    defined: set[int] = set()
    for block in blocks:
        for arg in block.args:
            if arg.id in defined:
                raise VerificationError(f"@{func.name}: value {arg} defined twice")
            defined.add(arg.id)
        for inst in block.instructions:
            for res in inst.results:
                if res.id in defined:
                    raise VerificationError(
                        f"@{func.name}: value {res} defined twice"
                    )
                defined.add(res.id)

    for block in blocks:
        term = block.terminator
        if isinstance(term, ir.BrInst):
            _check_edge(func, block, term.dest, term.operands)
        elif isinstance(term, ir.CondBrInst):
            _check_edge(func, block, term.true_dest, term.true_args)
            _check_edge(func, block, term.false_dest, term.false_args)

    preds = func.predecessors()
    if preds.get(func.entry):
        raise VerificationError(f"@{func.name}: entry block has predecessors")

    _check_dominance(func, blocks)
    _check_access_scopes(func, blocks)
    return warnings


def _check_edge(func, block, dest, args) -> None:
    if dest not in func.blocks:
        raise VerificationError(
            f"@{func.name}/{block.name}: branch to foreign block {dest.name}"
        )
    if len(args) != len(dest.args):
        raise VerificationError(
            f"@{func.name}/{block.name}: branch passes {len(args)} args, "
            f"{dest.name} expects {len(dest.args)}"
        )


def _check_dominance(func: ir.Function, blocks: list[ir.Block]) -> None:
    """Every use must be dominated by its definition.

    Uses the classic iterative dominator dataflow over the reachable CFG
    (the same block set the definition scan covered).
    """
    index = {id(b): i for i, b in enumerate(blocks)}
    preds = func.predecessors()

    # dom[b] = set of blocks dominating b.
    all_ids = set(index)
    dom: dict[int, set[int]] = {id(b): set(all_ids) for b in blocks}
    dom[id(func.entry)] = {id(func.entry)}
    changed = True
    while changed:
        changed = False
        for b in blocks[1:]:
            reachable_preds = [p for p in preds[b] if id(p) in index]
            if not reachable_preds:
                continue
            new = set.intersection(*(dom[id(p)] for p in reachable_preds))
            new.add(id(b))
            if new != dom[id(b)]:
                dom[id(b)] = new
                changed = True

    # Map value id -> defining block id.
    def_block: dict[int, int] = {}
    for b in blocks:
        for arg in b.args:
            def_block[arg.id] = id(b)
        for inst in b.instructions:
            for res in inst.results:
                def_block[res.id] = id(b)

    for b in blocks:
        seen_local: set[int] = {a.id for a in b.args}
        for inst in b.instructions:
            for op in inst.operands:
                db = def_block.get(op.id)
                if db is None:
                    raise VerificationError(
                        f"@{func.name}/{b.name}: use of undefined value {op} in {inst}"
                    )
                if db == id(b):
                    if op.id not in seen_local:
                        raise VerificationError(
                            f"@{func.name}/{b.name}: {op} used before "
                            f"definition in {inst}"
                        )
                elif db not in dom[id(b)]:
                    raise VerificationError(
                        f"@{func.name}/{b.name}: {op} does not dominate use in {inst}"
                    )
            for res in inst.results:
                seen_local.add(res.id)


def _check_access_scopes(func: ir.Function, blocks: list[ir.Block]) -> None:
    """Verify the bracketing discipline of formal access instructions.

    Token *usage* is purely structural; scope liveness is a forward
    must-be-open dataflow (intersection at joins) — a token usable at a
    program point must be open on every path reaching it.
    """
    begins: dict[int, ir.BeginAccessInst] = {}
    for block in blocks:
        for inst in block.instructions:
            if isinstance(inst, ir.BeginAccessInst):
                begins[inst.results[0].id] = inst
    if not begins:
        return

    for block in blocks:
        for inst in block.instructions:
            for i, op in enumerate(inst.operands):
                if op.id not in begins:
                    continue
                consumes_token = (
                    isinstance(
                        inst,
                        (ir.AccessLoadInst, ir.AccessStoreInst, ir.EndAccessInst),
                    )
                    and i == 0
                )
                if not consumes_token:
                    raise VerificationError(
                        f"@{func.name}/{block.name}: access token {op} may only "
                        f"be consumed by access_load/access_store/end_access, "
                        f"not {inst}"
                    )
            if isinstance(inst, ir.AccessStoreInst):
                begin = begins.get(inst.token.id)
                if begin is not None and begin.kind == "read":
                    raise VerificationError(
                        f"@{func.name}/{block.name}: access_store through a "
                        f"[read] access in {inst}"
                    )
        for op in block.terminator.operands:
            if op.id in begins:
                raise VerificationError(
                    f"@{func.name}/{block.name}: access token {op} escapes "
                    f"through {block.terminator}"
                )

    # Forward must-analysis: state = set of token ids open on *all* paths.
    state: dict[int, set[int] | None] = {id(b): None for b in blocks}
    state[id(func.entry)] = set()
    by_id = {id(b): b for b in blocks}
    worklist = [func.entry]
    while worklist:
        block = worklist.pop()
        open_now = set(state[id(block)] or ())
        for inst in block.instructions:
            if isinstance(inst, ir.BeginAccessInst):
                open_now.add(inst.results[0].id)
            elif isinstance(inst, (ir.AccessLoadInst, ir.AccessStoreInst)):
                if inst.token.id in begins and inst.token.id not in open_now:
                    raise VerificationError(
                        f"@{func.name}/{block.name}: {inst} uses access token "
                        f"after its scope ended on some path"
                    )
            elif isinstance(inst, ir.EndAccessInst):
                if inst.token.id in begins and inst.token.id not in open_now:
                    raise VerificationError(
                        f"@{func.name}/{block.name}: {inst} ends an access "
                        f"that is not open (double end_access?)"
                    )
                open_now.discard(inst.token.id)
        if isinstance(block.terminator, ir.ReturnInst) and open_now:
            names = ", ".join(
                repr(begins[t].results[0]) for t in sorted(open_now)
            )
            raise VerificationError(
                f"@{func.name}/{block.name}: access scope(s) {names} still "
                f"open at return"
            )
        for succ in block.successors():
            if id(succ) not in by_id:
                continue  # unreachable-successor edge; verified elsewhere
            prev = state[id(succ)]
            new = set(open_now) if prev is None else prev & open_now
            if prev is None or new != prev:
                state[id(succ)] = new
                worklist.append(succ)
