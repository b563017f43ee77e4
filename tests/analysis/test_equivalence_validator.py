"""The translation validator: the term normal form (hash-consing,
commutative sorting), certification of real emissions, and rejection with
located diagnostics of every seeded-miscompile class."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.equivalence.miscompiles import MISCOMPILES
from repro.analysis.equivalence.normalform import TERM, TermTable
from repro.analysis.equivalence.validator import (
    function_terms,
    module_terms,
    validate_translation,
)
from repro.hlo import HloBuilder, Shape, emit_module, optimize


def _affine_module(fuse=True):
    """(x @ w) + broadcast(b) then relu — one fusable elementwise region."""
    b = HloBuilder("affine")
    x = b.parameter(Shape((4, 6)))
    w = b.parameter(Shape((6, 3)))
    bias = b.parameter(Shape((3,)))
    y = b.binary("add", b.dot(x, w), b.broadcast(bias, (4, 3)))
    module = b.build(b.unary("relu", y))
    return optimize(module, fuse=True) if fuse else module


def _sub_chain_module():
    b = HloBuilder("subchain")
    x = b.parameter(Shape((8,)))
    y = b.parameter(Shape((8,)))
    d = b.binary("subtract", x, y)
    return b.build(b.binary("subtract", d, b.broadcast(b.constant(0.5), (8,))))


# -- the normal form ---------------------------------------------------------


def test_hash_consing_interns_structural_duplicates_once():
    table = TermTable()
    a = table.kernel("relu", [(TERM, table.param(0))])
    b = table.kernel("relu", [(TERM, table.param(0))])
    assert a == b
    assert len(table) == 2  # param + relu, interned once each


def test_commutative_operands_sort_to_one_term():
    table = TermTable()
    p0, p1 = table.param(0), table.param(1)
    assert table.kernel("add", [(TERM, p0), (TERM, p1)]) == table.kernel(
        "add", [(TERM, p1), (TERM, p0)]
    )
    # ... but operand order of subtract is semantic.
    assert table.kernel("sub", [(TERM, p0), (TERM, p1)]) != table.kernel(
        "sub", [(TERM, p1), (TERM, p0)]
    )


def test_constants_key_on_exact_bytes():
    table = TermTable()
    f32 = table.const(np.float32(1.0))
    f64 = table.const(np.float64(1.0))
    again = table.const(np.float32(1.0))
    assert f32 == again
    assert f32 != f64  # same value, different storage → different term


def test_module_and_function_sides_share_the_algebra():
    module = _affine_module()
    generated = emit_module(module)
    table = TermTable()
    root, expected = module_terms(module, table)
    execd = function_terms(
        generated.source, generated.consts, 3, table, generated.filename
    )
    assert not execd.errors
    assert execd.ret_term == root
    assert len(expected) >= 1


# -- certification -----------------------------------------------------------


@pytest.mark.parametrize("fuse", [False, True], ids=["unfused", "fused"])
def test_real_emission_certifies(fuse):
    module = _affine_module(fuse)
    generated = emit_module(module)
    result = validate_translation(module, generated.source, generated.consts)
    assert result.certified
    assert not result.errors
    assert result.checked_values >= 1
    assert result.term_count >= 3


def test_operand_swap_on_noncommutative_op_is_rejected():
    module = _sub_chain_module()
    generated = emit_module(module)
    assert "K['sub'](" in generated.source
    # Swap the outer subtract's operands: bits change, proof must fail.
    lines = generated.source.splitlines()
    ret = [i for i, ln in enumerate(lines) if "return" in ln][0]
    last_assign = lines[ret - 1]
    name, _, expr = last_assign.partition(" = ")
    inner = expr[len("K['sub'](") : -1]
    a, _, b = inner.partition(", ")
    lines[ret - 1] = f"{name} = K['sub']({b}, {a})"
    result = validate_translation(module, "\n".join(lines), generated.consts)
    assert not result.certified
    assert result.divergent_value is not None
    assert any(d.location.line >= 1 for d in result.errors)


def test_commutative_swap_still_certifies():
    b = HloBuilder("addswap")
    x = b.parameter(Shape((4,)))
    y = b.parameter(Shape((4,)))
    module = b.build(b.binary("add", x, y))
    generated = emit_module(module)
    swapped = generated.source.replace(
        "K['add'](p0, p1)", "K['add'](p1, p0)"
    )
    assert swapped != generated.source
    assert validate_translation(module, swapped, generated.consts).certified


def test_dropped_value_is_located():
    module = _sub_chain_module()
    generated = emit_module(module)
    lines = generated.source.splitlines()
    # Delete the first kernel assignment: count mismatch, first unmatched
    # value named in the diagnostic.
    assign = [i for i, ln in enumerate(lines) if "K['sub']" in ln][0]
    result = validate_translation(
        module, "\n".join(lines[:assign] + lines[assign + 1 :]), generated.consts
    )
    assert not result.certified
    assert result.errors


#: Helper calls whose literal slot holds a non-literal, literals that no
#: emitted term can hold (dict, set, bytes, complex, unhashable), and
#: table selectors that name no kernel or compare direction.
_BAD_LITERAL_LINES = [
    "cast(p0, p0)",
    "narrow_reduce(p0, p0, False, 'sum', 'f16')",
    "K['transpose'](p0, {1: 0})",
    "K['transpose'](p0, {1, 0})",
    "K['transpose'](p0, b'10')",
    "K['transpose'](p0, 1j)",
    "cast(p0, {1: 2})",
    "K['transpose'](p0, {(1, [0]): 0})",
    "K[1](p0)",
    "CMP[[1]](p0, p1)",
]


def test_foreign_constructs_are_rejected_not_executed():
    module = _sub_chain_module()
    bad = "def step(p0, p1):\n    import os\n    return p0\n"
    result = validate_translation(module, bad, ())
    assert not result.certified
    assert result.errors
    for expr in _BAD_LITERAL_LINES:
        bad = f"def step(p0, p1):\n    v0 = {expr}\n    return v0\n"
        result = validate_translation(module, bad, ())
        assert not result.certified, expr
        assert result.code is None, expr
        assert [d.location.line for d in result.errors] == [2], expr


def test_generate_certified_falls_back_on_a_bad_literal(monkeypatch):
    from repro.hlo import codegen
    from repro.hlo.compiler import Executable

    module = _sub_chain_module()
    emitted = emit_module(module)
    monkeypatch.setattr(
        codegen,
        "emit_module",
        lambda m, key=None, schedule=None: dataclasses.replace(
            emitted, source="def step(p0, p1):\n    v0 = cast(p0, p0)\n    return v0\n"
        ),
    )
    codegen.clear_source_cache()
    interpreted = Executable(module)
    try:
        assert codegen.generate_certified(module, interpreted, key="bad-literal") is interpreted
    finally:
        codegen.clear_source_cache()


# -- the seeded miscompile corpus -------------------------------------------


def _narrowed_reduce_module():
    """A module whose emission contains convert + f32-accum material."""
    from repro.analysis.precision.casts import apply_plan, naive_assignment

    b = HloBuilder("narrow")
    x = b.parameter(Shape((4, 8)))
    w = b.parameter(Shape((8, 8)))
    module = b.build(b.unary("relu", b.dot(x, w)))
    return optimize(apply_plan(module, naive_assignment(module, "f16")), fuse=True)


_TARGETS = {
    "wrong-broadcast": _affine_module,
    "stale-reuse": None,  # needs a planned-reuse emission (chain below)
    "dropped-convert": _narrowed_reduce_module,
    "reordered-op": _sub_chain_module,
    "accum-elision": _narrowed_reduce_module,
}


def _reuse_chain_module():
    b = HloBuilder("reuse")
    x = b.parameter(Shape((8, 8)))
    w = b.parameter(Shape((8, 8)))
    h = x
    for _ in range(3):
        h = b.unary("relu", b.dot(h, w))
    return b.build(h)


@pytest.mark.parametrize("bug", MISCOMPILES, ids=lambda m: m.name)
def test_each_miscompile_is_caught_with_a_location(bug):
    build = _TARGETS.get(bug.verdict) or _reuse_chain_module
    module = build()
    generated = emit_module(module)
    # Sanity: the untransformed emission certifies (no false positive).
    clean = validate_translation(module, generated.source, generated.consts)
    assert clean.certified, bug.name
    transformed = bug.transform(generated.source)
    assert transformed is not None, f"{bug.name} found no target to corrupt"
    result = validate_translation(module, transformed, generated.consts)
    assert not result.certified, bug.name
    assert any(d.location.line >= 1 for d in result.errors), bug.name


def test_miscompile_transforms_return_none_when_inapplicable():
    trivial = "def step(p0):\n    return p0\n"
    for bug in MISCOMPILES:
        assert bug.transform(trivial) is None, bug.name
