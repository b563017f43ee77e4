"""Property-based HLO tests: random programs, pass soundness, round-trip."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hlo import (
    HloBuilder,
    Shape,
    compile_module,
    fingerprint,
    optimize,
    parse_module,
    print_module,
)
from repro.hlo.compiler import Executable

UNARY_OPS = ["negate", "tanh", "exponential", "logistic", "relu", "abs"]
BINARY_OPS = ["add", "subtract", "multiply", "maximum", "minimum"]


@st.composite
def random_program(draw):
    """A random elementwise+reduce HLO program over one f32[n] parameter.

    Returns (module builder thunk, reference numpy function)."""
    n = draw(st.integers(2, 16))
    n_ops = draw(st.integers(1, 12))
    steps = []
    for _ in range(n_ops):
        if draw(st.booleans()):
            steps.append(("unary", draw(st.sampled_from(UNARY_OPS)), None))
        else:
            op = draw(st.sampled_from(BINARY_OPS))
            operand = draw(
                st.one_of(
                    st.just("param"),
                    st.just("prev"),
                    st.floats(min_value=-2, max_value=2, allow_nan=False),
                )
            )
            steps.append(("binary", op, operand))
    return n, steps


_NP_UNARY = {
    "negate": np.negative,
    "tanh": np.tanh,
    "exponential": np.exp,
    "logistic": lambda x: 1 / (1 + np.exp(-x)),
    "relu": lambda x: np.maximum(x, 0),
    "abs": np.abs,
}
_NP_BINARY = {
    "add": np.add,
    "subtract": np.subtract,
    "multiply": np.multiply,
    "maximum": np.maximum,
    "minimum": np.minimum,
}


def build_module(n, steps):
    b = HloBuilder("random")
    param = b.parameter(Shape((n,)))
    current = param
    prev = param
    for kind, op, operand in steps:
        nxt_prev = current
        if kind == "unary":
            current = b.unary(op, current)
        else:
            if operand == "param":
                rhs = param
            elif operand == "prev":
                rhs = prev
            else:
                rhs = b.broadcast(b.constant(operand), (n,))
            current = b.binary(op, current, rhs)
        prev = nxt_prev
    return b.build(b.reduce(current, "sum", None))


def reference_eval(n, steps, x):
    current = x
    prev = x
    for kind, op, operand in steps:
        nxt_prev = current
        if kind == "unary":
            current = _NP_UNARY[op](current)
        else:
            if operand == "param":
                rhs = x
            elif operand == "prev":
                rhs = prev
            else:
                rhs = np.full(n, operand, np.float32)
            current = _NP_BINARY[op](current, rhs)
        prev = nxt_prev
    return np.float32(current.astype(np.float32).sum())


#: exp(exp(exp(x))) overflows to inf, and inf + -inf is nan on every path.
_OVERFLOW_TO_NAN = (
    2,
    [("unary", "exponential", None)] * 3
    + [("binary", "add", "param")] * 4
    + [("unary", "negate", None)] * 2
    + [("binary", "add", "prev")],
)


@given(random_program(), st.integers(0, 10_000))
@example(_OVERFLOW_TO_NAN, 1)
@settings(max_examples=60, deadline=None)
def test_optimized_module_matches_reference(program, seed):
    n, steps = program
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n).astype(np.float32)

    module = build_module(n, steps)
    plain = float(Executable(module).run([x]))

    module2 = build_module(n, steps)
    optimize(module2, fuse=True)
    fused = float(Executable(module2).run([x]))

    expected = float(reference_eval(n, steps, x))
    assert plain == pytest.approx(expected, rel=1e-3, abs=1e-3, nan_ok=True)
    assert fused == pytest.approx(plain, rel=1e-4, abs=1e-5, nan_ok=True)


@given(random_program())
@settings(max_examples=40, deadline=None)
def test_text_round_trip_random_programs(program):
    n, steps = program
    module = build_module(n, steps)
    text = print_module(module)
    reparsed = parse_module(text)
    assert fingerprint(module) == fingerprint(reparsed)


@given(random_program())
@settings(max_examples=30, deadline=None)
def test_fingerprint_stable_across_rebuilds(program):
    n, steps = program
    assert fingerprint(build_module(n, steps)) == fingerprint(
        build_module(n, steps)
    )


@given(random_program(), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_optimize_is_idempotent(program, seed):
    n, steps = program
    module = build_module(n, steps)
    optimize(module)
    once = fingerprint(module)
    optimize(module)
    twice = fingerprint(module)
    assert once == twice
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n).astype(np.float32)
    expected = float(reference_eval(n, steps, x))
    # nan_ok: chained exps can overflow to inf and inf-inf is nan in both
    # the reference and the compiled run — that is still agreement.
    assert float(Executable(module).run([x])) == pytest.approx(
        expected, rel=1e-3, abs=1e-3, nan_ok=True
    )


@given(random_program())
@settings(max_examples=30, deadline=None)
def test_compile_cache_consistency(program):
    from repro.hlo import clear_cache

    n, steps = program
    clear_cache()
    exe1 = compile_module(build_module(n, steps))
    exe2 = compile_module(build_module(n, steps))
    assert exe1 is exe2
