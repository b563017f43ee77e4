"""Property-based SIL tests: randomly generated Python programs are
lowered, optimized, and differentiated; results must match direct
execution and finite differences."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import gradient
from repro.sil import call_function, lower_function
from repro.sil.passes import run_default_pipeline

UNARY = ["math.tanh({})", "math.sin({})", "(-{})", "abs({})"]
BINARY = [
    "({} + {})",
    "({} - {})",
    "({} * {})",
    "({} * 0.5 + {})",
]


@st.composite
def random_expression(draw, depth=0):
    """A random arithmetic expression string over variable ``x``."""
    if depth >= 3 or draw(st.booleans()):
        return draw(
            st.one_of(
                st.just("x"),
                st.floats(min_value=-2, max_value=2, allow_nan=False).map(
                    lambda v: f"{v!r}"
                ),
            )
        )
    if draw(st.booleans()):
        template = draw(st.sampled_from(UNARY))
        return template.format(draw(random_expression(depth + 1)))
    template = draw(st.sampled_from(BINARY))
    return template.format(
        draw(random_expression(depth + 1)), draw(random_expression(depth + 1))
    )


@st.composite
def random_program(draw):
    """A random straight-line + control-flow function body over ``x``."""
    lines = ["def generated(x):"]
    n_vars = draw(st.integers(1, 4))
    names = []
    for i in range(n_vars):
        expr = draw(random_expression())
        for name in names:
            if draw(st.booleans()):
                expr = f"({expr} + {name} * 0.25)"
                break
        name = f"v{i}"
        names.append(name)
        lines.append(f"    {name} = {expr}")
    shape = draw(st.sampled_from(["plain", "branch", "loop"]))
    last = names[-1]
    if shape == "branch":
        lines.append(f"    if {last} > 0.0:")
        lines.append(f"        {last} = {last} * 2.0")
        lines.append("    else:")
        lines.append(f"        {last} = {last} - 1.0")
    elif shape == "loop":
        lines.append("    for _ in range(3):")
        lines.append(f"        {last} = {last} * 0.5 + math.tanh({last})")
    lines.append(f"    return {last}")
    return "\n".join(lines)


_COUNTER = [0]


def compile_source(source):
    """Exec generated source with a linecache entry so the frontend's
    ``inspect.getsource`` can retrieve it."""
    import linecache

    _COUNTER[0] += 1
    filename = f"<generated-{_COUNTER[0]}>"
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(keepends=True),
        filename,
    )
    namespace = {"math": math}
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    return namespace["generated"]


@given(random_program(), st.floats(min_value=-3, max_value=3, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_lowered_matches_python(source, x):
    fn = compile_source(source)
    func = lower_function(fn)
    assert call_function(func, (x,)) == pytest.approx(fn(x), rel=1e-9, abs=1e-12)


@given(random_program(), st.floats(min_value=-3, max_value=3, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_optimized_matches_python(source, x):
    fn = compile_source(source)
    func = lower_function(fn)
    run_default_pipeline(func)
    assert call_function(func, (x,)) == pytest.approx(fn(x), rel=1e-9, abs=1e-12)


_ABS_SQUARE_TANH_LOOP = """def generated(x):
    v0 = (abs(x) * x)
    for _ in range(3):
        v0 = v0 * 0.5 + math.tanh(v0)
    return v0"""


@given(random_program(), st.floats(min_value=-3, max_value=3, allow_nan=False))
@example(_ABS_SQUARE_TANH_LOOP, 0.0)
@settings(max_examples=50, deadline=None)
def test_gradient_matches_finite_differences(source, x):
    fn = compile_source(source)
    eps = 1e-5
    fd = (fn(x + eps) - fn(x - eps)) / (2 * eps)
    # The oracle's own truncation error, estimated Richardson-style from
    # the central difference at twice the step: x*abs(x) has a second
    # derivative that jumps at 0, where central differences read
    # O(eps) while AD returns the exact 0.
    fd_2eps = (fn(x + 2 * eps) - fn(x - 2 * eps)) / (4 * eps)
    # Skip kinks/branch boundaries: the one-sided derivatives disagree
    # there, and AD's (valid) subgradient choice need not match central FD.
    fd_plus = (fn(x + eps) - fn(x)) / eps
    fd_minus = (fn(x) - fn(x - eps)) / eps
    if abs(fd_plus - fd_minus) > 1e-4 * max(1.0, abs(fd)):
        return
    g = gradient(fn, x)
    assert g == pytest.approx(fd, rel=1e-3, abs=max(1e-5, 2 * abs(fd_2eps - fd)))
