"""Frontend lowering tests: lowered functions must match direct execution."""

import math
import re

import pytest

from repro.errors import LoweringError
from repro.sil import call_function, lower_function, verify
from repro.sil.mathprims import exp, sin


def check(fn, *argsets):
    """Lower ``fn`` and compare interpretation against direct calls."""
    func = lower_function(fn)
    verify(func)
    for args in argsets:
        assert call_function(func, args) == pytest.approx(fn(*args))
    return func


def test_arithmetic():
    def f(x, y):
        return (x + y) * (x - y) / 2.0 + x**2

    check(f, (3.0, 4.0), (1.5, -2.0), (0.0, 0.0))


def test_unary_and_mod_floordiv():
    def f(x, y):
        return (-x + +y) % 5 + x // 2

    check(f, (7, 3), (10, 4))


def test_locals_and_reassignment():
    def f(x):
        a = x * 2.0
        b = a + 1.0
        a = b * b
        return a - x

    check(f, (2.0,), (-3.0,))

    def g(x):
        y = x
        y += 2.0
        y *= 3.0
        return y

    check(g, (1.0,), (5.0,))


def test_tuple_pack_unpack():
    def f(x, y):
        pair = (x + 1.0, y * 2.0)
        a, b = pair
        return a * b

    check(f, (3.0, 4.0))


def test_if_else():
    def f(x):
        if x > 0.0:
            y = x * 2.0
        else:
            y = -x
        return y + 1.0

    check(f, (3.0,), (-3.0,), (0.0,))


def test_if_without_else():
    def f(x):
        y = x
        if x > 0.0:
            y = y * 10.0
        return y

    check(f, (2.0,), (-2.0,))


def test_elif_chain():
    def f(x):
        if x > 10.0:
            r = 1.0
        elif x > 0.0:
            r = 2.0
        elif x > -10.0:
            r = 3.0
        else:
            r = 4.0
        return r

    check(f, (20.0,), (5.0,), (-5.0,), (-20.0,))


def test_early_return():
    def f(x):
        if x < 0.0:
            return -x
        return x * 3.0

    check(f, (4.0,), (-4.0,))


def test_both_branches_return():
    def f(x):
        if x > 0.0:
            return 1.0
        else:
            return -1.0

    check(f, (2.0,), (-2.0,))


def test_while_loop():
    def f(n):
        total = 0.0
        i = 0
        while i < n:
            total += float(i)
            i += 1
        return total

    check(f, (5,), (0,), (1,))


def test_while_with_break_continue():
    def f(n):
        total = 0
        i = 0
        while True:
            i += 1
            if i > n:
                break
            if i % 2 == 0:
                continue
            total += i
        return total

    check(f, (10,), (0,), (7,))


def test_for_range():
    def f(n):
        s = 0
        for i in range(n):
            s += i * i
        return s

    check(f, (6,), (0,), (1,))


def test_for_range_start_step():
    def f(a, b):
        s = 0
        for i in range(a, b, 2):
            s += i
        return s

    check(f, (1, 10), (0, 0))


def test_nested_for_loops():
    def f(n):
        s = 0
        for i in range(n):
            for j in range(i):
                s += i * j
        return s

    check(f, (5,), (1,))


def test_for_over_list_literal():
    def f(x):
        s = 0.0
        for w in [1.0, 2.0, 3.0]:
            s += w * x
        return s

    check(f, (2.0,))


def test_for_with_break():
    def f(n):
        s = 0
        for i in range(100):
            if i >= n:
                break
            s += i
        return s

    check(f, (5,), (0,))


def test_bool_ops_short_circuit():
    def f(x, y):
        if x > 0.0 and y > 0.0:
            return 1.0
        if x < 0.0 or y < 0.0:
            return 2.0
        return 3.0

    check(f, (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (0.0, 0.0))


def test_conditional_expression():
    def f(x):
        return x if x > 0.0 else -x

    check(f, (3.0,), (-3.0,))


def test_math_module_calls():
    def f(x):
        return math.exp(x) + math.sin(x) * math.cos(x) + math.pi

    check(f, (0.5,), (0.0,))


def test_primitive_direct_call():
    def f(x):
        return exp(x) + sin(x)

    check(f, (0.3,))


def test_builtin_calls():
    def f(x):
        return abs(x) + float(len([1, 2, 3])) + min(x, 0.0) + max(x, 0.0)

    check(f, (2.5,), (-2.5,))


def test_call_other_python_function():
    def square(v):
        return v * v

    def f(x):
        return square(x) + square(x + 1.0)

    check(f, (3.0,))


def test_call_with_keyword_and_default():
    def scaled(v, scale=2.0, shift=0.0):
        return v * scale + shift

    def f(x):
        return scaled(x) + scaled(x, scale=3.0) + scaled(x, shift=1.0)

    check(f, (2.0,))


def test_recursion():
    def fact(n):
        if n <= 1:
            return 1
        return n * fact(n - 1)

    check(fact, (5,), (1,), (0,))


def test_subscript_load():
    def f(xs, i):
        return xs[i] + xs[0]

    func = lower_function(f)
    assert call_function(func, ([1.0, 2.0, 3.0], 2)) == 4.0


def test_closure_capture():
    scale = 4.0

    def f(x):
        return x * scale

    check(f, (2.0,))


def test_loop_carried_multiple_vars():
    def f(n):
        a, b = 0, 1
        for _ in range(n):
            a, b = b, a + b
        return a

    check(f, (10,), (0,), (1,))


def test_opaque_callable_indirect_apply():
    table = {"fn": lambda v: v * 7.0}
    fn = table["fn"]

    def f(x):
        return fn(x) + 1.0

    check(f, (2.0,))


def test_lowering_is_cached():
    def f(x):
        return x + 1.0

    first = lower_function(f)
    second = lower_function(f)
    assert first is second


def test_unsupported_statement_errors():
    def f(x):
        with open("/dev/null") as fh:  # noqa: SIM115
            pass
        return x

    with pytest.raises(LoweringError, match="unsupported statement"):
        lower_function(f)


def test_unsupported_expression_errors():
    def f(x):
        return [i for i in range(int(x))]

    with pytest.raises(LoweringError):
        lower_function(f)


def test_chained_comparison_errors():
    def f(x):
        return 1.0 if 0.0 < x < 1.0 else 0.0

    with pytest.raises(LoweringError, match="chained"):
        lower_function(f)


def test_use_of_maybe_unbound_name_errors():
    def f(x):
        if x > 0.0:
            y = 1.0
        return y  # noqa: F821 - intentionally maybe-unbound

    with pytest.raises(LoweringError, match="not defined"):
        lower_function(f)


def test_implicit_return_none():
    def f(x):
        x + 1.0  # noqa: B018 - expression statement, no return

    func = lower_function(f)
    assert call_function(func, (1.0,)) is None


# -- rejections raised before a Lowerer exists are located like the rest --------

_LOCATED = rf"^{re.escape(__file__)}:\d+:\d+: "


def test_non_function_definition_error_is_located():
    not_a_def = lambda x: x + 1.0  # noqa: E731 - the construct under test

    with pytest.raises(
        LoweringError, match=_LOCATED + r".*<lambda>: expected a function definition$"
    ):
        lower_function(not_a_def)


def test_async_function_error_is_located():
    async def f(x):
        return x

    with pytest.raises(
        LoweringError, match=_LOCATED + r".*\bf: async functions are unsupported$"
    ):
        lower_function(f)


@pytest.mark.parametrize("kind", ["vararg", "kwarg", "kwonly", "posonly"])
def test_non_positional_parameter_error_is_located(kind):
    def vararg(x, *rest):
        return x

    def kwarg(x, **rest):
        return x

    def kwonly(x, *, scale):
        return x

    def posonly(x, /, y):
        return x

    with pytest.raises(
        LoweringError,
        match=_LOCATED + rf".*\b{kind}: only simple positional parameters are supported$",
    ):
        lower_function(locals()[kind])
