"""`@derivative(of:)` custom derivative registration and AOT diagnostics."""

import pytest

from repro.core import derivative, differentiable, gradient, jvp, vjp
from repro.errors import DifferentiabilityError
from repro.sil.primitives import PRIMITIVES, primitive


def test_custom_vjp_for_new_primitive():
    @primitive("softplus_test")
    def softplus(x):
        import math

        return math.log(1.0 + math.exp(x))

    calls = []

    @derivative(of=softplus)
    def softplus_vjp(x):
        import math

        y = math.log(1.0 + math.exp(x))
        sig = 1.0 / (1.0 + math.exp(-x))
        calls.append(x)
        return y, lambda ct: (ct * sig,)

    def f(v):
        return softplus(v) * 2.0

    g = gradient(f, 1.0)
    import math

    assert g == pytest.approx(2.0 / (1.0 + math.exp(-1.0)))
    assert calls  # the registered derivative was actually used


def test_custom_vjp_overrides_transformation():
    def cube(v):
        return v * v * v

    # A deliberately wrong derivative proves the custom rule takes priority
    # over recursive transformation of the body.
    @derivative(of=cube)
    def cube_vjp(v):
        return v * v * v, lambda ct: (ct * 100.0,)

    def f(x):
        return cube(x)

    assert gradient(f, 2.0) == pytest.approx(100.0)


def test_custom_jvp():
    @primitive("iden_test")
    def iden(x):
        return x

    @derivative(of=iden, kind="jvp")
    def iden_jvp(primals, tangents):
        return primals[0], tangents[0] * 42.0

    def f(x):
        return iden(x)

    _, d = jvp(f, (1.0,), (1.0,))
    assert d == 42.0


def test_nondifferentiable_primitive_rejected_at_transform_time():
    @primitive("opaque_test")
    def opaque(x):
        return x * 2.0

    def f(x):
        return opaque(x)

    # The error fires when synthesizing the derivative — before any
    # gradient value is computed ("catch errors before execution").
    with pytest.raises(DifferentiabilityError, match="no registered derivative"):
        gradient(f, 1.0)


def test_nondifferentiable_callee_reported_with_function_name():
    @primitive("opaque_test2")
    def opaque2(x):
        return x

    def helper(v):
        return opaque2(v)

    def f(x):
        return helper(x)

    with pytest.raises(DifferentiabilityError, match="helper"):
        gradient(f, 1.0)


def test_inactive_nondifferentiable_calls_are_fine():
    # A non-differentiable primitive on an *inactive* path needs no
    # derivative: activity analysis prunes it.
    @primitive("clock_test", pure=False)
    def clock():
        return 42.0

    def f(x):
        offset = clock()  # not varied: no derivative required
        return x * 2.0 + offset * 0.0

    try:
        assert gradient(f, 1.0) == pytest.approx(2.0)
    finally:
        # A nullary primitive left registered would fail the self-check's
        # every-primitive sweep in any later test.
        del PRIMITIVES["clock_test"]


def test_decorated_function_diagnoses_eagerly():
    @primitive("opaque_test3")
    def opaque3(x):
        return x

    @differentiable
    def f(x):
        return opaque3(x)

    # Decoration lowers; the *first* derivative request runs checking and
    # fails before executing any user code.
    with pytest.raises(DifferentiabilityError):
        f.vjp(1.0)


def test_vjp_pullback_reuse():
    def f(x):
        return x * x * x

    value, pb = vjp(f, 2.0)
    assert value == 8.0
    assert pb(1.0) == pytest.approx(12.0)
    assert pb(2.0) == pytest.approx(24.0)  # pullback is reusable & linear


def test_derivative_registration_invalidates_existing_plans():
    def quad(v):
        return v * v

    def f(x):
        return quad(x)

    assert gradient(f, 3.0) == pytest.approx(6.0)

    @derivative(of=quad)
    def quad_vjp(v):
        return v * v, lambda ct: (ct * -1.0,)

    assert gradient(f, 3.0) == pytest.approx(-1.0)


def test_primitive_without_jvp_rejected_in_forward_mode():
    @primitive("revonly_test")
    def revonly(x):
        return x * 2.0

    @derivative(of=revonly)
    def revonly_vjp(x):
        return x * 2.0, lambda ct: (ct * 2.0,)

    def f(x):
        return revonly(x)

    assert gradient(f, 1.0) == pytest.approx(2.0)
    with pytest.raises(DifferentiabilityError, match="JVP"):
        jvp(f, (1.0,), (1.0,))
