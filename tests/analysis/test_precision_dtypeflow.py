"""The dtype-flow checker: one located diagnostic per hazard origin."""

from repro.analysis.corpus import verdict_of as _verdict_of
from repro.analysis.precision.dtypeflow import VERDICT_PREFIXES, check_dtype_flow
from repro.analysis.precision.intervals import Interval
from repro.analysis.precision.ranges import analyze_ranges
from repro.errors import Diagnostic, SourceLocation
from repro.hlo import HloBuilder
from repro.hlo.ir import F16, F32, Shape


def verdict_of(diag):
    return _verdict_of(diag, VERDICT_PREFIXES)


def _check(module, params):
    ranges = analyze_ranges(module, params)
    return check_dtype_flow(
        module, ranges, SourceLocation("test.py", 1)
    ), ranges


def test_clean_module_has_no_diagnostics():
    b = HloBuilder("clean")
    x = b.parameter(Shape((8,), F16))
    module = b.build(b.binary("add", b.unary("tanh", x), x))
    diags, _ = _check(module, {0: Interval.make(-2.0, 2.0)})
    assert diags == []


def test_overflow_to_inf_reported_at_origins_only():
    b = HloBuilder("overflow")
    x = b.parameter(Shape((4,), F16))
    e = b.unary("exponential", x)
    d = b.binary("divide", e, e)  # inf/inf: exact poisons here
    module = b.build(b.binary("add", d, d))
    diags, _ = _check(module, {0: Interval.make(0.0, 12.0)})
    overflow = [d for d in diags if verdict_of(d) == "overflow"]
    assert overflow and all(d.is_error for d in overflow)
    assert any("%exponential" in d.message for d in overflow)
    assert all("fix-it" in d.message for d in overflow)
    # The divide consumes a saturated-but-usable [.., inf] bound and its
    # own exact image poisons (inf/inf is NaN): it is an origin too.
    assert any("%divide" in d.message for d in diags)
    # But everything downstream of the *poisoned* divide is suppressed:
    # one root cause, one diagnostic.
    assert not any("%add" in d.message for d in diags)


def test_unsafe_cast_diagnostic():
    b = HloBuilder("cast")
    x = b.parameter(Shape((4,), F32))
    big = b.binary("multiply", x, x)  # up to 1e10, fine in f32
    module = b.build(b.convert(big, F16))  # but far beyond f16's 65504
    diags, _ = _check(module, {0: Interval.make(0.0, 1e5)})
    casts = [d for d in diags if verdict_of(d) == "unsafe-cast"]
    assert len(casts) == 1
    assert "f32->f16" in casts[0].message
    assert casts[0].location.filename == "test.py"


def test_widening_convert_is_never_unsafe():
    b = HloBuilder("widen")
    x = b.parameter(Shape((4,), F16))
    module = b.build(b.convert(x, F32))
    diags, _ = _check(module, {0: Interval.make(0.0, 60000.0)})
    assert diags == []


def test_underflow_to_zero_with_loss_scale_fixit():
    b = HloBuilder("underflow")
    a = b.parameter(Shape((4,), F16), number=0)
    g = b.parameter(Shape((4,), F16), number=1)
    module = b.build(b.binary("multiply", a, g))
    diags, _ = _check(
        module,
        {0: Interval.make(1e-3, 2e-3), 1: Interval.make(1e-5, 2e-5)},
    )
    under = [d for d in diags if verdict_of(d) == "underflow"]
    assert len(under) == 1
    assert "loss scaling" in under[0].message
    assert "2**" in under[0].message


def test_zero_containing_interval_is_not_underflow():
    # Zero-initialized values have certified intervals a few ULPs around
    # exact zero — they must not be mistaken for vanishing gradients.
    b = HloBuilder("zeros")
    x = b.parameter(Shape((4,), F16))
    module = b.build(b.binary("multiply", x, x))
    diags, _ = _check(module, {0: Interval.point(0.0)})
    assert diags == []


def test_needs_f32_accum_diagnostic():
    b = HloBuilder("drift")
    x = b.parameter(Shape((4096,), F16))
    module = b.build(b.reduce(x, "sum", axes=(0,)))
    diags, _ = _check(module, {0: Interval.make(0.9, 1.1)})
    drift = [d for d in diags if verdict_of(d) == "accum-drift"]
    assert len(drift) == 1
    assert "4096 elements" in drift[0].message
    assert 'accum="f32"' in drift[0].message


def test_f32_accum_attribute_silences_drift():
    b = HloBuilder("accum_ok")
    x = b.parameter(Shape((4096,), F16))
    module = b.build(b.reduce(x, "sum", axes=(0,), accum="f32"))
    diags, _ = _check(module, {0: Interval.make(0.9, 1.1)})
    assert diags == []


def test_small_narrow_reduce_is_fine():
    b = HloBuilder("small")
    x = b.parameter(Shape((512,), F16))  # below 1/eps = 1024
    module = b.build(b.reduce(x, "sum", axes=(0,)))
    diags, _ = _check(module, {0: Interval.make(0.0, 1.0)})
    assert [d for d in diags if verdict_of(d) == "accum-drift"] == []


def test_verdict_prefix_table_is_total():
    labels = {label for _, label in VERDICT_PREFIXES}
    assert labels == {"overflow", "unsafe-cast", "underflow", "accum-drift"}
    loc = SourceLocation("x.py", 1)
    for prefix, label in VERDICT_PREFIXES:
        assert verdict_of(Diagnostic("error", f"{prefix}: details", loc)) == label
    assert verdict_of(Diagnostic("error", "unrelated message", loc)) is None
