"""Conformance of the traced-op table (``repro.tensor.traceops``).

One fixture per row, run through every consumer of the row: the eager
kernel dispatch, trace recording + HLO lowering, the async-compile
op-by-op fallback, certified codegen, the naive op table and the
pre-lowering trace checker.  A row nobody records, or a recorded op
without a row, fails ``test_fixtures_cover_the_table``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tracing import canonicalize, check_trace
from repro.hlo.compiler import AsyncCompiler
from repro.runtime.kernels import KERNELS
from repro.tensor import Device, Tensor, eager_device, lazy_device, naive_device
from repro.tensor.lazy_backend import _lower_to_hlo
from repro.tensor.traceops import TRACE_OPS

_rng = np.random.default_rng(0)


def _f(*shape, positive=False):
    a = _rng.standard_normal(shape).astype(np.float32)
    return np.abs(a) + 0.5 if positive else a


_X = _f(1, 5, 5, 2)  # conv input (NHWC)
_W = _f(3, 3, 2, 3)  # conv filters -> output (1, 3, 3, 3)
_P = _f(1, 4, 4, 2)  # pool input -> output (1, 2, 2, 2)
_ONE_HOT = np.eye(4, dtype=np.float32)[[1, 3, 0]]

#: op -> (operand arrays, attrs).  Elementwise fixtures broadcast.
FIXTURES = {
    **{op: ([_f(2, 3)], {}) for op in ("neg", "exp", "tanh", "sigmoid", "relu", "abs", "sign")},
    **{op: ([_f(2, 3, positive=True)], {}) for op in ("log", "sqrt", "rsqrt")},
    **{op: ([_f(2, 3), _f(3)], {}) for op in ("add", "sub", "mul", "maximum", "minimum")},
    "div": ([_f(2, 3), _f(3, positive=True)], {}),
    "pow": ([_f(2, 3, positive=True), _f(3)], {}),
    "compare": ([_f(2, 3), _f(3)], {"direction": "ge"}),
    "select": ([(_f(2, 3) > 0).astype(np.float32), _f(3), _f()], {}),
    "matmul": ([_f(2, 3), _f(3, 4)], {}),
    "conv2d": ([_X, _W], {"stride": 1, "padding": "valid"}),
    "conv2d_grad_input": (
        [_f(1, 3, 3, 3), _W],
        {"input_dims": _X.shape, "stride": 1, "padding": "valid"},
    ),
    "conv2d_grad_filter": (
        [_X, _f(1, 3, 3, 3)],
        {"filter_dims": _W.shape, "stride": 1, "padding": "valid"},
    ),
    "reduce": ([_f(2, 3, 4)], {"kind": "mean", "axes": (0, 2), "keepdims": True}),
    "reshape": ([_f(2, 3)], {"dims": (3, 2)}),
    "transpose": ([_f(2, 3, 4)], {"perm": (2, 0, 1)}),
    "broadcast_to": ([_f(3, 1)], {"dims": (2, 3, 4)}),
    "avg_pool": ([_P], {"pool": 2, "stride": 2}),
    "avg_pool_grad": ([_f(1, 2, 2, 2)], {"input_dims": _P.shape, "pool": 2, "stride": 2}),
    "max_pool": ([_P], {"pool": 2, "stride": 2}),
    "max_pool_grad": ([_P, _f(1, 2, 2, 2)], {"pool": 2, "stride": 2}),
    "one_hot": ([np.array([1.0, 3.0, 0.0], np.float32)], {"depth": 4}),
    "softmax_ce": ([_f(3, 4), _ONE_HOT], {}),
    "softmax_ce_grad": ([_f(3, 4), _ONE_HOT], {}),
    "pad": ([_f(2, 3)], {"paddings": ((1, 2), (0, 0))}),
    "slice": ([_f(3, 4)], {"starts": (1, 1), "sizes": (2, 2)}),
    "concat": ([_f(2, 1), _f(2, 3), _f(2, 2)], {"axis": 1}),
}

#: Rows the naive backend does not provide, or not for this fixture (a
#: general slice, a concat off axis 0).
NAIVE_UNSUPPORTED = {
    "conv2d", "conv2d_grad_input", "conv2d_grad_filter", "avg_pool", "avg_pool_grad",
    "max_pool", "max_pool_grad", "one_hot", "softmax_ce", "softmax_ce_grad", "slice",
    "concat",
}  # fmt: skip


def _apply(device, op):
    arrays, attrs = FIXTURES[op]
    tensors = [Tensor(a, device) for a in arrays]
    return tensors[0]._apply(op, tensors, **attrs)


def test_fixtures_cover_the_table():
    assert set(FIXTURES) == set(TRACE_OPS)


def test_every_kernel_is_registered():
    for row in TRACE_OPS.values():
        kernels = [row.kernel] if row.kernel is not None else list(row.kernels.values())
        assert kernels, row.name
        for kernel in kernels:
            assert KERNELS[kernel.name] is kernel, row.name


@pytest.mark.parametrize("op", sorted(FIXTURES))
def test_row_agrees_across_backends(op):
    reference = _apply(eager_device(), op).numpy()
    assert reference.dtype == np.float32

    recorded = _apply(lazy_device(), op)
    assert recorded._impl.op == op  # the fixture records exactly its row
    assert recorded._impl.dtype == TRACE_OPS[op].dtype
    check_trace([recorded._impl])
    assert recorded.shape == reference.shape

    compiler = AsyncCompiler()
    cold = Device("lazy", async_compile=compiler)
    paths = {
        "lazy": recorded.numpy(),
        "async fallback": _apply(cold, op).numpy(),
        "codegen": _apply(lazy_device(codegen=True), op).numpy(),
    }
    compiler.wait()
    assert cold.runtime.async_fallback_steps == 1  # the per-op fallback ran it
    for path, value in paths.items():
        assert value.dtype == reference.dtype, path
        assert value.shape == reference.shape, path
        assert value.tobytes() == reference.tobytes(), f"{op}: {path} diverged"

    if op in NAIVE_UNSUPPORTED:
        with pytest.raises(NotImplementedError, match=op):
            _apply(naive_device(), op)
    else:
        np.testing.assert_allclose(
            _apply(naive_device(), op).numpy(), reference, rtol=1e-5, atol=1e-6
        )


@st.composite
def _dags(draw):
    """A program over 2-4 sources: each step combines earlier values, so
    subexpressions are shared; 1-3 of the results are the fragment roots."""
    n_sources = draw(st.integers(2, 4))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "mul", "sub", "neg", "scale"]),
                st.integers(0, 1000),
                st.integers(0, 1000),
            ),
            min_size=1,
            max_size=12,
        )
    )
    roots = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=3))
    return n_sources, steps, roots


@given(_dags())
@settings(max_examples=60, deadline=None)
def test_canonical_source_order_is_the_lowering_parameter_order(dag):
    n_sources, steps, root_picks = dag
    device = lazy_device()
    values = [Tensor(np.full((3,), i, np.float32), device) for i in range(n_sources)]
    source_ids = {t._impl.id for t in values}
    combine = {
        "add": lambda a, b: a + b,
        "mul": lambda a, b: a * b,
        "sub": lambda a, b: a - b,
        "neg": lambda a, b: -a,
        "scale": lambda a, b: a * 2.0,  # embeds a constant leaf
    }
    for kind, i, j in steps:
        values.append(combine[kind](values[i % len(values)], values[j % len(values)]))
    results = [t._impl for t in values[n_sources:]]
    picked = [results[p % len(results)] for p in root_picks]
    roots = list({node.id: node for node in picked}.values())  # distinct, in pick order

    canonical = canonicalize(roots)
    _, param_nodes = _lower_to_hlo(roots)
    canonical_sources = [i for i in canonical.node_ids if i in source_ids]
    assert canonical_sources == [p.id for p in param_nodes]
    assert canonical.n_params == len(param_nodes)
