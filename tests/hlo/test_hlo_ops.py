"""The HLO op table: every opcode has one home, every row builds, verifies,
interprets to its NumPy reference and emits a certified, bit-identical
step, and every shape rule rejects what its kernel cannot run."""

import numpy as np
import pytest

from repro.analysis.equivalence.validator import validate_translation
from repro.errors import HloError, ShapeError
from repro.hlo import HloBuilder, Shape, emit_module
from repro.hlo.codegen import compile_step
from repro.hlo.compiler import _BINARY_KERNELS, _UNARY_KERNELS, Executable
from repro.hlo.ir import OPCODES, PRED, HloComputation, HloInstruction, HloModule
from repro.hlo.ops import HLO_OPS
from repro.hlo.verify import verify_module
from repro.runtime.kernels import KERNELS

# -- one home per opcode -------------------------------------------------------

#: Where each opcode outside ``HLO_OPS`` is computed: the kept kernel tables
#: (``compare`` picks from ``_COMPARE`` by direction, ``reduce`` from
#: ``codegen._REDUCE_KERNELS`` by kind) and the named special branches.
HOMES = {
    "HLO_OPS row": set(HLO_OPS),
    "_UNARY_KERNELS": set(_UNARY_KERNELS),
    "_BINARY_KERNELS": set(_BINARY_KERNELS),
    "_COMPARE": {"compare"},
    "_REDUCE_KERNELS": {"reduce"},
    "special branch": {"parameter", "constant", "convert", "not", "tuple", "fusion"},
}


def test_every_opcode_has_exactly_one_home():
    for opcode in sorted(OPCODES):
        homes = [name for name, members in HOMES.items() if opcode in members]
        assert len(homes) == 1, f"{opcode!r} lives in {homes or 'no table'}"
    assert set().union(*HOMES.values()) == OPCODES


def test_rows_name_real_kernels():
    for opcode, row in HLO_OPS.items():
        assert row.kernel in KERNELS, opcode
    assert {op for op, row in HLO_OPS.items() if row.f32_accum} == {"dot", "convolution"}


# -- NumPy references ------------------------------------------------------------


def _windows(oh, ow, k, s):
    for i in range(oh):
        for j in range(ow):
            yield i, j, (slice(None), slice(i * s, i * s + k), slice(j * s, j * s + k))


def _conv_ref(x, f, s):
    kh, _, _, cout = f.shape
    oh, ow = (x.shape[1] - kh) // s + 1, (x.shape[2] - kh) // s + 1
    out = np.zeros((x.shape[0], oh, ow, cout))
    for i, j, win in _windows(oh, ow, kh, s):
        out[:, i, j] = np.einsum("nhwc,hwco->no", x[win], f)
    return out


def _conv_grad_input_ref(g, f, input_dims, s):
    gx = np.zeros(input_dims)
    for i, j, win in _windows(g.shape[1], g.shape[2], f.shape[0], s):
        gx[win] += np.einsum("no,hwco->nhwc", g[:, i, j], f)
    return gx


def _conv_grad_filter_ref(x, g, filter_dims, s):
    gf = np.zeros(filter_dims)
    for i, j, win in _windows(g.shape[1], g.shape[2], filter_dims[0], s):
        gf += np.einsum("nhwc,no->hwco", x[win], g[:, i, j])
    return gf


def _pool_ref(x, k, s, reduce):
    oh, ow = (x.shape[1] - k) // s + 1, (x.shape[2] - k) // s + 1
    out = np.zeros((x.shape[0], oh, ow, x.shape[3]))
    for i, j, win in _windows(oh, ow, k, s):
        out[:, i, j] = reduce(x[win], axis=(1, 2))
    return out


def _avg_pool_grad_ref(g, input_dims, k, s):
    gx = np.zeros(input_dims)
    for i, j, win in _windows(g.shape[1], g.shape[2], k, s):
        gx[win] += g[:, i, j][:, None, None, :] / (k * k)
    return gx


def _max_pool_grad_ref(x, g, k, s):
    gx = np.zeros(x.shape)
    for i, j, win in _windows(g.shape[1], g.shape[2], k, s):
        window = x[win]
        hit = window == window.max(axis=(1, 2), keepdims=True)
        gx[win] += hit * g[:, i, j][:, None, None, :]
    return gx


def _log_softmax(z):
    z = z.astype(np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _labels(n, c):
    return np.eye(c, dtype=np.float32)[np.arange(n) % c]


# -- one case per row --------------------------------------------------------------

_RNG = np.random.default_rng(0)


def _f(*dims):
    return _RNG.standard_normal(dims).astype(np.float32)


#: opcode -> (parameter arrays, build(builder, *parameters), reference(*arrays))
ROW_CASES = {
    "select": (
        [_f(2, 3) > 0, _f(2, 3), _f(2, 3)],
        lambda b, p, x, y: b.select(p, x, y),
        np.where,
    ),
    "broadcast": (
        [_f(3)],
        lambda b, x: b.broadcast(x, (2, 3)),
        lambda x: np.broadcast_to(x, (2, 3)),
    ),
    "reshape": ([_f(2, 3)], lambda b, x: b.reshape(x, (3, 2)), lambda x: x.reshape(3, 2)),
    "transpose": (
        [_f(2, 3, 4)],
        lambda b, x: b.transpose(x, (2, 0, 1)),
        lambda x: x.transpose(2, 0, 1),
    ),
    "pad": (
        [_f(2, 3)],
        lambda b, x: b.pad(x, [(1, 0), (0, 2)]),
        lambda x: np.pad(x, ((1, 0), (0, 2))),
    ),
    "slice": ([_f(4, 5)], lambda b, x: b.slice(x, (1, 2), (2, 3)), lambda x: x[1:3, 2:5]),
    "concatenate": (
        [_f(2, 3), _f(2, 1)],
        lambda b, x, y: b.concatenate([x, y], -1),
        lambda x, y: np.concatenate([x, y], axis=1),
    ),
    "dot": ([_f(3, 4), _f(4, 2)], lambda b, x, y: b.dot(x, y), np.matmul),
    "convolution": (
        [_f(2, 6, 6, 2), _f(3, 3, 2, 3)],
        lambda b, x, f: b.convolution(x, f, 2, "valid"),
        lambda x, f: _conv_ref(x, f, 2),
    ),
    "conv_grad_input": (
        [_f(2, 2, 2, 3), _f(3, 3, 2, 3)],
        lambda b, g, f: b.conv_grad_input(g, f, (2, 6, 6, 2), 2, "valid"),
        lambda g, f: _conv_grad_input_ref(g, f, (2, 6, 6, 2), 2),
    ),
    "conv_grad_filter": (
        [_f(2, 6, 6, 2), _f(2, 2, 2, 3)],
        lambda b, x, g: b.conv_grad_filter(x, g, (3, 3, 2, 3), 2, "valid"),
        lambda x, g: _conv_grad_filter_ref(x, g, (3, 3, 2, 3), 2),
    ),
    "avg_pool": (
        [_f(2, 5, 5, 3)],
        lambda b, x: b.avg_pool(x, 3, 2),
        lambda x: _pool_ref(x, 3, 2, np.mean),
    ),
    "avg_pool_grad": (
        [_f(2, 2, 2, 3)],
        lambda b, g: b.avg_pool_grad(g, (2, 5, 5, 3), 3, 2),
        lambda g: _avg_pool_grad_ref(g, (2, 5, 5, 3), 3, 2),
    ),
    "max_pool": (
        [_f(2, 5, 5, 3)],
        lambda b, x: b.max_pool(x, 3, 2),
        lambda x: _pool_ref(x, 3, 2, np.max),
    ),
    "max_pool_grad": (
        [_f(2, 5, 5, 3), _f(2, 2, 2, 3)],
        lambda b, x, g: b.max_pool_grad(x, g, 3, 2),
        lambda x, g: _max_pool_grad_ref(x, g, 3, 2),
    ),
    "one_hot": (
        [np.array([0.0, 3.0, 1.0], np.float32)],
        lambda b, i: b.one_hot(i, 4),
        lambda i: np.eye(4)[i.astype(int)],
    ),
    "iota": ([], lambda b: b.iota(5), lambda: np.arange(5)),
    "softmax_ce": (
        [_f(4, 5), _labels(4, 5)],
        lambda b, z, y: b.softmax_ce(z, y),
        lambda z, y: -(y * _log_softmax(z)).sum(axis=-1).mean(),
    ),
    "softmax_ce_grad": (
        [_f(4, 5), _labels(4, 5)],
        lambda b, z, y: b.softmax_ce_grad(z, y),
        lambda z, y: (np.exp(_log_softmax(z)) - y) / z.shape[0],
    ),
}


def test_every_row_has_a_case():
    assert set(ROW_CASES) == set(HLO_OPS)


def _one_instruction_module(opcode):
    arrays, build, _ = ROW_CASES[opcode]
    b = HloBuilder(opcode)
    params = [b.parameter(Shape.of(a)) for a in arrays]
    root = build(b, *params)
    assert root.opcode == opcode and root.operands == params
    return b.build(root), arrays


@pytest.mark.parametrize("opcode", sorted(HLO_OPS))
def test_row_verifies_interprets_and_emits_certified(opcode):
    module, arrays = _one_instruction_module(opcode)
    verify_module(module)
    root = module.entry.root

    want = np.asarray(ROW_CASES[opcode][2](*arrays))
    got = Executable(module).run([a.copy() for a in arrays])
    assert got.shape == root.shape.dims == want.shape
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    generated = emit_module(module)
    result = validate_translation(
        module, generated.source, generated.consts, filename=generated.filename
    )
    assert result.certified, [d.message for d in result.diagnostics]
    emitted = compile_step(generated)(*[a.copy() for a in arrays])
    assert emitted.dtype == got.dtype
    assert emitted.tobytes() == got.tobytes()


# -- shape rules reject what the kernels cannot run ------------------------------

_CONV = dict(stride=1, padding="valid")

#: (operand dims, builder call, opcode, recorded shape, attrs): the builder
#: must raise ShapeError; the same instruction assembled by hand must be
#: reported by the verifier.
REJECTED = [
    pytest.param(
        [(2, 3)], lambda b, x: b.reduce(x, "sum", (2,)),
        "reduce", Shape((3,)), dict(kind="sum", axes=(2,), keepdims=False),
        id="reduce-axis-out-of-range",
    ),
    pytest.param(
        [(2, 3), (2, 3)], lambda b, x, y: b.concatenate([x, y], 2),
        "concatenate", Shape((4, 3)), dict(axis=2),
        id="concat-axis-out-of-range",
    ),
    pytest.param(
        [(3,)], lambda b, x: b.slice(x, (0,), (-1,)),
        "slice", Shape((-1,)), dict(starts=(0,), sizes=(-1,)),
        id="slice-negative-size",
    ),
    pytest.param(
        [(3,)], lambda b, x: b.broadcast(x, (1,)),
        "broadcast", Shape((1,)), dict(dims=(1,)),
        id="broadcast-to-smaller",
    ),
    pytest.param(
        [(1, 4, 4, 1)], lambda b, x: b.max_pool(x, 2, 0),
        "max_pool", Shape((1, 2, 2, 1)), dict(pool=2, stride=0),
        id="pool-stride-zero",
    ),
    pytest.param(
        [(2,), (2,)], lambda b, x, y: b.binary("compare", x, y),
        "compare", Shape((2,), PRED), dict(direction=""),
        id="compare-without-direction",
    ),
    pytest.param(
        [(2,), (2,)], lambda b, x, y: b.binary("compare", x, y, comparison="GT"),
        "compare", Shape((2,), PRED), dict(direction="GT"),
        id="compare-unknown-direction",
    ),
    pytest.param(
        [(1, 5, 5, 2), (3, 3, 1, 2)],
        lambda b, g, f: b.conv_grad_input(g, f, (1, 28, 28, 1), 1, "valid"),
        "conv_grad_input", Shape((1, 28, 28, 1)), dict(input_dims=(1, 28, 28, 1), **_CONV),
        id="conv-grad-input-cotangent",
    ),
    pytest.param(
        [(1, 28, 28, 1), (1, 5, 5, 2)],
        lambda b, x, g: b.conv_grad_filter(x, g, (3, 3, 1, 2), 1, "valid"),
        "conv_grad_filter", Shape((3, 3, 1, 2)), dict(filter_dims=(3, 3, 1, 2), **_CONV),
        id="conv-grad-filter-cotangent",
    ),
    pytest.param(
        [(1, 3, 3, 1)], lambda b, g: b.avg_pool_grad(g, (1, 4, 4, 1), 2, 2),
        "avg_pool_grad", Shape((1, 4, 4, 1)), dict(input_dims=(1, 4, 4, 1), pool=2, stride=2),
        id="avg-pool-grad-cotangent",
    ),
    pytest.param(
        [(1, 4, 4, 1), (1, 3, 3, 1)], lambda b, x, g: b.max_pool_grad(x, g, 2, 2),
        "max_pool_grad", Shape((1, 4, 4, 1)), dict(pool=2, stride=2),
        id="max-pool-grad-cotangent",
    ),
]


@pytest.mark.parametrize("dims, build, opcode, recorded, attrs", REJECTED)
def test_builder_rejects_what_the_kernel_cannot_run(dims, build, opcode, recorded, attrs):
    b = HloBuilder("bad")
    params = [b.parameter(Shape(d)) for d in dims]
    with pytest.raises(ShapeError):
        build(b, *params)


@pytest.mark.parametrize("dims, build, opcode, recorded, attrs", REJECTED)
def test_verifier_reports_what_the_kernel_cannot_run(dims, build, opcode, recorded, attrs):
    comp = HloComputation("entry")
    params = [
        comp.add(HloInstruction("parameter", [], Shape(d), parameter_number=i))
        for i, d in enumerate(dims)
    ]
    bad = comp.add(HloInstruction(opcode, params, recorded, attrs=attrs))
    comp.set_root(bad)
    with pytest.raises(HloError) as exc_info:
        verify_module(HloModule("m", comp))
    assert f"m/entry:%{bad.name}: shape inference failed" in str(exc_info.value)


def test_in_range_negative_axes_keep_working():
    x_val, y_val = _f(2, 3), _f(2, 1)
    b = HloBuilder("negative")
    x, y = b.parameter(Shape((2, 3))), b.parameter(Shape((2, 1)))
    summed = b.reduce(x, "sum", (-1,))
    joined = b.concatenate([x, y], -1)
    assert summed.shape.dims == (2,) and joined.shape.dims == (2, 4)
    module = b.build(b.tuple([summed, joined]))
    verify_module(module)
    got_sum, got_cat = Executable(module).run([x_val, y_val])
    np.testing.assert_allclose(got_sum, x_val.sum(axis=1), rtol=1e-6)
    assert got_cat.tobytes() == np.concatenate([x_val, y_val], axis=1).tobytes()
