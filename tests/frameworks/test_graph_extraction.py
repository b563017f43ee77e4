"""Graph program extraction (Section 3.5): AOT compilation by partial
evaluation, and its documented limitation on runtime-dynamic control flow."""

import numpy as np
import pytest

from repro.frameworks.graph_extraction import (
    GraphExtractionError,
    extract_program,
)
from repro.nn import LeNet, MLP, resnet_cifar_small, softmax_cross_entropy
from repro.sil.mathprims import exp, log, relu, rsqrt, sigmoid, sqrt, tanh
from repro.tensor import (
    Tensor,
    avg_pool2d,
    conv2d,
    eager_device,
    flatten_batch,
    matmul,
    max_pool2d,
    mse_loss,
    one_hot,
    tensor_broadcast_to,
    tensor_concat,
    tensor_max,
    tensor_mean,
    tensor_reshape,
    tensor_sum,
    tensor_transpose,
)

DEVICE = eager_device()
RNG = np.random.default_rng(0)


def model_forward(model, x):
    return model(x).sum()


class TestStaticExtraction:
    def test_extracts_mlp_forward(self):
        model = MLP.create(8, [16], 4, device=DEVICE, seed=0)
        program = extract_program(
            model_forward, model, input_shapes=[(5, 8)]
        )
        x = RNG.standard_normal((5, 8)).astype(np.float32)
        got = float(program.run(x))
        expected = float(model(Tensor(x, DEVICE)).sum())
        assert got == pytest.approx(expected, rel=1e-4)

    def test_extracts_lenet_with_static_config(self):
        # LeNet's composition (sequenced over a static layer list) partially
        # evaluates away: the `for` loop unrolls at extraction time.
        model = LeNet.create(DEVICE, seed=0)
        program = extract_program(model_forward, model, input_shapes=[(2, 28, 28, 1)])
        x = RNG.standard_normal((2, 28, 28, 1)).astype(np.float32)
        got = float(program.run(x))
        expected = float(model(Tensor(x, DEVICE)).sum())
        assert got == pytest.approx(expected, rel=1e-3)

    def test_extracts_resnet_config_branches(self):
        # `if self.has_projection:` branches on a *static* field, so the
        # extractor folds them — the ResNet family compiles per variant.
        model = resnet_cifar_small(DEVICE, seed=1)
        program = extract_program(model_forward, model, input_shapes=[(1, 16, 16, 3)])
        x = RNG.standard_normal((1, 16, 16, 3)).astype(np.float32)
        got = float(program.run(x))
        expected = float(model(Tensor(x, DEVICE)).sum())
        assert got == pytest.approx(expected, rel=1e-3)

    def test_extracted_loss_program(self):
        model = MLP.create(8, [8], 3, device=DEVICE, seed=2)

        def loss(model, x, y):
            return softmax_cross_entropy(model(x), y)

        program = extract_program(loss, model, input_shapes=[(4, 8), (4, 3)])
        x = RNG.standard_normal((4, 8)).astype(np.float32)
        y = one_hot(Tensor(RNG.integers(0, 3, 4).astype(np.float32), DEVICE), 3)
        got = float(program.run(x, y.numpy()))
        expected = float(loss(model, Tensor(x, DEVICE), y))
        assert got == pytest.approx(expected, rel=1e-4)

    def test_zero_per_call_host_work(self):
        model = MLP.create(4, [4], 2, device=DEVICE, seed=3)
        program = extract_program(model_forward, model, input_shapes=[(2, 4)])
        # Compiled once: op count is fixed; repeated runs don't recompile.
        from repro.hlo.compiler import STATS

        before = STATS.compiles
        x = np.ones((2, 4), np.float32)
        for _ in range(5):
            program.run(x)
        assert STATS.compiles == before
        assert program.op_count > 0

    def test_static_loop_unrolls(self):
        def poly(coeffs, x):
            acc = x * 0.0
            for i in range(len(coeffs)):
                acc = acc * 1.0 + coeffs[i] * x
            return acc.sum()

        program = extract_program(poly, [1.0, 2.0, 3.0], input_shapes=[(4,)])
        x = np.array([1, 2, 3, 4], np.float32)
        assert float(program.run(x)) == pytest.approx(6.0 * x.sum(), rel=1e-5)


# One-op programs, one per tensor primitive.  A leading static argument is
# a concrete (weight) tensor, which extraction embeds as a constant.


def _matmul(w, x):
    return matmul(x, w)


def _conv2d(filters, x):
    return conv2d(x, filters, 1, "same")


def _avg_pool2d(x):
    return avg_pool2d(x, 2, 2)


def _max_pool2d(x):
    return max_pool2d(x, 2, 2)


def _tensor_sum(x):
    return tensor_sum(x, (1,), False)


def _tensor_mean(x):
    return tensor_mean(x)


def _tensor_max(x):
    return tensor_max(x, (0,), True)


def _tensor_reshape(x):
    return tensor_reshape(x, (4, -1))


def _flatten_batch(x):
    return flatten_batch(x)


def _tensor_transpose(x):
    return tensor_transpose(x, (1, 0))


def _tensor_broadcast_to(x):
    return tensor_broadcast_to(x, (3, 4))


def _softmax_cross_entropy(x, labels):
    return softmax_cross_entropy(x, labels)


def _mse_loss(x, y):
    return mse_loss(x, y)


def _tensor_concat(x, y):
    return tensor_concat([x, y], 0)


def _exp(x):
    return exp(x)


def _log(x):
    return log(x)


def _tanh(x):
    return tanh(x)


def _sigmoid(x):
    return sigmoid(x)


def _relu(x):
    return relu(x - 1.0)


def _sqrt(x):
    return sqrt(x)


def _rsqrt(x):
    return rsqrt(x)


def _abs(x):
    return abs(x - 1.0)


def _neg(x):
    return -x


def _add(x, y):
    return x + y


def _sub(x, y):
    return x - y


def _mul(w, x):
    return x * w


def _div(x, y):
    return x / y


def _pow(x, y):
    return x**y


def _lt(x, y):
    return x < y


def _le(x, y):
    return x <= y


def _gt(x, y):
    return x > y


def _ge(x, y):
    return x >= y


def _f32(*shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 2.0, shape).astype(np.float32)


_PRIMITIVE_PROGRAMS = {
    "matmul": (_matmul, [_f32(4, 5)], [(3, 4)]),
    "conv2d": (_conv2d, [_f32(3, 3, 2, 4)], [(1, 6, 6, 2)]),
    "avg_pool2d": (_avg_pool2d, [], [(1, 4, 4, 3)]),
    "max_pool2d": (_max_pool2d, [], [(1, 4, 4, 3)]),
    "tensor_sum": (_tensor_sum, [], [(3, 4)]),
    "tensor_mean": (_tensor_mean, [], [(3, 4)]),
    "tensor_max": (_tensor_max, [], [(3, 4)]),
    "tensor_reshape": (_tensor_reshape, [], [(2, 6)]),
    "flatten_batch": (_flatten_batch, [], [(2, 3, 2)]),
    "tensor_transpose": (_tensor_transpose, [], [(3, 4)]),
    "tensor_broadcast_to": (_tensor_broadcast_to, [], [(1, 4)]),
    "softmax_cross_entropy": (_softmax_cross_entropy, [], [(3, 4), (3, 4)]),
    "mse_loss": (_mse_loss, [], [(3, 4), (3, 4)]),
    "tensor_concat": (_tensor_concat, [], [(2, 4), (3, 4)]),
    "exp": (_exp, [], [(3, 4)]),
    "log": (_log, [], [(3, 4)]),
    "tanh": (_tanh, [], [(3, 4)]),
    "sigmoid": (_sigmoid, [], [(3, 4)]),
    "relu": (_relu, [], [(3, 4)]),
    "sqrt": (_sqrt, [], [(3, 4)]),
    "rsqrt": (_rsqrt, [], [(3, 4)]),
    "abs": (_abs, [], [(3, 4)]),
    "neg": (_neg, [], [(3, 4)]),
    "add": (_add, [], [(3, 4), (4,)]),
    "sub": (_sub, [], [(3, 4), (3, 4)]),
    "mul": (_mul, [_f32(4)], [(3, 4)]),
    "div": (_div, [], [(3, 4), (3, 4)]),
    "pow": (_pow, [], [(3, 4), (3, 4)]),
    "lt": (_lt, [], [(3, 4), (3, 4)]),
    "le": (_le, [], [(3, 4), (3, 4)]),
    "gt": (_gt, [], [(3, 4), (3, 4)]),
    "ge": (_ge, [], [(3, 4), (3, 4)]),
}


@pytest.mark.parametrize("name", sorted(_PRIMITIVE_PROGRAMS))
def test_every_tensor_primitive_extracts_bit_identically(name):
    """Each primitive runs its own body on extraction tensors, so its
    one-op program extracts and matches eager bit for bit."""
    fn, weights, shapes = _PRIMITIVE_PROGRAMS[name]
    static = [Tensor(w, DEVICE) for w in weights]
    inputs = [_f32(*s, seed=i + 1) for i, s in enumerate(shapes)]
    program = extract_program(fn, *static, input_shapes=shapes)
    got = np.asarray(program.run(*inputs), dtype=np.float32)
    expected = fn(*static, *[Tensor(a, DEVICE) for a in inputs]).numpy()
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestTheLimitation:
    def test_runtime_tensor_branch_rejected(self):
        def dynamic(model, x):
            h = model(x).sum()
            if h > 0.0:  # depends on a runtime tensor value
                return h * 2.0
            return h

        model = MLP.create(4, [4], 2, device=DEVICE, seed=4)
        with pytest.raises(GraphExtractionError, match="Section 3.5"):
            extract_program(dynamic, model, input_shapes=[(2, 4)])

    def test_runtime_loop_bound_rejected(self):
        def dynamic_loop(x):
            acc = x.sum()
            while acc < 100.0:  # tensor-valued condition
                acc = acc * 2.0
            return acc

        with pytest.raises(GraphExtractionError):
            extract_program(dynamic_loop, input_shapes=[(4,)])

    def test_reading_a_runtime_value_rejected(self):
        def host_read(x):
            return x * float(x.sum())  # the value is only known at run time

        with pytest.raises(GraphExtractionError, match="Section 3.5"):
            extract_program(host_read, input_shapes=[(4,)])

    def test_shape_mismatch_at_run_time_rejected(self):
        model = MLP.create(4, [4], 2, device=DEVICE, seed=5)
        program = extract_program(model_forward, model, input_shapes=[(2, 4)])
        with pytest.raises(GraphExtractionError, match="static shapes"):
            program.run(np.ones((3, 4), np.float32))

    def test_static_result_rejected(self):
        def constant(x):
            return 42.0

        with pytest.raises(GraphExtractionError, match="static"):
            extract_program(constant, input_shapes=[(2,)])


class TestVersusLazyTracing:
    def test_per_step_cost_structure(self):
        """The Section 3.5 trade-off: static extraction has zero per-step
        host cost, lazy tracing pays per-op tracing but handles dynamism."""
        from repro.runtime.costmodel import S4TF_LAZY, GTX_1080
        from repro.tensor import lazy_device

        model_static = MLP.create(16, [16], 4, device=DEVICE, seed=6)
        program = extract_program(model_forward, model_static, input_shapes=[(8, 16)])

        lazy = lazy_device(GTX_1080, S4TF_LAZY)
        model_lazy = MLP.create(16, [16], 4, device=lazy, seed=6)
        x_np = RNG.standard_normal((8, 16)).astype(np.float32)

        # Warm up the lazy cache, then measure per-step tracing cost.
        for _ in range(2):
            float(model_lazy(Tensor(x_np, lazy)).sum())
        t0 = lazy.runtime.host_time
        float(model_lazy(Tensor(x_np, lazy)).sum())
        lazy_step_host = lazy.runtime.host_time - t0
        assert lazy_step_host > 0  # tracing recurs every step

        # The extracted program's host cost per step is literally zero ops.
        from repro.runtime.device import SimDevice

        sim = SimDevice(GTX_1080)
        program.run(x_np, device=sim)
        assert sim.stats.kernels_launched > 0  # device work happened
        # And numerics agree with the lazy path.
        got = float(program.run(x_np))
        expected = float(model_lazy(Tensor(x_np, lazy)).sum())
        assert got == pytest.approx(expected, rel=1e-4)


class TestStaticShapeChecking:
    """Section 4's static shape tracking, before any execution."""

    def test_reports_output_shape(self):
        model = MLP.create(8, [16], 4, device=DEVICE, seed=0)

        def logits(model, x):
            return model(x)

        from repro.frameworks import check_shapes

        shape = check_shapes(logits, model, input_shapes=[(5, 8)])
        assert shape == (5, 4)

    def test_catches_shape_mismatch_statically(self):
        from repro.errors import ShapeError
        from repro.frameworks import check_shapes

        model = MLP.create(8, [16], 4, device=DEVICE, seed=0)

        def logits(model, x):
            return model(x)

        with pytest.raises(ShapeError):
            # 7 features into an 8-feature model: rejected without running.
            check_shapes(logits, model, input_shapes=[(5, 7)])

    def test_catches_mismatch_deep_in_composition(self):
        from repro.errors import ShapeError
        from repro.frameworks import check_shapes

        def bad(x):
            a = x.reshaped((2, 6))
            b = x.reshaped((3, 4))
            return (a @ b).sum()  # (2,6) @ (3,4): inner dims disagree

        with pytest.raises(ShapeError, match="dot"):
            check_shapes(bad, input_shapes=[(12,)])

    def test_lenet_shape_contract(self):
        from repro.frameworks import check_shapes

        model = LeNet.create(DEVICE, seed=0)

        def logits(model, x):
            return model(x)

        assert check_shapes(logits, model, input_shapes=[(4, 28, 28, 1)]) == (4, 10)
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            check_shapes(logits, model, input_shapes=[(4, 10, 10, 1)])
