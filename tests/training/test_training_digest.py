"""A pinned digest of five seeded LeNet training steps on every backend.

The eager dispatcher, the HLO interpreter and certified codegen all run the
kernels in ``repro.runtime.kernels``.  A kernel rewrite that changes a
single rounding changes the losses or the trained filter bits here, and
the failing parameter names the backend.  The constants were taken before
the branch-free ``select`` and strided-window pooling kernels replaced
``np.where`` and the patch-copy ``mean``.
"""

import hashlib

import numpy as np
import pytest

from repro.nn import LeNet, softmax_cross_entropy
from repro.optim import SGD
from repro.tensor import Tensor, eager_device, lazy_device
from repro.training import train_step

LOSS_HEX = [
    "0x1.26672e0000000p+1",
    "0x1.27b2640000000p+1",
    "0x1.26c6be0000000p+1",
    "0x1.2660780000000p+1",
    "0x1.28e4660000000p+1",
]
CONV1_FILTER_SHA256 = "ebbce2f2ade379bd67b194c5b0323054462148ae9d087cd069e8376ec3e907a9"


def loss_fn(model, x, y):
    return softmax_cross_entropy(model(x), y)


@pytest.mark.parametrize("backend", ["eager", "lazy", "codegen"])
def test_lenet_training_digest_is_pinned(backend):
    if backend == "eager":
        device = eager_device()
    else:
        device = lazy_device(codegen=backend == "codegen")
    rng = np.random.default_rng(0)
    model = LeNet.create(device=device, seed=0)
    optimizer = SGD(learning_rate=0.05)
    losses = []
    for _ in range(len(LOSS_HEX)):
        x = Tensor(rng.standard_normal((32, 28, 28, 1)).astype(np.float32), device)
        y = Tensor(np.eye(10, dtype=np.float32)[rng.integers(0, 10, 32)], device)
        losses.append(float(train_step(model, optimizer, loss_fn, x, y, device)).hex())
    digest = hashlib.sha256(model.conv1.filter.numpy().tobytes()).hexdigest()
    assert losses == LOSS_HEX, f"{backend}: losses moved"
    assert digest == CONV1_FILTER_SHA256, f"{backend}: conv1.filter bits moved"
